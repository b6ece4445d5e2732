"""Closed-form checks of the benchmark's own oracles.

    python3 -m pytest bench/test_oracles.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from workloads import STAR6_EDGES, barrier_edges, complete_edges, counterexample_edges  # noqa: E402


def star_edges(n):
    return [(0, v) for v in range(1, n)]


def test_complete_graphs_give_double_factorials():
    for n in range(2, 13, 2):
        want = oracles.double_factorial(n - 1)
        assert oracles.hafnian_by_pairings(n, complete_edges(n)) == want
        assert oracles.hafnian_memo(n, complete_edges(n)) == want
    assert oracles.hafnian_memo(24, complete_edges(24)) == 316234143225  # 23!!


def test_counterexample_gives_n_factorial():
    for n_center in range(1, 6):
        for m_pairs in range(3):
            total = 2 * (n_center + m_pairs)
            edges = counterexample_edges(n_center, m_pairs)
            assert oracles.hafnian_by_pairings(total, edges) == math.factorial(n_center)
            assert oracles.hafnian_memo(total, edges) == math.factorial(n_center)
    assert oracles.hafnian_memo(20, counterexample_edges(10, 0)) == math.factorial(10)


def test_graphs_without_perfect_matching_give_zero():
    for n in (4, 6, 8):
        assert oracles.hafnian_by_pairings(n, star_edges(n)) == 0
        assert oracles.hafnian_memo(n, star_edges(n)) == 0
    assert oracles.hafnian_memo(6, STAR6_EDGES) == 0
    rng = np.random.default_rng(0)
    for n in (6, 8, 10, 12):
        edges = barrier_edges(rng, n)
        assert oracles.hafnian_by_pairings(n, edges) == 0 == oracles.hafnian_memo(n, edges)
    assert oracles.hafnian_memo(5, complete_edges(5)) == 0


def test_expansion_scan_closed_forms():
    # K_n: |boundary(J)| - |Con(J)| = n - |J| - 1, so kappa*k <= n - k - 1 for all k <= level
    n, level = 8, 4
    assert oracles.expansion_scan(n, complete_edges(n), (n - level - 1) / level, level)[0]
    holds, witness, _ = oracles.expansion_scan(n, complete_edges(n), (n - level - 1) / level + 0.01, level)
    assert not holds and len(witness) == level
    # cycle C_n: an arc of k vertices has boundary 2 and one component
    cycle = [(v, (v + 1) % 10) for v in range(10)]
    assert oracles.expansion_scan(10, cycle, 0.25, 4)[0]
    assert not oracles.expansion_scan(10, cycle, 0.26, 4)[0]
    # star: a single leaf has boundary {center} and one component, lhs = 0
    holds, witness, scanned = oracles.expansion_scan(6, star_edges(6), 0.1, 3)
    assert (holds, witness, scanned) == (False, (1,), 2)
    assert oracles.expansion_scan(6, star_edges(6), 0.0, 1)[2] == oracles.subsets_up_to(6, 1)
    assert oracles.subsets_up_to(16, 8) == 39202


def test_eig_counts_of_block_diagonal_skew_matrix():
    sigmas = [0.1, 0.5, 2.0]
    w = np.zeros((6, 6))
    for k, s in enumerate(sigmas):
        w[2 * k, 2 * k + 1], w[2 * k + 1, 2 * k] = s, -s
    assert oracles.eig_counts(w, [0.05, 0.2, 1.0, 3.0]) == [0, 2, 4, 6]


def test_skew_sample_shape_and_amplitudes():
    b = np.full((4, 4), 0.25)
    np.fill_diagonal(b, 0.0)
    w = oracles.skew_sample(b, seed=7, index=3)
    assert np.array_equal(w, -w.T)
    g = oracles.stream_normals(7, 3, 6)
    assert np.allclose(w[np.triu_indices(4, 1)], 0.5 * g, rtol=0, atol=0)


def test_det_sd_of_k2():
    # det of the 2x2 skew matrix is g^2, whose standard deviation is sqrt(2)
    assert abs(oracles.det_sd_complete(2, 200_000, seed=1) - math.sqrt(2)) < 0.03
