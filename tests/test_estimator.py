import math

import numpy as np
import pytest

from hafkit import (
    CounterexampleSpec,
    InputError,
    SymMatrix,
    barvinok_envelope,
    build_counterexample,
    complete_graph,
    estimate,
    hafnian_exact,
    sample_log_det,
    sample_log_dets,
    sample_w,
)
from hafkit import estimator
from hafkit.estimator import _quantiles
from hafkit.rng import gaussian_block, gaussian_blocks

from helpers import naive_hafnian, random_symmetric01, tutte_barrier_support


def golden_matrix():
    a = np.zeros((6, 6))
    vals = {
        (0, 1): 1.0,
        (0, 2): 4.0,
        (0, 3): 0.25,
        (1, 2): 2.25,
        (2, 3): 1.0,
        (3, 4): 9.0,
        (4, 5): 1.0,
        (1, 5): 0.04,
    }
    for (i, j), v in vals.items():
        a[i, j] = a[j, i] = v
    return SymMatrix(a)


# frozen first draw of the (seed=7, index=0) stream on golden_matrix()
GOLDEN_TRIANGLE = np.array(
    [
        -1.7496944402112695,
        1.1490882185118256,
        0.3071416818765366,
        0.0,
        0.0,
        -1.8439025476358364,
        -0.0,
        0.0,
        0.05094819780361851,
        -0.7330274713531689,
        0.0,
        0.0,
        5.5814924915637745,
        -0.0,
        0.19355718295313207,
    ]
)
GOLDEN_LOG_DET = -3.341240222379547
GOLDEN_SIGN = -1


def test_sample_w_reproduces_golden_matrix():
    w = sample_w(golden_matrix(), seed=7, index=0)
    tri = w.entries[np.triu_indices(6, 1)]
    assert np.array_equal(tri, GOLDEN_TRIANGLE)
    log_det, sign_pf = sample_log_det(golden_matrix(), 7, 0)
    assert log_det == GOLDEN_LOG_DET
    assert sign_pf == GOLDEN_SIGN


def test_sample_w_structure():
    a = golden_matrix()
    w = sample_w(a, seed=1, index=5)
    assert np.array_equal(w.entries, -w.entries.T)
    # zero variance entries stay exactly zero
    assert w.entries[1, 3] == 0.0 and w.entries[2, 4] == 0.0


def test_zero_matrix_gives_zero_sample():
    a = SymMatrix(np.zeros((4, 4)))
    w = sample_w(a, seed=9, index=0)
    assert np.all(w.entries == 0.0)


def test_blocked_stream_equals_per_index_streams():
    blocks = gaussian_blocks(3, first_index=10, num_blocks=7, count=15)
    for r in range(7):
        assert np.array_equal(blocks[r], gaussian_block(3, 10 + r, 15))


def test_entry_variance_matches_profile():
    # A entry 4 -> W entry distributed as 2 g
    g = gaussian_blocks(123, 0, 100_000, 1)[:, 0]
    var = float(np.var(2.0 * g))
    assert abs(var - 4.0) < 0.1


def test_single_edge_mean_is_unbiased():
    a = SymMatrix([[0, 1], [1, 0]])
    s = estimate(a, 1_000_000, seed=42)
    mean = math.exp(s.mean_det_log)
    assert abs(mean - 1.0) < 0.01
    assert s.num_zero_det == 0


def test_unbiased_on_random_01_matrices_large_sample():
    # 20 random 0/1 matrices, 1e6 samples each: mean det within 4 SE of the
    # exact hafnian (threads only change wall time, not the stream)
    rng = np.random.default_rng(808)
    for k in range(20):
        n = int(rng.choice([4, 6, 8]))
        p = float(rng.uniform(0.3, 0.9))
        sym = SymMatrix(random_symmetric01(rng, n, p))
        exact = hafnian_exact(sym).value_if_small
        log_dets = sample_log_dets(sym, 1_000_000, seed=900 + k, threads=4)
        if exact == 0:
            assert np.all(log_dets == -np.inf)
            continue
        dets = np.exp(log_dets)
        mean = float(np.mean(dets))
        se = float(np.std(dets)) / 1000.0
        assert abs(mean - exact) <= 4.0 * se


def test_estimate_against_exact_k8():
    k8 = complete_graph(8).sym_matrix()
    exact = hafnian_exact(k8)
    s = estimate(k8, 50_000, seed=2, exact_log_haf=exact.log_value)
    # 50k samples: mean within ~5 relative standard errors of 105
    assert abs(math.exp(s.mean_det_log) - 105.0) < 15.0
    assert s.exact_log_haf == exact.log_value
    assert s.error_stats is not None
    assert s.error_stats.median_abs_error > 0
    assert s.error_stats.max_abs_error >= s.error_stats.median_abs_error


def test_no_matching_support_reports_minus_inf():
    star = np.zeros((4, 4))
    star[0, 1:] = 1
    star[1:, 0] = 1
    # 1 and 2 both need vertex 0; rounding leaves nonzero pivots in most of
    # these draws, so only an exact decision reports every one as zero
    six = np.zeros((6, 6))
    for i, j in [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]:
        six[i, j] = six[j, i] = 1.0
    for a, num in ((star, 200), (six, 2000)):
        s = estimate(SymMatrix(a), num, seed=3)
        assert s.mean_det_log == -math.inf
        assert s.logdet_mean == -math.inf
        assert s.num_zero_det == num
        assert all(v == -math.inf for v in s.logdet_quantiles.values())


def test_tutte_barrier_supports_report_all_zero():
    rng = np.random.default_rng(2027)
    for n in (6, 8, 10, 12):
        for s_barrier in (1, 2):
            a = tutte_barrier_support(rng, n, s_barrier)
            assert naive_hafnian(a) == 0.0
            s = estimate(SymMatrix(a), 2000, seed=3)
            assert s.num_zero_det == 2000
            assert s.mean_det_log == -math.inf
            assert s.logdet_mean == -math.inf


def test_zero_decision_agrees_with_naive_hafnian():
    rng = np.random.default_rng(2028)
    seen = set()
    for k in range(24):
        n = int(rng.choice([6, 8, 10, 12]))
        a = random_symmetric01(rng, n, p=float(rng.uniform(0.15, 0.45)))
        has_matching = naive_hafnian(a) > 0
        seen.add(has_matching)
        log_dets = sample_log_dets(SymMatrix(a), 500, seed=k)
        if has_matching:
            assert np.all(np.isfinite(log_dets))
        else:
            assert np.all(log_dets == -np.inf)
    assert seen == {True, False}


def test_sample_log_dets_odd_dimension_is_all_minus_inf():
    log_dets = sample_log_dets(complete_graph(5).sym_matrix(), 300, seed=1)
    assert log_dets.shape == (300,)
    assert np.all(log_dets == -np.inf)


def test_estimate_deterministic_across_threads_and_runs():
    k8 = complete_graph(8).sym_matrix()
    s1 = estimate(k8, 9001, seed=5, threads=1)
    s2 = estimate(k8, 9001, seed=5, threads=4)
    s3 = estimate(k8, 9001, seed=5, threads=1)
    assert s1 == s2 == s3


def test_samples_nonnegative_dets():
    k8 = complete_graph(8).sym_matrix()
    log_dets = sample_log_dets(k8, 5000, seed=8)
    assert not np.any(np.isnan(log_dets))
    assert np.all(np.isfinite(log_dets))


def test_jensen_mean_log_ordering():
    k8 = complete_graph(8).sym_matrix()
    s = estimate(k8, 20_000, seed=13)
    assert s.mean_det_log >= s.logdet_mean


def test_diagonal_scaling_shifts_log_det_exactly():
    rng = np.random.default_rng(31)
    a = golden_matrix()
    d = rng.uniform(0.5, 2.0, size=6)
    scaled = SymMatrix(np.outer(d, d) * a.entries)
    for idx in range(5):
        base, _ = sample_log_det(a, 17, idx)
        shifted, _ = sample_log_det(scaled, 17, idx)
        assert math.isclose(shifted, base + float(np.sum(np.log(d))), abs_tol=1e-10)


@pytest.mark.parametrize(
    "a",
    [
        complete_graph(8).sym_matrix(),
        build_counterexample(CounterexampleSpec(delta=0.12, n_center=10)).sym_matrix(),
    ],
    ids=["k8", "counterexample_10"],
)
def test_chunk_size_does_not_change_log_dets(monkeypatch, a):
    num = 4500  # not a multiple of 1000, the default chunk or 4096
    want = sample_log_dets(a, num, seed=21)
    for chunk in (estimator._CHUNK, 4096, 1000, 1):
        monkeypatch.setattr(estimator, "_CHUNK", chunk)
        for threads in (1, 2):
            assert np.array_equal(sample_log_dets(a, num, seed=21, threads=threads), want)


def test_quantile_helper_handles_minus_inf():
    vals = np.array([-math.inf, -math.inf, 0.0, 1.0])
    q = _quantiles(np.sort(vals), (0.25, 0.5, 0.75))
    assert q[0.25] == -math.inf
    assert q[0.5] == -math.inf  # interpolating out of -inf stays -inf
    assert q[0.75] == 0.25


def test_quantiles_match_numpy_on_finite_data():
    rng = np.random.default_rng(32)
    vals = np.sort(rng.normal(size=101))
    qs = (0.05, 0.31, 0.5, 0.9)
    ours = _quantiles(vals, qs)
    for q in qs:
        assert math.isclose(ours[q], float(np.quantile(vals, q)), rel_tol=1e-12, abs_tol=1e-12)


def test_estimate_input_validation():
    a = golden_matrix()
    with pytest.raises(InputError):
        estimate(a, 0, seed=1)
    with pytest.raises(InputError):
        estimate(a, 10, seed=1, quantiles=(0.0, 0.5))
    with pytest.raises(InputError):
        estimate(a, 10, seed=-1)
    with pytest.raises(InputError):
        estimate(SymMatrix(np.zeros((3, 3))), 10, seed=1)
    with pytest.raises(InputError):
        sample_log_dets(a, 10, seed=1, threads=0)


def test_barvinok_envelope_at_n12():
    a = complete_graph(12).sym_matrix()
    exact = hafnian_exact(a)
    log_dets = sample_log_dets(a, 10_000, seed=6)
    rep = barvinok_envelope(log_dets, exact.log_value, 12)
    assert rep["lower_fraction"] <= 0.05
    ups = [rep["upper_fractions"][c] for c in sorted(rep["upper_fractions"])]
    assert all(x >= y for x, y in zip(ups, ups[1:]))  # decaying in C
