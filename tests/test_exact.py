import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hafkit import (
    CounterexampleSpec,
    GraphEdgeList,
    InputError,
    SymMatrix,
    build_counterexample,
    complete_graph,
    count_perfect_matchings,
    hafnian_exact,
    random_regular_graph,
)

from hafkit import exact
from hafkit.exact import support_blocks

from helpers import (
    brute_blocks,
    brute_total_support,
    memo_matchings,
    naive_hafnian,
    neighbour_sets,
    random_graph_with_matching,
    random_symmetric01,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_single_weighted_edge():
    v = hafnian_exact(SymMatrix([[0, 2.5], [2.5, 0]]))
    assert v.value_if_small == 2.5
    assert math.isclose(v.log_value, math.log(2.5))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 18, 20, 22, 24, 26, 28])
def test_complete_graph_double_factorial(n):
    v = hafnian_exact(complete_graph(n).sym_matrix())
    assert v.value_if_small == double_factorial(n - 1)
    assert float(v.value_if_small).is_integer()


def test_counterexample_counts_factorial():
    for n in (2, 3, 4):
        spec = CounterexampleSpec(delta=0.1, n_center=n, m_pairs=1)
        v = count_perfect_matchings(build_counterexample(spec))
        assert v.value_if_small == math.factorial(n)


def test_agrees_with_naive_enumeration():
    rng = np.random.default_rng(21)
    for n in (2, 4, 6, 8, 10):
        a01 = random_symmetric01(rng, n)
        v = hafnian_exact(SymMatrix(a01))
        assert v.value_if_small == naive_hafnian(a01)  # integer, exact
        w = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        w[iu] = rng.random(iu[0].size)
        w += w.T
        v = hafnian_exact(SymMatrix(w))
        ref = naive_hafnian(w)
        assert math.isclose(math.exp(v.log_value), ref, rel_tol=1e-11)


def test_permutation_invariance_exact_for_integers():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = 8
        a = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        a[iu] = rng.integers(0, 4, size=iu[0].size).astype(float)
        a += a.T
        perm = rng.permutation(n)
        pa = a[np.ix_(perm, perm)]
        assert hafnian_exact(SymMatrix(a)).value_if_small == hafnian_exact(SymMatrix(pa)).value_if_small


def test_monotone_in_entries():
    rng = np.random.default_rng(23)
    n = 8
    a = random_symmetric01(rng, n) * rng.random((n, n))
    a = np.triu(a, 1)
    a += a.T
    base = hafnian_exact(SymMatrix(a)).log_value
    i, j = 0, 3
    a2 = a.copy()
    a2[i, j] = a2[j, i] = a2[i, j] + 1.0
    bumped = hafnian_exact(SymMatrix(a2)).log_value
    assert bumped >= base


def test_diagonal_scaling_equivariance_exact_powers_of_two():
    rng = np.random.default_rng(24)
    for n in (4, 6, 8, 10):
        a01 = random_symmetric01(rng, n, p=0.7)
        d = 2.0 ** rng.integers(-2, 3, size=n)
        scaled = np.outer(d, d) * a01
        lhs = hafnian_exact(SymMatrix(scaled)).value_if_small
        rhs = hafnian_exact(SymMatrix(a01)).value_if_small * float(np.prod(d))
        assert lhs == rhs  # exact: all products are powers of two times integers


def test_value_matches_log_value():
    rng = np.random.default_rng(25)
    a = random_symmetric01(rng, 10) * (1.0 + rng.random((10, 10)))
    a = np.triu(a, 1)
    a += a.T
    v = hafnian_exact(SymMatrix(a))
    if v.value_if_small is not None and v.value_if_small > 0:
        assert math.isclose(v.value_if_small, math.exp(v.log_value), rel_tol=1e-12)


def test_huge_entries_use_log_path():
    # entries 2^200: haf = 2^(200*m) * count, exact in logs
    n = 8
    a01 = complete_graph(n).sym_matrix().entries
    big = a01 * 2.0**200
    v = hafnian_exact(SymMatrix(big))
    expected_log = (n // 2) * 200 * math.log(2.0) + math.log(105)
    assert math.isclose(v.log_value, expected_log, rel_tol=1e-13)


def test_integer_entries_past_int64_take_log_path():
    # entries 2^20: haf = 105 * 2^80 passes 2^63; its log is exact
    big = complete_graph(8).sym_matrix().entries * 2.0**20
    v = hafnian_exact(SymMatrix(big))
    assert math.isclose(v.log_value, 4 * 20 * math.log(2.0) + math.log(105), rel_tol=1e-13)


def test_integer_counts_stay_exact_past_int64():
    # the last level's sums pass 2^63 and go on in Python ints; float64 would
    # come out 3 below 3 * (2^40 + 1)^2
    x = 2**40 + 1
    a = np.full((4, 4), float(x)) - np.diag([float(x)] * 4)
    v = hafnian_exact(SymMatrix(a))
    assert type(v.value_if_small) is int and v.value_if_small == 3 * x * x
    rng = np.random.default_rng(4406)
    w = np.triu(rng.integers(2**21, 2**22, size=(6, 6)), 1)
    v = hafnian_exact(SymMatrix((w + w.T).astype(float)))
    exact = naive_hafnian((w + w.T).astype(object))
    assert exact >= 2**63 and float(exact) != exact
    assert type(v.value_if_small) is int and v.value_if_small == exact


def test_count_above_2_53_is_an_exact_int():
    # four disjoint K_12: 10395^4 is about 1.17e16, past 2^53, so no float64 holds it
    pairs = [(12 * c + i, 12 * c + j) for c in range(4) for i in range(12) for j in range(i + 1, 12)]
    v = count_perfect_matchings(GraphEdgeList.from_pairs(48, pairs))
    assert float(10395**4) != 10395**4
    assert type(v.value_if_small) is int and v.value_if_small == 10395**4
    assert math.isclose(v.log_value, 4 * math.log(10395), rel_tol=1e-15)


def fraction_log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


@pytest.mark.parametrize("n, step", [(4, 1), (8, 1), (16, 5)])
def test_complete_graphs_at_every_power_of_two(n, step):
    # haf(K_n 2^k) = (n-1)!! 2^(k n/2): its log at any unit, its value wherever float64 holds it
    entries = complete_graph(n).sym_matrix().entries
    for k in range(-1000, 1001, step):
        v = hafnian_exact(SymMatrix(np.ldexp(entries, k)))
        exact = double_factorial(n - 1) * Fraction(2) ** (k * n // 2)
        log_exact = math.log(double_factorial(n - 1)) + k * (n // 2) * math.log(2.0)
        assert math.isclose(v.log_value, log_exact, rel_tol=1e-13)
        normal = Fraction(2) ** -1022 <= exact < Fraction(2) ** 1024
        assert v.value_if_small == (exact if normal else None)


def test_one_heavy_edge_among_tiny_ones():
    # haf = 3e-400 + 12e-600: each DP state is summed at the unit of its
    # largest term, so the tiny terms are not lost beside the heavy edge
    a = np.full((6, 6), 1e-200)
    np.fill_diagonal(a, 0.0)
    a[0, 1] = a[1, 0] = 1.0
    v = hafnian_exact(SymMatrix(a))
    exact = naive_hafnian(np.vectorize(Fraction, otypes=[object])(a))
    assert v.value_if_small is None
    assert math.isclose(v.log_value, fraction_log(exact), rel_tol=1e-15)


def extreme_unit_inputs(rng, count):
    """Weighted symmetric matrices, n <= 10, one in two with a power of two per
    entry up to 2^+-900, the other with one per vertex up to 2^+-400 (D W D)
    and edges between vertices of different units."""
    for trial in range(count):
        n = 2 * int(rng.integers(1, 6))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.4, 1.0), 1)
        if trial % 2:
            units = rng.integers(-900, 901, size=(n, n))
        else:
            t = rng.integers(-400, 401, size=n)
            units = t[:, None] + t
        a = np.ldexp(np.triu(rng.uniform(0.01, 3.0, size=(n, n)) * mask, 1), units)
        yield a + a.T


def weighted_inputs_at_extreme_units():
    rng = np.random.default_rng(2031)
    for _ in range(150):
        n = 2 * int(rng.integers(1, 5))
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.4, 1.0), 1)
        w = rng.random((n, n)) * np.exp2(rng.uniform(-60, 60, size=(n, n)))
        a = np.ldexp(np.triu(w * mask, 1), int(rng.integers(-900, 901)))
        a += a.T
        yield a
    yield from extreme_unit_inputs(np.random.default_rng(2033), 150)


def test_weighted_inputs_at_extreme_units_match_fractions():
    for a in weighted_inputs_at_extreme_units():
        exact = naive_hafnian(np.vectorize(Fraction, otypes=[object])(a))
        v = hafnian_exact(SymMatrix(a))
        if exact == 0:
            assert v.log_value == -math.inf and v.value_if_small == 0.0
        else:
            assert math.isclose(v.log_value, fraction_log(exact), rel_tol=1e-13)


def test_float_values_keep_their_bits_at_any_block_units():
    # D A D, D a power of two on each of up to three blocks of A: each state's
    # terms share one unit, so the DP sums the plain recursion's mantissas in
    # its order and the value keeps its bits at any block units
    rng = np.random.default_rng(2032)
    for trial in range(200):
        sizes = 2 * rng.integers(1, 3, size=int(rng.integers(1, 4)))
        units = rng.integers(-500, 501, size=sizes.size) if trial % 2 else np.zeros(sizes.size, dtype=np.int64)
        n = int(sizes.sum())
        t = np.repeat(units, sizes)
        w = np.triu(rng.uniform(0.01, 3.0, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.4, 1.0)), 1)
        w *= t[:, None] == t  # no entry between blocks
        w += w.T
        v = hafnian_exact(SymMatrix(np.ldexp(w, t[:, None] + t)))
        plain, shift = naive_hafnian(w), int(t.sum())
        if plain == 0 or sys.float_info.min_exp <= math.frexp(plain)[1] + shift <= sys.float_info.max_exp:
            assert v.value_if_small == math.ldexp(plain, shift)
        else:
            assert v.value_if_small is None
            assert math.isclose(v.log_value, math.log(plain) + shift * math.log(2.0), rel_tol=1e-15)


@pytest.mark.parametrize("n, seed", [(40, 1), (40, 2), (48, 3)])
def test_sparse_counts_match_memo_oracle(n, seed):
    g = random_regular_graph(n, 3, seed)
    count = count_perfect_matchings(g).value_if_small
    assert count == memo_matchings(n, g.edges) > 0


@pytest.mark.parametrize("n", [30, 40, 62])
def test_dense_supports_past_the_move_budget_are_refused_early(n):
    # K_30 makes 17.0 M moves, past the 2^23 budget part way through its
    # levels; K_40 and K_62 pass it sooner.  On a 2-vCPU VM the refusals
    # take 0.7-2.0 s and at most 92 MiB traced; the full DP on K_40 would
    # need several GB
    a = complete_graph(n).sym_matrix()
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(InputError, match=r"more than 8388608 DP moves at n=\d+$"):
            hafnian_exact(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - started < 5.0
    assert peak < 128 * 2**20


def test_all_zero_matrix_and_no_matching_graph():
    v = hafnian_exact(SymMatrix(np.zeros((6, 6))))
    assert v.log_value == -math.inf and v.value_if_small == 0.0
    star = GraphEdgeList.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    v = count_perfect_matchings(star)
    assert v.log_value == -math.inf


def test_input_errors():
    with pytest.raises(InputError):
        hafnian_exact(SymMatrix(np.zeros((3, 3))))  # odd
    with pytest.raises(InputError, match="DP moves"):
        hafnian_exact(complete_graph(30).sym_matrix())  # over the move budget
    with pytest.raises(InputError, match="int64 vertex masks"):
        hafnian_exact(complete_graph(64).sym_matrix())
    with pytest.raises(InputError):
        count_perfect_matchings(GraphEdgeList.from_pairs(3, [(0, 1)]))


def test_count_small_graphs():
    assert count_perfect_matchings(GraphEdgeList.from_pairs(2, [(0, 1)])).value_if_small == 1
    c6 = GraphEdgeList.from_pairs(6, [(i, (i + 1) % 6) for i in range(6)])
    assert count_perfect_matchings(c6).value_if_small == 2


def max_matching(g):
    """Partner of every vertex in a maximum matching of g, -1 where there is none."""
    return exact._max_matching(g.n, neighbour_sets(g))


def assert_perfect_matching(g, match):
    """``match`` gives every vertex of g a partner across an edge of g, symmetrically."""
    assert -1 not in match and len(match) == g.n
    edges = g.edges
    for v, u in enumerate(match):
        assert match[u] == v and (min(u, v), max(u, v)) in edges


def test_petersen_graph_has_six_matchings():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = GraphEdgeList.from_pairs(10, outer + inner + spokes)
    v = count_perfect_matchings(petersen)
    assert v.value_if_small == naive_hafnian(petersen.sym_matrix().entries)
    assert v.value_if_small == 6
    assert_perfect_matching(petersen, max_matching(petersen))


def test_matching_exists_basics():
    two = GraphEdgeList.from_pairs(4, [(0, 1), (2, 3)])
    assert max_matching(two) == [1, 0, 3, 2]
    assert -1 in max_matching(GraphEdgeList.from_pairs(4, [(0, 1), (0, 2), (0, 3)]))
    cx = build_counterexample(CounterexampleSpec(delta=0.1, n_center=5, m_pairs=2))
    assert_perfect_matching(cx, max_matching(cx))


def test_matching_exists_agrees_with_hafnian():
    rng = np.random.default_rng(26)
    for _ in range(120):
        n = int(rng.integers(1, 7)) * 2
        a01 = random_symmetric01(rng, n, p=float(rng.uniform(0.1, 0.6)))
        iu = np.triu_indices(n, 1)
        pairs = [(int(i), int(j)) for i, j in zip(*iu) if a01[i, j] > 0]
        g = GraphEdgeList.from_pairs(n, pairs)
        match = max_matching(g)
        count = hafnian_exact(SymMatrix(a01)).value_if_small
        assert (-1 not in match) == (count > 0)
        assert (support_blocks(SymMatrix(a01)) is None) == (count == 0)
        if -1 not in match:
            assert_perfect_matching(g, match)
    for a in extreme_unit_inputs(np.random.default_rng(2034), 120):
        assert (hafnian_exact(SymMatrix(a)).log_value > -math.inf) == (support_blocks(SymMatrix(a)) is not None)


def test_matching_exists_needs_blossom_contraction():
    # two triangles joined by a bridge: PM exists only through the bridge,
    # found only after shrinking an odd cycle
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
    g = GraphEdgeList.from_pairs(6, edges)
    assert_perfect_matching(g, max_matching(g))
    count = count_perfect_matchings(g).value_if_small
    assert count > 0


def test_matching_exists_nested_odd_cycles():
    # pentagon with a pendant: augmenting from the pendant forces a blossom
    pentagon = GraphEdgeList.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    assert_perfect_matching(pentagon, max_matching(pentagon))
    # two pentagons sharing structure via a path; PM exists only one way
    edges = (
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        + [(5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
        + [(0, 5)]
    )
    bridged = GraphEdgeList.from_pairs(10, edges)
    assert_perfect_matching(bridged, max_matching(bridged))
    # withdraw the bridge: two odd components, no perfect matching
    assert -1 in max_matching(GraphEdgeList.from_pairs(10, edges[:-1]))


def test_hafnian_dp_vs_naive_at_n12():
    rng = np.random.default_rng(29)
    a = random_symmetric01(rng, 12, p=0.45) * (0.5 + rng.random((12, 12)))
    a = np.triu(a, 1)
    a += a.T
    ours = hafnian_exact(SymMatrix(a))
    ref = naive_hafnian(a)  # 10395 pairings
    assert math.isclose(math.exp(ours.log_value), ref, rel_tol=1e-10)


def test_matching_exists_scales_to_thousands():
    rng = np.random.default_rng(27)
    n = 2000
    edges = random_graph_with_matching(rng, n, extra_p=0.002)
    g = GraphEdgeList.from_pairs(n, edges)
    assert_perfect_matching(g, max_matching(g))


def test_support_blocks_scales_to_thousands():
    # from an empty matching, each of 500 augmenting searches contracts
    # blossoms: K_1000 took 7.1 s on a 2-vCPU VM, against 0.24 s from a greedy start
    n = 1000
    a = SymMatrix(np.ones((n, n)) - np.eye(n))
    start = time.perf_counter()
    blocks = support_blocks(a)
    assert time.perf_counter() - start < 3.0
    assert blocks == [(list(range(n)), list(range(n)), 1)]


def kept_edges(g, blocks):
    """Edges of ``g`` inside a block: rows to columns, either way round."""
    pairs = {(i, k) for rows, cols, _ in blocks for i in rows for k in cols}
    return {(u, v) for u, v in g.edges if (u, v) in pairs or (v, u) in pairs}


def assert_total_support_matches_oracle(g, cover=None):
    """Blocks of the total support against both oracles; returns the kept edges.

    The blocks are ``support_blocks``' without a cover, else ``_blocks``' from it.
    """
    blocks = support_blocks(g.sym_matrix()) if cover is None else exact._blocks(neighbour_sets(g), cover)
    assert blocks == brute_blocks(g.n, g.edges)
    kept = kept_edges(g, blocks)
    assert kept == brute_total_support(g.n, g.edges)
    return kept


def test_perfect_matching_is_a_matching_or_none():
    g = GraphEdgeList.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    match = max_matching(g)
    assert match == [1, 0, 3, 2, 5, 4]
    assert -1 in max_matching(GraphEdgeList.from_pairs(4, [(0, 1), (0, 2), (0, 3)]))


def test_total_support_matches_oracle_on_random_supports():
    rng = np.random.default_rng(4401)
    pruned = 0
    for _ in range(30):
        n = int(rng.choice([4, 6, 8, 10]))
        g = GraphEdgeList.from_pairs(n, random_graph_with_matching(rng, n, float(rng.uniform(0.05, 0.5))))
        pruned += assert_total_support_matches_oracle(g) != g.edges
    assert pruned >= 5  # the draws exercise edges on no cycle cover


def test_total_support_from_any_cycle_cover_matches_oracle():
    # the cover is a random derangement, so mostly not a matching
    rng = np.random.default_rng(4404)
    for _ in range(30):
        n = int(rng.choice([3, 5, 6, 7, 9, 10]))
        cover = [int(v) for v in rng.permutation(n)]
        while any(cover[i] == i for i in range(n)):
            cover = [int(v) for v in rng.permutation(n)]
        edges = {(i, cover[i]) for i in range(n)}
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15}
        assert_total_support_matches_oracle(GraphEdgeList.from_pairs(n, edges), cover)
    # two disjoint triangles: a cover of two 3-cycles but no perfect matching
    triangles = GraphEdgeList.from_pairs(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert support_blocks(triangles.sym_matrix()) is None
    assert_total_support_matches_oracle(triangles, [1, 2, 0, 4, 5, 3])
    assert exact._blocks(neighbour_sets(triangles), [1, 2, 0, 4, 5, 3]) == [
        ([0, 1, 2], [0, 1, 2], 1),
        ([3, 4, 5], [3, 4, 5], 1),
    ]


def other_perfect_matching(rng, g):
    """A perfect matching of g found after a random relabelling, mapped back."""
    perm = [int(v) for v in rng.permutation(g.n)]
    inv = np.argsort(perm)
    match = max_matching(GraphEdgeList.from_pairs(g.n, {(perm[u], perm[v]) for u, v in g.edges}))
    return [int(inv[match[perm[u]]]) for u in range(g.n)]


def test_total_support_blocks_do_not_depend_on_the_matching():
    rng = np.random.default_rng(4405)
    cases = [build_counterexample(CounterexampleSpec(delta=0.12, n_center=nc)) for nc in (4, 10)]
    while len(cases) < 42:
        n = int(rng.choice([6, 8, 10, 12, 16]))
        cases.append(GraphEdgeList.from_pairs(n, random_graph_with_matching(rng, n, float(rng.uniform(0.1, 0.5)))))
    differ = 0
    for g in cases:
        first, second = max_matching(g), other_perfect_matching(rng, g)
        assert_perfect_matching(g, second)
        differ += first != second
        adj = neighbour_sets(g)
        assert exact._blocks(adj, second) == exact._blocks(adj, first)
    assert differ >= 20


def test_total_support_keeps_the_bridge_between_two_triangles():
    # haf = 1 and only 3 of the 7 edges lie in a perfect matching, but every
    # edge lies on a cycle cover: the two triangles, or the matching
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    g = GraphEdgeList.from_pairs(6, edges)
    assert assert_total_support_matches_oracle(g) == g.edges
    # any cycle cover serves as the start, here the two 3-cycles
    assert assert_total_support_matches_oracle(g, [1, 2, 0, 4, 5, 3]) == g.edges


def test_total_support_of_complete_graphs_and_matchings():
    for n in (2, 4, 6, 8, 10):
        k_n = complete_graph(n)
        assert assert_total_support_matches_oracle(k_n) == k_n.edges
        matching = GraphEdgeList.from_pairs(n, [(2 * t, 2 * t + 1) for t in range(n // 2)])
        assert assert_total_support_matches_oracle(matching) == matching.edges


def test_total_support_of_the_counterexample_is_center_plain_and_pairs():
    for n, m in ((3, 1), (4, 1), (10, 1), (24, 1), (12, 3)):
        g = build_counterexample(CounterexampleSpec(delta=0.12, n_center=n, m_pairs=m))
        want = [(list(range(n)), list(range(n, 2 * n)), 2)]
        want += [([2 * n + 2 * t], [2 * n + 2 * t + 1], 2) for t in range(m)]
        if g.n <= 10:
            assert_total_support_matches_oracle(g)
        assert support_blocks(g.sym_matrix()) == want
