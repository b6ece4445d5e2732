import itertools
import math

import numpy as np
import pytest

from hafkit import (
    CounterexampleSpec,
    GraphEdgeList,
    InputError,
    SymMatrix,
    boundary,
    build_counterexample,
    check_strong_expansion,
    check_theorem_hypotheses,
    check_weak_expansion,
    complete_graph,
    connected_components_within,
    large_entries_graph,
    min_degree,
    random_regular_graph,
    scale_symmetric,
)

from hafkit import graphs
from hafkit.graphs import _adversarial_candidates

from helpers import (
    _brute_boundary,
    _brute_components,
    brute_expansion,
    expansion_scan,
    neighbour_sets,
    random_symmetric01,
)


def random_graph(rng, n, p):
    a = random_symmetric01(rng, n, p)
    iu = np.triu_indices(n, 1)
    return GraphEdgeList.from_pairs(
        n, [(int(i), int(j)) for i, j in zip(*iu) if a[i, j] > 0]
    )


def test_graph_edge_list_validation():
    with pytest.raises(InputError, match="self-loop at vertex 0"):
        GraphEdgeList.from_pairs(3, [(0, 0)])
    with pytest.raises(InputError, match=r"edge \(0, 5\) out of range for n=3"):
        GraphEdgeList.from_pairs(3, [(0, 5)])
    with pytest.raises(InputError, match=r"edge \(-1, 2\) out of range"):
        GraphEdgeList.from_pairs(3, np.array([[1, 2], [-1, 2]]))
    for n in (0, -4):
        with pytest.raises(InputError, match="at least one vertex"):
            GraphEdgeList.from_pairs(n, [])
    g = GraphEdgeList.from_pairs(3, [(1, 0), (0, 1)])  # normalized + deduped
    assert g.edges == frozenset({(0, 1)})
    assert g.indptr.tolist() == [0, 1, 2, 2] and g.indices.tolist() == [1, 0]
    assert g.degrees().tolist() == [1, 1, 0]


def test_csr_rows_are_sorted_and_symmetric():
    rng = np.random.default_rng(80)
    for t in range(40):
        n = int(rng.integers(1, 70))
        a = random_symmetric01(rng, n, float(rng.uniform(0.0, 0.7)))
        graphs = [random_graph(rng, n, float(rng.uniform(0.0, 0.7))), large_entries_graph(SymMatrix(a), 0.0)]
        for g in graphs:
            assert g.indptr[0] == 0 and g.indptr[-1] == g.indices.size and np.all(np.diff(g.indptr) >= 0)
            rows = [g.indices[g.indptr[v]:g.indptr[v + 1]] for v in range(n)]
            assert all(np.all(np.diff(r) > 0) for r in rows)
            assert all(v not in r for v, r in enumerate(rows))
            assert [set(r.tolist()) for r in rows] == neighbour_sets(g)
        assert graphs[1].edges == {(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] > 0}
        # graphs compare and hash by value, whichever way they were built
        same = GraphEdgeList.from_pairs(n, np.argwhere(np.triu(a) > 0)[::-1])
        assert same == graphs[1] and hash(same) == hash(graphs[1]) and (same != graphs[1]) is False
        assert graphs[1] != GraphEdgeList.from_pairs(n + 1, np.argwhere(np.triu(a) > 0))
        with pytest.raises(ValueError):
            g.indices[:1] = 0


def test_large_entries_graph_of_k2000_stays_small():
    # a frozenset of the 2M edge tuples of K_2000 takes 559 MiB to build
    import tracemalloc

    n = 2000
    a = SymMatrix(np.ones((n, n)) - np.eye(n))
    tracemalloc.start()
    try:
        g = large_entries_graph(a, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert np.all(g.degrees() == n - 1) and g.indices[:3].tolist() == [1, 2, 3]


def test_large_entries_graph_threshold():
    a = complete_graph(5).sym_matrix()
    assert large_entries_graph(a, 0.0).edges == complete_graph(5).edges
    assert large_entries_graph(a, 1.0).edges == frozenset()  # strict: 1 > 1 is false
    res = scale_symmetric(complete_graph(6).sym_matrix(), residual_target=1e-12)
    g = large_entries_graph(res.b, 6.0 ** (-2.0))
    assert g.edges == complete_graph(6).edges  # all entries 1/5 > 1/36


def test_boundary_basics():
    k4 = complete_graph(4)
    assert boundary(k4, {0}) == frozenset({1, 2, 3})
    assert boundary(k4, {0, 1, 2, 3}) == frozenset()
    assert boundary(k4, set()) == frozenset()
    with pytest.raises(InputError):
        boundary(k4, {9})


def test_boundary_of_peripheral_pair_is_center():
    spec = CounterexampleSpec(delta=0.1, n_center=5, m_pairs=2)
    g = build_counterexample(spec)
    n = spec.n_center
    pair = {2 * n, 2 * n + 1}
    assert boundary(g, pair) == frozenset(range(n))


def test_connected_components_within():
    k5 = complete_graph(5)
    assert connected_components_within(k5, {0, 2, 4}) == 1
    g = GraphEdgeList.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    assert connected_components_within(g, {0, 2, 4}) == 3
    spec = CounterexampleSpec(delta=0.1, n_center=4, m_pairs=3)
    cx = build_counterexample(spec)
    pairs = set()
    for t in range(3):
        pairs |= {8 + 2 * t, 8 + 2 * t + 1}
    assert connected_components_within(cx, pairs) == 3


def test_min_degree():
    assert min_degree(complete_graph(5)) == 4
    assert min_degree(GraphEdgeList.from_pairs(4, [(0, 1)])) == 0
    # plain peripherals see only the center, so the minimum degree is n_center
    spec = CounterexampleSpec(delta=0.1, n_center=6, m_pairs=2)
    assert min_degree(build_counterexample(spec)) == 6


def test_strong_expansion_complete_graph_closed_form():
    n = 10
    kappa = 0.5
    level = (n - 1) // 2
    rep = check_strong_expansion(complete_graph(n), kappa, level)
    assert rep.holds
    # closed form: boundary is everything else, one component
    for size in range(1, level + 1):
        assert (n - size) - 1 >= kappa * size


def test_strong_expansion_matching_only_fails_with_witness():
    g = GraphEdgeList.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
    rep = check_strong_expansion(g, kappa=0.1, level=2)
    assert not rep.holds
    assert rep.witness is not None
    js = set(rep.witness)
    deficit = len(boundary(g, js)) - connected_components_within(g, js) - rep.kappa * len(js)
    assert deficit < 0


def test_exhaustive_agrees_with_bruteforce_on_random_graphs():
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.8)))
        kappa = float(rng.uniform(0.05, 0.9))
        level = int(rng.integers(1, n))
        ours = check_strong_expansion(g, kappa, level)
        ref_holds, _ = brute_expansion(n, g.edges, kappa, level)
        assert ours.holds == ref_holds
        if not ours.holds:
            js = set(ours.witness)
            assert len(js) <= level
            lhs = len(boundary(g, js)) - connected_components_within(g, js)
            assert lhs < kappa * len(js)


def test_sampled_never_accepts_when_exhaustive_rejects():
    rng = np.random.default_rng(72)
    for _ in range(40):
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.7)))
        kappa = float(rng.uniform(0.05, 0.9))
        level = max(1, n // 2)
        ex = check_strong_expansion(g, kappa, level)
        sampled = check_strong_expansion(g, kappa, level, mode="sampled", budget=2**n, seed=5)
        if not ex.holds:
            assert not sampled.holds


def test_edge_addition_preserves_expansion():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(5, 10))
        g = random_graph(rng, n, 0.5)
        kappa, level = 0.3, n // 2
        before = check_strong_expansion(g, kappa, level)
        if not before.holds:
            continue
        edges = g.edges
        non_edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if (i, j) not in edges]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(0, len(non_edges)))]
        g2 = GraphEdgeList.from_pairs(n, set(g.edges) | {extra})
        assert check_strong_expansion(g2, kappa, level).holds


def test_component_count_bounds():
    rng = np.random.default_rng(74)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, 0.4)
        k = int(rng.integers(1, n + 1))
        js = set(rng.choice(n, size=k, replace=False).tolist())
        assert boundary(g, js).isdisjoint(js)
        comp = connected_components_within(g, js)
        assert comp <= len(js)
        induced_edges = [(u, v) for u, v in g.edges if u in js and v in js]
        if comp == len(js):
            assert not induced_edges
        if not induced_edges:
            assert comp == len(js)


def test_weak_expansion_basics():
    rep = check_weak_expansion(complete_graph(10), kappa=0.5, delta=0.3)
    assert rep.holds and rep.level == 5
    empty = GraphEdgeList.from_pairs(6, [])
    rep = check_weak_expansion(empty, kappa=0.1, delta=0.2)
    assert not rep.holds
    assert len(rep.witness) == 1  # any single vertex already violates
    with pytest.raises(InputError):
        check_weak_expansion(complete_graph(6), kappa=0.1, delta=1.5)


def test_zero_weak_deficit_holds_exactly():
    # J = {0}: 1 - (1 - 0.1) * 1 - 0.1 * 1 is exactly 0, -2.8e-17 in float64;
    # J = {0, 1} is the first subset that violates: 1 - 0.9 - 0.2 < 0
    path = GraphEdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    rep = assert_scan_matches_reference(path, 0.1, 2, delta=0.1)
    assert (rep.holds, rep.witness, rep.sets_checked) == (False, (0, 1), 5)
    # the same tie with kappa = delta = 1e-300, decided in Python ints
    rep = assert_scan_matches_reference(path, 1e-300, 2, delta=1e-300)
    assert (rep.holds, rep.witness, rep.sets_checked) == (False, (0, 1), 5)


def test_zero_strong_deficit_at_25_vertices_holds_exactly():
    # J = N(0) = the clique 1..25 has boundary {0, 26, ..., 32} and one
    # component: 8 - 1 - 0.28 * 25 is exactly 0, while 0.28 * 25 rounds to
    # 7.000000000000001 in float64
    clique = list(itertools.combinations(range(1, 26), 2))
    pendants = [(26 + t, 1 + 2 * t) for t in range(7)] + [(26 + t, 2 + 2 * t) for t in range(7)]
    g = GraphEdgeList.from_pairs(33, [(0, v) for v in range(1, 26)] + clique + pendants)
    assert len(boundary(g, range(1, 26))) == 8 and 0.28 * 25 > 7
    candidates = list(_adversarial_candidates(g, 25))
    for kappa, want in ((0.28, (True, None, 249)), (0.2800001, (False, tuple(range(1, 26)), 223))):
        rep = check_strong_expansion(g, kappa, 25, mode="sampled", budget=0)
        assert (rep.holds, rep.witness, rep.sets_checked) == want
        assert expansion_scan(g.n, g.edges, kappa, 25, subsets=candidates) == want


def test_expansion_input_errors():
    g = complete_graph(6)
    with pytest.raises(InputError):
        check_strong_expansion(g, 0.1, level=6)  # level >= n
    with pytest.raises(InputError):
        check_strong_expansion(g, 0.1, level=0)
    with pytest.raises(InputError):
        check_strong_expansion(complete_graph(30), 0.1, level=15, budget=1000)
    with pytest.raises(InputError):
        check_strong_expansion(g, 0.1, level=2, mode="guess")
    with pytest.raises(InputError):
        check_strong_expansion(g, math.inf, level=2)
    for mode in ("exhaustive", "sampled"):  # before any scan, in every mode
        with pytest.raises(InputError, match="seed must fit"):
            check_strong_expansion(g, 0.1, level=2, mode=mode, seed=-1)
        with pytest.raises(InputError, match="budget must be >= 0"):
            check_strong_expansion(g, 0.1, level=2, mode=mode, budget=-1)
    with pytest.raises(InputError, match="seed must fit"):
        check_weak_expansion(g, 0.1, 0.2, mode="sampled", seed=2**64)
    with pytest.raises(InputError, match="seed must fit"):
        check_theorem_hypotheses(g.sym_matrix(), 0.5, 0.25, 2.0, 0.5, seed=-1)
    assert check_strong_expansion(g, 0.1, level=2, mode="sampled", budget=0).holds
    for bad in range(4):  # alpha, kappa, beta, theta
        params = [0.5, 0.25, 2.0, 0.5]
        params[bad] = math.nan
        with pytest.raises(InputError, match="must be finite"):
            check_theorem_hypotheses(g.sym_matrix(), *params)


@pytest.mark.parametrize("bad", [{"budget": -1}, {"seed": -1}, {"mode": "nope"}], ids=["budget", "seed", "mode"])
def test_hypotheses_check_expansion_arguments_before_scaling(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("hypotheses did work before checking its expansion arguments")

    monkeypatch.setattr(graphs._scaling, "scale_symmetric", refuse)
    monkeypatch.setattr(graphs, "large_entries_graph", refuse)
    for scale in (True, False):
        with pytest.raises(InputError):
            check_theorem_hypotheses(complete_graph(600).sym_matrix(), 0.5, 0.25, 2.0, 0.5, scale=scale, **bad)


def test_hypotheses_scaled_complete_graph_all_pass():
    a = complete_graph(16).sym_matrix()
    rep = check_theorem_hypotheses(
        a, alpha=0.5, kappa=0.25, beta=2.0, theta=0.5, scale=True, mode="exhaustive",
        budget=200_000,
    )
    assert rep.level == 7
    assert rep.conditions.min_degree.ok and rep.conditions.min_degree.observed == 15
    assert rep.conditions.strong_expansion.holds
    assert rep.conditions.max_entry.ok  # 1/15 <= 16^-0.5 = 0.25
    assert rep.all_ok


def test_hypotheses_matching_only_fails_expansion():
    a = np.zeros((8, 8))
    for t in range(4):
        a[2 * t, 2 * t + 1] = a[2 * t + 1, 2 * t] = 1.0
    rep = check_theorem_hypotheses(SymMatrix(a), alpha=0.1, kappa=0.2, beta=2.0, theta=0.1)
    assert not rep.conditions.strong_expansion.holds
    assert rep.conditions.strong_expansion.witness is not None
    assert not rep.all_ok


def test_hypotheses_counterexample_misses_strong_expansion():
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    a = build_counterexample(spec).sym_matrix()
    rep = check_theorem_hypotheses(
        a, alpha=0.4, kappa=0.1, beta=2.0, theta=0.3, scale=True, mode="sampled", budget=500
    )
    assert rep.conditions.min_degree.ok  # degree >= 24 >= 0.4*50 + 2
    assert not rep.conditions.strong_expansion.holds  # peripherals form a big weakly-connected set
    js = set(rep.conditions.strong_expansion.witness)
    g = large_entries_graph(
        scale_symmetric(a).b, spec.total_vertices ** (-2.0)
    )
    lhs = len(boundary(g, js)) - connected_components_within(g, js)
    assert lhs < rep.conditions.strong_expansion.kappa * len(js)
    assert not rep.all_ok


def assert_scan_matches_reference(g, kappa, level, delta=None):
    if delta is None:
        rep = check_strong_expansion(g, kappa, level)
    else:
        rep = check_weak_expansion(g, kappa, delta, level=level)
    want = expansion_scan(g.n, g.edges, kappa, level, 0.0 if delta is None else delta)
    assert (rep.holds, rep.witness, rep.sets_checked) == want
    return rep


def test_chunked_scan_matches_subset_scan_on_random_graphs():
    rng = np.random.default_rng(75)
    violations = 0
    for _ in range(36):
        n = int(rng.integers(5, 19))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.85)))
        kappa = float(rng.uniform(0.05, 1.5))
        level = int(rng.integers(1, min(n, 6)))
        rep = assert_scan_matches_reference(g, kappa, level)
        assert_scan_matches_reference(g, kappa, level, delta=float(rng.uniform(0.05, 0.95)))
        violations += not rep.holds
        # a sampled budget that covers every subset buys the same scan
        full = sum(math.comb(n, k) for k in range(1, level + 1))
        sampled = check_strong_expansion(g, kappa, level, mode="sampled", budget=full)
        assert (sampled.holds, sampled.witness, sampled.sets_checked) == (
            rep.holds, rep.witness, rep.sets_checked)
    assert 5 <= violations <= 31  # both verdicts are exercised


@pytest.mark.parametrize("seed", [0, 2])
def test_chunked_scan_matches_subset_scan_deep_in_the_scan(seed):
    # 5-regular n=16 up to level 8: holds at kappa 0.5 after all 39202
    # subsets, and first fails at levels 5-7, many chunks in, at larger kappa
    g = random_regular_graph(16, 5, seed=seed)
    for kappa in (0.5, 0.75, 1.25):
        assert_scan_matches_reference(g, kappa, 8)
        assert_scan_matches_reference(g, kappa, 8, delta=0.2)


def planted_pair_graph(n, u, v):
    """K_n in which u and v see only each other and two other vertices.

    At kappa = 1 and level 2, {u, v} is the only violating set (boundary 2,
    one component), for both the strong and the weak inequality.
    """
    others = [w for w in range(n) if w not in (u, v)]
    keep = set(others[-2:]) | {u, v}
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if not ({i, j} & {u, v}) or {i, j} <= keep]
    return GraphEdgeList.from_pairs(n, pairs)


@pytest.mark.parametrize("n,index", [
    (48, 500),  # middle of the first chunk of pairs
    (48, 1023),  # last row of a chunk
    (48, 1024),  # first row of the next chunk
    (70, 2047),  # n past any int64 mask, on a chunk boundary
    (70, 2414),  # the very last pair
    (64, 2015),  # (62, 63): the last two bits of the one word
    (65, 2079),  # (63, 64): the pair straddles the first two words
    (129, 6174),  # (63, 127): the last bits of words 0 and 1, with a third word
])
def test_chunked_scan_finds_planted_violation(n, index):
    u, v = list(itertools.combinations(range(n), 2))[index]
    g = planted_pair_graph(n, u, v)
    for delta in (None, 0.3):
        rep = assert_scan_matches_reference(g, 1.0, 2, delta)
        assert rep.witness == (u, v)
        assert rep.sets_checked == n + index + 1


def test_chunked_scan_violation_in_first_subset():
    g = GraphEdgeList.from_pairs(8, [(i, j) for i, j in itertools.combinations(range(1, 8), 2)])
    for delta in (None, 0.5):
        rep = assert_scan_matches_reference(g, 0.5, 3, delta)
        assert rep.witness == (0,) and rep.sets_checked == 1


def test_chunked_scan_n70_random_graphs():
    rng = np.random.default_rng(76)
    for p in (0.05, 0.2, 0.6):
        g = random_graph(rng, 70, p)
        for kappa in (0.5, 3.0):
            assert_scan_matches_reference(g, kappa, 2)
            assert_scan_matches_reference(g, kappa, 2, delta=0.4)


def sampled_reference(g, kappa, level, budget, seed, delta):
    """Reference scan of the adversarial candidates, then the seeded draws.

    Returns ``((holds, witness, sets_checked), number of candidates)``.
    """
    candidates = list(_adversarial_candidates(g, level))
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(budget):
        k = int(rng.integers(1, level + 1))
        draws.append(rng.choice(g.n, size=k, replace=False).tolist())
    want = expansion_scan(g.n, g.edges, kappa, level, delta, candidates + draws)
    return want, len(candidates)


def assert_sampled_matches_reference(g, kappa, level, budget, seed, delta=None):
    assert sum(math.comb(g.n, k) for k in range(1, level + 1)) > budget
    if delta is None:
        rep = check_strong_expansion(g, kappa, level, mode="sampled", budget=budget, seed=seed)
    else:
        rep = check_weak_expansion(g, kappa, delta, mode="sampled", budget=budget, seed=seed,
                                   level=level)
    want, candidates = sampled_reference(g, kappa, level, budget, seed, delta or 0.0)
    assert (rep.holds, rep.witness, rep.sets_checked) == want
    return rep, candidates


def test_sampled_mode_matches_reference_scan_on_random_graphs():
    rng = np.random.default_rng(77)
    seen = set()
    for t in range(36):
        n = int(rng.integers(12, 61))
        if t % 4 == 0:
            g = random_regular_graph(n - n % 2, 3, seed=t)
        else:
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        level = int(rng.integers(3, 11))
        kappa = float(rng.uniform(0.2, 3.0))
        budget = int(rng.integers(50, 1500))
        seed = int(rng.integers(0, 1000))
        for delta in (None, float(rng.uniform(0.05, 0.9))):
            rep, candidates = assert_sampled_matches_reference(g, kappa, level, budget, seed, delta)
            if rep.holds:
                assert rep.sets_checked == candidates + budget
            seen.add("holds" if rep.holds else
                     "candidate" if rep.sets_checked <= candidates else "draw")
    assert seen == {"holds", "candidate", "draw"}


def test_sampled_mode_violation_among_candidates():
    cx = build_counterexample(CounterexampleSpec(delta=0.12, n_center=24))
    rep, candidates = assert_sampled_matches_reference(cx, 0.5, 25, 2000, 7, delta=0.3)
    assert not rep.holds and rep.sets_checked <= candidates


def test_sampled_mode_violation_among_draws_past_first_chunk():
    # 3-regular n=60: no candidate violates, the first violating draw is row 2001
    g = random_regular_graph(60, 3, seed=4)
    rep, candidates = assert_sampled_matches_reference(g, 0.9, 12, 3000, 1)
    assert not rep.holds and rep.sets_checked > max(candidates, 1024)


def test_sampled_mode_holding_counts_candidates_and_budget():
    g = random_regular_graph(40, 4, seed=3)
    for delta in (None, 0.3):
        rep, candidates = assert_sampled_matches_reference(g, 0.3, 6, 1500, 11, delta)
        assert rep.holds and rep.sets_checked == candidates + 1500


def test_public_helpers_match_bruteforce():
    rng = np.random.default_rng(78)
    for t in range(64):
        # past the first 60 draws, graphs of two and three 64-bit words
        n = int(rng.integers(1, 40)) if t < 60 else (65, 129)[t % 2]
        g = random_graph(rng, n, float(rng.uniform(0.0, 0.6)))
        adj = neighbour_sets(g)
        k = 0 if t % 10 == 0 else int(rng.integers(0, n + 1))
        js = set(rng.choice(n, size=k, replace=False).tolist())
        assert boundary(g, js) == frozenset(_brute_boundary(adj, js))
        assert connected_components_within(g, js) == _brute_components(adj, js)
        for bad in (-1, n, n + 3):
            with pytest.raises(InputError):
                boundary(g, js | {bad})
            with pytest.raises(InputError):
                connected_components_within(g, js | {bad})


@pytest.mark.parametrize("entries", [1, 40, 300])
def test_small_chunks_give_the_same_verdicts(monkeypatch, entries):
    # chunks of 1 row, and of a few rows that split the scans unevenly
    import hafkit.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "_ENTRIES", entries)
    rng = np.random.default_rng(79)
    for t in range(6):
        g = random_graph(rng, int(rng.integers(10, 30)), float(rng.uniform(0.1, 0.5)))
        kappa = float(rng.uniform(0.2, 2.0))
        assert_scan_matches_reference(g, kappa, 3)
        assert_scan_matches_reference(g, kappa, 3, delta=0.4)
        assert_sampled_matches_reference(g, kappa, 6, 300, t)
        assert_sampled_matches_reference(g, kappa, 6, 300, t, delta=0.4)


def test_large_sparse_graph_checks_in_linear_memory():
    # a dense n x n float64 adjacency matrix alone would take 72 MB here
    import tracemalloc

    g = random_regular_graph(3000, 3, seed=5)
    js = set(range(0, 3000, 7))
    tracemalloc.start()
    try:
        sampled = check_strong_expansion(g, 0.5, 10, mode="sampled", budget=2000, seed=0)
        complete = check_weak_expansion(g, 0.5, 0.3, mode="exhaustive", level=1)
        bnd = boundary(g, js)
        con = connected_components_within(g, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert sampled.holds and sampled.sets_checked > 2000
    assert complete.holds and complete.sets_checked == 3000
    adj = neighbour_sets(g)
    assert bnd == frozenset(_brute_boundary(adj, js))
    assert con == _brute_components(adj, js)


def test_sampled_check_at_n_50000_stays_linear_in_memory():
    # n/64 words per vertex would take 312 MB here; the n = 3000 check above
    # cannot tell that from O(n + m)
    import tracemalloc

    g = random_regular_graph(50_000, 3, seed=5)
    tracemalloc.start()
    try:
        rep = check_strong_expansion(g, 0.5, 10, mode="sampled", budget=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert rep.holds and rep.sets_checked > 2000


def test_components_of_a_long_path():
    # labels must cross 20,000 members; a path split at one vertex has two parts
    n = 20000
    g = GraphEdgeList.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    assert connected_components_within(g, range(n)) == 1
    assert connected_components_within(g, set(range(n)) - {n // 3}) == 2
    assert boundary(g, range(1, n - 1)) == frozenset({0, n - 1})


def test_sampled_check_at_the_default_level_on_a_large_graph():
    # the subset count stops at the budget; the verdicts are those of the
    # full count (default level n // 2 = 1000)
    g = random_regular_graph(2000, 3, seed=1)
    holds = check_weak_expansion(g, 0.6, 0.2, mode="sampled", budget=2000, seed=4)
    assert (holds.level, holds.holds, holds.witness, holds.sets_checked) == (1000, True, None, 7519)
    fails = check_weak_expansion(g, 0.9, 0.2, mode="sampled", budget=2000, seed=4)
    assert (fails.holds, fails.sets_checked) == (False, 5521)
    assert (len(fails.witness), sum(fails.witness), fails.witness[:3]) == (936, 947405, (0, 3, 4))
    # an exhaustive refusal still names the full count
    with pytest.raises(InputError, match="exhaustive check needs 4525 subsets, over budget 100"):
        check_weak_expansion(random_regular_graph(30, 3, seed=1), 0.1, 0.2, budget=100, level=3)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_exhaustive_refusal_names_the_full_count(n):
    # every subset of size 1..n/2, once: (2^n + C(n, n/2)) / 2 - 1
    total = (2**n + math.comb(n, n // 2)) // 2 - 1
    cycle = GraphEdgeList.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(InputError, match=f"exhaustive check needs {total} subsets, over budget 5$"):
        check_weak_expansion(cycle, 0.1, 0.2, budget=5)

