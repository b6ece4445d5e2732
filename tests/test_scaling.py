import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from hafkit import (
    InputError,
    ScalingAudit,
    SymMatrix,
    audit_entry_bounds,
    complete_graph,
    hafnian_exact,
    random_regular_graph,
    scale_symmetric,
)

from helpers import brute_total_support, has_permutation, reference_scaling, scalable_graph


def adjacency(edges, n):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return SymMatrix(a)


def test_two_by_two():
    res = scale_symmetric(SymMatrix([[0, 2], [2, 0]]))
    assert res.converged
    assert np.allclose(res.b.entries, [[0, 1], [1, 0]])
    assert np.allclose(res.d, [1 / math.sqrt(2)] * 2)


def test_scaling_result_freezes_a_copy():
    res = scale_symmetric(SymMatrix([[0, 2], [2, 0]]))
    d = np.array(res.d)
    assert not dataclasses.replace(res, d=d).d.flags.writeable
    assert d.flags.writeable


@pytest.mark.parametrize("n,d", [(8, 3), (10, 3), (8, 4), (12, 6)])
def test_regular_graphs_scale_to_a_over_d(n, d):
    g = random_regular_graph(n, d, seed=n * 100 + d)
    a = g.sym_matrix()
    res = scale_symmetric(a, residual_target=1e-10)
    assert res.converged
    assert res.iterations <= 2  # uniform start is already the fixed point
    assert res.residual <= 1e-10
    assert np.allclose(res.b.entries, a.entries / d, atol=1e-12)
    assert abs(res.max_entry - 1.0 / d) <= 1e-12
    assert np.allclose(res.d, 1.0 / math.sqrt(d), atol=1e-12)


def test_b_is_exactly_d_a_d_and_symmetric():
    rng = np.random.default_rng(41)
    n = 10
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = rng.random(iu[0].size) + 0.01
    a += a.T
    res = scale_symmetric(SymMatrix(a), residual_target=1e-12, max_iterations=100_000)
    assert res.converged
    b = res.b.entries
    assert np.array_equal(b, b.T)
    ref = np.outer(res.d, res.d) * a
    assert np.allclose(b, ref, rtol=1e-12, atol=0)
    rows = b.sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) <= res.residual + 1e-15


def test_unmatchable_support_does_not_converge():
    star = adjacency([(0, 1), (0, 2), (0, 3)], 4)
    res = scale_symmetric(star, max_iterations=500)
    assert not res.converged
    assert np.all(np.isfinite(res.b.entries))
    assert np.all(np.isfinite(res.d))


def test_zero_row_rejected():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    with pytest.raises(InputError):
        scale_symmetric(SymMatrix(a))


def test_unique_limit_from_different_starts():
    rng = np.random.default_rng(43)
    n = 8
    edges = scalable_graph(rng, n, extra_p=0.4)
    a = adjacency(edges, n)
    res1 = scale_symmetric(a, residual_target=1e-12, max_iterations=200_000)
    d0 = rng.uniform(0.2, 5.0, size=n)
    d2, _, _, converged2 = reference_scaling(a.entries, 1e-12, 200_000, d0)
    assert res1.converged and converged2
    assert np.allclose(res1.b.entries, np.outer(d2, d2) * a.entries, atol=1e-6)
    # d itself carries a gauge freedom on bipartite supports; its product is invariant
    assert math.isclose(float(np.prod(res1.d)), float(np.prod(d2)), rel_tol=1e-4)


def test_hafnian_compatible_with_scaling():
    rng = np.random.default_rng(44)
    for _ in range(5):
        n = int(rng.integers(2, 6)) * 2
        edges = scalable_graph(rng, n, extra_p=0.5)
        a = adjacency(edges, n)
        res = scale_symmetric(a, residual_target=1e-13, max_iterations=300_000)
        assert res.converged
        log_haf_a = hafnian_exact(a).log_value
        log_haf_b = hafnian_exact(res.b).log_value
        assert math.isclose(log_haf_a, log_haf_b - float(np.sum(np.log(res.d))), abs_tol=1e-9)


def test_converged_spectrum_in_unit_interval():
    rng = np.random.default_rng(45)
    n = 12
    edges = scalable_graph(rng, n, extra_p=0.5)
    res = scale_symmetric(adjacency(edges, n), residual_target=1e-12, max_iterations=100_000)
    eig = np.linalg.eigvalsh(res.b.entries)
    assert np.all(eig <= 1.0 + 1e-8)
    assert np.all(eig >= -1.0 - 1e-8)


def test_audit_bounds():
    n = 8
    res = scale_symmetric(complete_graph(n).sym_matrix(), residual_target=1e-12)
    audit = audit_entry_bounds(res, theta=0.5, nu=1.0)
    assert audit.max_ok  # 1/7 < 8^-0.5
    assert audit.min_ok
    observed_theta = audit.observed_exponents[0]
    assert observed_theta >= 1.0 - math.log(2) / math.log(n)
    assert math.isclose(observed_theta, math.log(n - 1) / math.log(n), rel_tol=1e-12)
    # a non-finite bound compares with no entry
    for theta, nu in ((math.nan, 1.0), (0.5, math.inf), (-math.inf, 1.0)):
        with pytest.raises(InputError, match="must be finite"):
            audit_entry_bounds(res, theta=theta, nu=nu)


def test_audit_leaves_a_missing_bound_unchecked():
    res = scale_symmetric(complete_graph(8).sym_matrix(), residual_target=1e-12)
    both = audit_entry_bounds(res, theta=0.5, nu=1.0)
    assert audit_entry_bounds(res, theta=0.5, nu=None) == ScalingAudit(both.max_ok, None, both.observed_exponents)
    assert audit_entry_bounds(res, theta=None, nu=1.0) == ScalingAudit(None, both.min_ok, both.observed_exponents)
    with pytest.raises(InputError, match="theta must be finite"):
        audit_entry_bounds(res, theta=math.nan, nu=None)


def test_audit_n2_max_entry_one():
    res = scale_symmetric(SymMatrix([[0, 2], [2, 0]]), residual_target=1e-12)
    audit = audit_entry_bounds(res, theta=0.1, nu=1.0)
    assert not audit.max_ok  # max entry is 1, never below 2^-theta
    assert abs(audit.observed_exponents[0]) < 1e-12


def test_audit_requires_convergence():
    star = adjacency([(0, 1), (0, 2), (0, 3)], 4)
    res = scale_symmetric(star, max_iterations=100)
    with pytest.raises(InputError):
        audit_entry_bounds(res, theta=0.5, nu=1.0)


def test_counterexample_audit_regression_goldens():
    # the center-clique graph lacks total support, so only the 1/n stopping
    # rule regime applies; exponents frozen on first run
    from hafkit import CounterexampleSpec, build_counterexample

    spec = CounterexampleSpec(delta=0.12, n_center=19)
    assert spec.total_vertices == 40
    a = build_counterexample(spec).sym_matrix()
    res = scale_symmetric(a)
    assert res.converged
    audit = audit_entry_bounds(res, theta=0.3, nu=1.0)
    assert audit.observed_exponents[0] == pytest.approx(0.12779712578604535, rel=1e-9)
    assert audit.observed_exponents[1] == pytest.approx(1.003724695079299, rel=1e-9)
    # at a tight target the scaling comes from the one on the total support
    tight = scale_symmetric(a, residual_target=1e-12, max_iterations=50_000)
    assert_scaled(a.entries, tight, 1e-12)


def assert_scaled(a, res, residual_target):
    """A converged scaling: within the target, on A's support, B = D A D, d within the spread bound."""
    assert res.converged and res.residual <= residual_target
    b = res.b.entries
    assert np.array_equal(b > 0, a > 0)
    assert np.allclose(b, np.outer(res.d, res.d) * a, rtol=1e-13, atol=0)
    assert np.max(res.d) <= 1e200 * np.min(res.d)


def assert_matches_reference(a, residual_target, max_iterations):
    res = scale_symmetric(SymMatrix(a), residual_target, max_iterations)
    d, residual, iterations, converged = reference_scaling(a, residual_target, max_iterations)
    assert np.array_equal(res.d, d)
    assert np.array_equal(res.b.entries, np.outer(d, d) * a)
    assert res.residual == residual
    assert res.iterations == iterations
    assert res.converged == converged
    return res


def weighted10():
    rng = np.random.default_rng(46)
    a = np.triu(rng.uniform(0.05, 3.0, size=(10, 10)) * (rng.random((10, 10)) < 0.6), 1)
    a[np.arange(9), np.arange(1, 10)] += 0.5  # a Hamiltonian path keeps it scalable
    return a + a.T


def test_counterexample_cap_bit_identical_to_step_loop():
    # up to step 248 the plain steps are all there is; past it the support's
    # missing total support is found and the scaling comes from its own
    from hafkit import CounterexampleSpec, build_counterexample

    a = build_counterexample(CounterexampleSpec(delta=0.12, n_center=24)).sym_matrix().entries
    for cap in (1, 100, 247, 248):
        res = assert_matches_reference(a, 1e-6, cap)
        assert res.iterations == cap and not res.converged
    assert_scaled(a, scale_symmetric(SymMatrix(a), 1e-6, 20_000), 1e-6)


@pytest.mark.parametrize("n_center", [10, 19, 24])
@pytest.mark.parametrize("target", [1e-6, 1e-10, 1e-12])
def test_counterexample_scales_from_its_total_support(n_center, target):
    # plain Sinkhorn decays like 1/k here (n_center 24 at 1e-10: residual
    # 2e-5 after 100,000 steps); both components of the total support are
    # regular, so it scales at its start and the whole run is 248 steps
    from hafkit import CounterexampleSpec, build_counterexample

    a = build_counterexample(CounterexampleSpec(delta=0.12, n_center=n_center)).sym_matrix().entries
    res = scale_symmetric(SymMatrix(a), target, 100_000)
    assert_scaled(a, res, target)
    assert res.iterations == 248


def triangle_edge_edge():
    # triangle 0-1-2, edge 3-4 and edge 2-3: a cycle cover (the triangle and
    # 3-4) but no perfect matching, and 2-3 lies on no cycle cover
    return adjacency([(0, 1), (1, 2), (0, 2), (3, 4), (2, 3)], 5).entries


def chain_of_components():
    # a weighted path on 8 vertices: its total support is the matching
    # 0-1, 2-3, 4-5, 6-7, and its other edges chain the components
    # {1} -> {3} -> {5} -> {7} and {6} -> {4} -> {2} -> {0}
    a = np.zeros((8, 8))
    w = np.random.default_rng(50).uniform(0.5, 2.0, size=7)
    a[np.arange(7), np.arange(1, 8)] = w
    return a + a.T


@pytest.mark.parametrize("support", [triangle_edge_edge, chain_of_components])
def test_supports_without_total_support_scale_at_tight_targets(support):
    a = support()
    for target in (1e-6, 1e-10, 1e-12):
        res = scale_symmetric(SymMatrix(a), target, 20_000)
        assert_scaled(a, res, target)
        assert not reference_scaling(a, target, 20_000)[3]  # the plain steps do not get there


def test_random_supports_scale_iff_they_have_a_cycle_cover():
    # with a cover every draw scales; without one every draw ends as the plain steps do
    rng = np.random.default_rng(51)
    kinds = collections.Counter()
    for _ in range(80):
        n = int(rng.integers(3, 10))
        a = np.triu(rng.uniform(0.05, 3.0, size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.6)), 1)
        a += a.T
        if np.any(a.sum(axis=1) == 0):
            continue
        target = float(10.0 ** rng.uniform(-12, -4))
        res = scale_symmetric(SymMatrix(a), target, 20_000)
        support = {(i, k) for i, k in zip(*np.nonzero(a))}
        if has_permutation(range(n), range(n), support):
            assert_scaled(a, res, target)
            edges = {(i, k) for i, k in support if i < k}
            kinds["without total support" if brute_total_support(n, edges) != edges else "total support"] += 1
        else:
            d, residual, iterations, converged = reference_scaling(a, target, 20_000)
            assert np.array_equal(res.d, d) and (res.residual, res.iterations, res.converged) == (
                residual, iterations, converged)
            kinds["no cover"] += 1
    assert min(kinds.values()) >= 10


@pytest.mark.parametrize("cap", [1, 100, 500, 1000])
def test_star_stall_bit_identical_to_step_loop(cap):
    star = adjacency([(0, 1), (0, 2), (0, 3)], 4).entries
    res = assert_matches_reference(star, 0.25, cap)
    assert not res.converged
    # at cap 1000 the spread max d / min d passes 1e200 first, after 837 steps
    assert res.iterations == min(cap, 837)


def test_target_first_met_at_each_step_bit_identical():
    # steps 0..59 cover the first and last step of the first blocks; the
    # counterexample's residual falls strictly, so target = residual at step s
    # is first met at step s
    from hafkit import CounterexampleSpec, build_counterexample

    a = build_counterexample(CounterexampleSpec(delta=0.12, n_center=10)).sym_matrix().entries
    for s in range(60):
        target = reference_scaling(a, 1e-300, s)[1]
        res = assert_matches_reference(a, target, 10_000)
        assert res.converged and res.iterations == s


def test_weighted_and_explicit_start_bit_identical_to_step_loop():
    a = weighted10()
    for target in (0.1, 1e-6, 1e-12):
        assert assert_matches_reference(a, target, 100_000).converged


def test_grid_past_step_248_bit_identical_to_step_loop():
    # the 20 x 20 grid has total support, so the plain steps go on past 248
    n = 400
    a = np.zeros((n, n))
    v = np.arange(n)
    right, down = v[v % 20 < 19], v[v < n - 20]
    a[right, right + 1] = a[right + 1, right] = 1.0
    a[down, down + 20] = a[down + 20, down] = 1.0
    res = assert_matches_reference(a, 1e-10, 100_000)
    assert res.converged and res.iterations == 2779


def test_complete_graph_takes_zero_steps_bit_identical():
    a = complete_graph(8).sym_matrix().entries
    res = assert_matches_reference(a, 1e-10, 100)
    assert res.iterations == 0 and res.converged


def weighted6():
    rng = np.random.default_rng(48)
    x = np.triu(rng.uniform(0.1, 3.0, size=(6, 6)), 1)
    return x + x.T


@pytest.mark.parametrize("shift", [-800, 800])
def test_power_of_two_units_scale_d_only(shift):
    # the triangle with its two edges scales from its total support, past step 248
    for x in (weighted6(), triangle_edge_edge()):
        ref = scale_symmetric(SymMatrix(x), residual_target=1e-12)
        res = scale_symmetric(SymMatrix(np.ldexp(x, shift)), residual_target=1e-12)
        assert ref.converged and res.converged
        assert res.iterations == ref.iterations
        assert np.array_equal(res.b.entries, ref.b.entries)
        assert np.array_equal(res.d, np.ldexp(ref.d, -shift // 2))


@pytest.mark.parametrize("c", [1e-250, 1e-210, 1e250])
def test_any_units_converge_in_the_same_steps(c):
    x = weighted6()
    ref = scale_symmetric(SymMatrix(x), residual_target=1e-12)
    res = scale_symmetric(SymMatrix(x * c), residual_target=1e-12)
    assert ref.converged and res.converged
    assert res.iterations == ref.iterations
    assert np.max(np.abs(res.b.entries - ref.b.entries)) <= 1e-15


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_entries_far_apart_keep_their_support(big):
    # A / 4^k must keep 1/big a normal float, else the second row vanishes
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = big
    a[2, 3] = a[3, 2] = 1.0 / big
    res = assert_matches_reference(a, 1e-12, 100)
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.b.entries > 0, a > 0)


def test_blocks_far_apart_converge_wherever_they_sit():
    # weighted K_4 blocks at 1e150 and 1e-60: on A / 4^k the small block's
    # d' sits near 1e105, which only a bound on the spread of d' admits
    rng = np.random.default_rng(49)
    a = np.zeros((8, 8))
    for lo, s in ((0, 1e150), (4, 1e-60)):
        x = np.triu(rng.uniform(0.5, 2.0, size=(4, 4)), 1)
        a[lo:lo + 4, lo:lo + 4] = (x + x.T) * s
    assert assert_matches_reference(a, 1e-12, 100_000).converged


def test_subnormal_blocks_converge_as_the_step_loop_without_warnings():
    # two K_4 blocks with entries 4.0 and 1e-320: d spans 10^160, so d d^T
    # overflows on the small block, where B is taken as (d_i A_ij) d_j
    a = np.zeros((8, 8))
    a[:4, :4] = 4.0
    a[4:, 4:] = 1e-320
    np.fill_diagonal(a, 0.0)
    d, residual, iterations, converged = reference_scaling(a, 1.0 / 8, 10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = scale_symmetric(SymMatrix(a))
    assert converged and res.converged
    assert (res.residual, res.iterations) == (residual, iterations)
    assert np.array_equal(res.d, d)
    b = res.b.entries
    assert np.array_equal(b[:4, :4], np.outer(d[:4], d[:4]) * a[:4, :4])
    assert not np.any(b[:4, 4:]) and not np.any(b[4:, :4])
    for i in range(4, 8):
        for j in range(i + 1, 8):
            assert b[i, j] == b[j, i] == d[i] * a[i, j] * d[j]
    assert np.max(np.abs(b.sum(axis=1) - 1.0)) <= 4e-16
