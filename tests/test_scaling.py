import math

import numpy as np
import pytest

from hafkit import (
    InputError,
    SymMatrix,
    audit_entry_bounds,
    complete_graph,
    hafnian_exact,
    random_regular_graph,
    scale_symmetric,
)

from helpers import scalable_graph


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
    res2 = scale_symmetric(a, residual_target=1e-12, max_iterations=200_000, d0=d0)
    assert res1.converged and res2.converged
    assert np.allclose(res1.b.entries, res2.b.entries, atol=1e-6)
    # d itself carries a gauge freedom on bipartite supports; its product is invariant
    assert math.isclose(float(np.prod(res1.d)), float(np.prod(res2.d)), rel_tol=1e-4)


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
    # at a tight target the missing total support shows up as non-convergence
    tight = scale_symmetric(a, residual_target=1e-12, max_iterations=50_000)
    assert not tight.converged
