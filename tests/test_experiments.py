import math

import numpy as np
import pytest
import scipy.linalg

from hafkit import (
    InputError,
    SkewMatrix,
    SymMatrix,
    complete_graph,
    eigenvalue_density,
    hafnian_exact,
    random_regular_graph,
    scale_symmetric,
    smallest_sv_tail,
    spectrum,
)
from hafkit.experiments import (
    complete_family,
    concentration_error,
    counterexample_family,
    default_eta_grid,
    matrix_from_source,
    run,
)

from helpers import random_skew, support_stream_w


def test_random_regular_graph_is_regular_and_seeded():
    g = random_regular_graph(20, 3, seed=4)
    assert np.all(g.degrees() == 3)
    assert g.edges == random_regular_graph(20, 3, seed=4).edges
    assert g.edges != random_regular_graph(20, 3, seed=5).edges
    with pytest.raises(InputError):
        random_regular_graph(5, 3, seed=1)  # odd n*d
    with pytest.raises(InputError):
        random_regular_graph(4, 4, seed=1)  # d >= n


def test_sv_tail_half_normal_edge():
    a = SymMatrix([[0, 1], [1, 0]])
    rep = smallest_sv_tail(a, trials=1000, seed=2, thresholds=(0.1, 0.2))
    for t in (0.1, 0.2):
        p_true = math.erf(t / math.sqrt(2))
        se = math.sqrt(p_true * (1 - p_true) / 1000)
        assert abs(rep.cdf[t] - p_true) <= 3 * se
    cdf_vals = [rep.cdf[t] for t in sorted(rep.cdf)]
    assert cdf_vals == sorted(cdf_vals)  # CDF nondecreasing in threshold
    assert rep.fitted_exponent is None or rep.fitted_exponent > 0


def test_sv_tail_scaled_complete_graph_no_tiny_values():
    b = scale_symmetric(complete_graph(16).sym_matrix(), residual_target=1e-10).b
    rep = smallest_sv_tail(b, trials=300, seed=3, thresholds=(1e-8, 1e-2, 0.1))
    assert rep.cdf[1e-8] == 0.0
    assert rep.median_smallest_singular > 1e-4


def test_sv_tail_matching_only_heavier_than_complete():
    n = 8
    pm = np.zeros((n, n))
    for t in range(n // 2):
        pm[2 * t, 2 * t + 1] = pm[2 * t + 1, 2 * t] = 1.0
    rep_pm = smallest_sv_tail(SymMatrix(pm), trials=1000, seed=4, thresholds=(0.1,))
    rep_kn = smallest_sv_tail(complete_graph(n).sym_matrix(), trials=1000, seed=4, thresholds=(0.1,))
    assert rep_pm.median_smallest_singular < rep_kn.median_smallest_singular


def test_sv_tail_requires_even():
    with pytest.raises(InputError):
        smallest_sv_tail(SymMatrix(np.zeros((3, 3))), 10, 0, (0.1,))


def test_density_counts_everything_at_large_eta():
    b = scale_symmetric(complete_graph(10).sym_matrix(), residual_target=1e-10).b
    rep = eigenvalue_density(b, trials=20, seed=5, eta_grid=(0.5, 10.0))
    last = rep.rows[-1]
    assert last[0] == 10.0 and last[1] == 10.0 and last[2] == 10
    for t in range(20):
        w = SkewMatrix(support_stream_w(b.entries, 5, t))  # trial t's W
        assert spectrum(w).operator_norm < 5.0  # eta=10 >= 2||W||


def test_density_monotone_in_eta_per_trial():
    b = scale_symmetric(complete_graph(12).sym_matrix(), residual_target=1e-10).b
    etas = (0.2, 0.4, 0.8)
    for t in range(10):
        w = SkewMatrix(support_stream_w(b.entries, 6, t))  # trial t's W
        mags = np.abs(spectrum(w).eigenvalues_iw)
        counts = [int(np.sum(mags < e)) for e in etas]
        assert counts == sorted(counts)
    rep = eigenvalue_density(b, trials=10, seed=6, eta_grid=etas)
    means = [row[1] for row in rep.rows]
    assert means == sorted(means)


def test_density_counts_match_independent_hermitian_eigensolve():
    b = scale_symmetric(complete_graph(60).sym_matrix(), residual_target=1e-10).b
    trials = 40
    rep = eigenvalue_density(b, trials=trials, seed=9)
    etas = np.array([row[0] for row in rep.rows])
    mags = np.abs([np.linalg.eigvalsh(1j * support_stream_w(b.entries, 9, t)) for t in range(trials)])
    counts = (mags[:, :, None] < etas).sum(axis=1)
    assert counts[:, 0].max() > 0  # the smallest eta sees eigenvalues
    for k, (eta, mean_count, max_count, _) in enumerate(rep.rows):
        assert mean_count == float(np.mean(counts[:, k]))
        assert max_count == int(np.max(counts[:, k]))


def svd_density_rows(a, trials, seed, etas):
    """Density rows from #{eigenvalues of iW in (-eta, eta)} of ``spectrum``'s SVD, trial by trial."""
    counts = np.array([
        [int(np.sum(np.abs(spectrum(SkewMatrix(support_stream_w(a.entries, seed, t))).eigenvalues_iw) < eta))
         for eta in etas]
        for t in range(trials)
    ])
    return tuple(
        (float(eta), float(np.mean(counts[:, k])), int(np.max(counts[:, k])), float(np.mean(counts[:, k]) / (a.n * eta)))
        for k, eta in enumerate(etas)
    )


def zero_row_support():
    rng = np.random.default_rng(15)
    a = np.triu(rng.uniform(0.1, 2.0, (30, 30)) * (rng.random((30, 30)) < 0.5), 1)
    a[[3, 17], :] = a[:, [3, 17]] = 0.0  # two isolated vertices: two exact zero singular values
    return SymMatrix(a + a.T)


def test_density_counts_equal_the_svd_counts():
    k60 = scale_symmetric(complete_graph(60).sym_matrix(), residual_target=1e-10).b
    rr40 = scale_symmetric(random_regular_graph(40, 5, seed=2).sym_matrix(), residual_target=1e-10).b
    k15 = complete_graph(15).sym_matrix()
    cases = (
        (k60, None),
        (rr40, None),
        (k15, (0.5, 1.0, 2.0, 4.0)),
        (k15, (1e-12, 1e-9, 1e-6, 0.5)),
        (zero_row_support(), (1e-14, 1e-3, 0.1, 0.5, 1.0, 2.0)),
    )
    for seed, (a, grid) in enumerate(cases):
        rep = eigenvalue_density(a, trials=20, seed=seed, eta_grid=grid)
        etas = [row.eta for row in rep.rows]
        assert rep.rows == svd_density_rows(a, 20, seed, etas)


def test_density_counts_the_zero_singular_value_of_odd_n():
    # W of odd order has an exact zero singular value; the Gram matrix shows
    # it as an eigenvalue of order eps ||W||^2, far above eta^2 = 1e-24, so
    # these trials must count from the SVD
    rep = eigenvalue_density(complete_graph(15).sym_matrix(), trials=20, seed=2, eta_grid=(1e-12, 1e-9, 1e-6, 0.5))
    for row in rep.rows[:3]:
        assert (row.mean_count, row.max_count) == (1.0, 1)


def test_density_counts_every_singular_value_below_a_huge_eta():
    # eta^2 and n * eta overflow at eta = 1e308: every singular value lies
    # below eta, and the ratio is about 1e-308, not 0
    b = scale_symmetric(complete_graph(4).sym_matrix(), residual_target=1e-10).b
    rep = eigenvalue_density(b, trials=3, seed=0, eta_grid=(0.5, 1e308))
    assert rep.rows[1][:3] == (1e308, 4.0, 4)
    assert rep.rows[1].ratio == 4.0 / 4 / 1e308 > 0


def test_sv_tail_takes_the_svd_of_each_trial():
    b = scale_symmetric(random_regular_graph(30, 3, seed=4).sym_matrix(), residual_target=1e-10).b
    thresholds = (1e-8, 1e-4, 1e-2, 0.1, 0.5)
    rep = smallest_sv_tail(b, trials=60, seed=4, thresholds=thresholds)
    sn = np.array([spectrum(SkewMatrix(support_stream_w(b.entries, 4, t))).smallest_singular for t in range(60)])
    assert rep.median_smallest_singular == float(np.median(sn))
    assert rep.cdf == {t: float(np.mean(sn <= t)) for t in thresholds}


def test_density_regular_graph_comparable_to_complete_baseline():
    g = random_regular_graph(100, 3, seed=11)
    b3 = scale_symmetric(g.sym_matrix(), residual_target=1e-10).b
    bk = scale_symmetric(complete_graph(100).sym_matrix(), residual_target=1e-10).b
    etas = (0.3, 0.5, 0.8)
    r3 = eigenvalue_density(b3, trials=20, seed=5, eta_grid=etas)
    rk = eigenvalue_density(bk, trials=20, seed=5, eta_grid=etas)
    for row3, rowk in zip(r3.rows, rk.rows):
        assert row3[3] <= 2.0 * rowk[3]


def test_default_eta_grid_bounds():
    grid = default_eta_grid(1.0 / 199.0)
    assert grid[0] == pytest.approx(199.0 ** (-0.2))
    assert grid[-1] == pytest.approx(1.0)
    assert np.all(np.diff(grid) > 0)


def test_concentration_single_edge_matches_simulated_log_chi2():
    members = complete_family([2])
    rep = concentration_error(members, samples_per_member=20_000, seed=7)
    median_abs = rep.rows[0][1]
    # oracle: direct simulation of |log chi^2_1| with an unrelated generator
    rng = np.random.default_rng(1234)
    ref = float(np.median(np.abs(np.log(rng.normal(size=200_000) ** 2))))
    assert abs(median_abs - ref) < 0.05


def test_concentration_complete_family_sublinear():
    members = complete_family([8, 10, 12, 14])
    rep = concentration_error(members, samples_per_member=400, seed=8)
    assert all(math.isfinite(r[1]) for r in rep.rows)
    assert rep.fitted_exponent is not None and rep.fitted_exponent < 1.0
    assert rep.r_squared is not None


def test_concentration_counterexample_family_negative_medians():
    members = counterexample_family([10, 15], delta=0.12)
    rep = concentration_error(members, samples_per_member=300, seed=9)
    for size, _, _, signed in rep.rows:
        assert signed is not None and signed < 0


def test_experiments_deterministic():
    cfg = {"matrix": {"kind": "complete", "n": 8, "scaled": True}, "trials": 50, "seed": 11,
           "thresholds": [1e-6, 0.01, 0.1]}
    assert run("sv-tail", cfg) == run("sv-tail", cfg)
    dcfg = {"matrix": {"kind": "complete", "n": 10, "scaled": True}, "trials": 10, "seed": 12}
    assert run("density", dcfg) == run("density", dcfg)
    ccfg = {"family": {"kind": "complete", "ns": [6, 8]}, "samples_per_n": 50, "seed": 13}
    assert run("concentration", ccfg) == run("concentration", ccfg)
    # worker count changes wall time only
    assert run("concentration", ccfg, threads=3) == run("concentration", ccfg, threads=1)


def test_matrix_from_source_kinds(tmp_path):
    from hafkit import io

    a = complete_graph(6).sym_matrix()
    path = tmp_path / "m.mat"
    io.write_matrix(path, a)
    assert np.array_equal(matrix_from_source({"kind": "file", "path": str(path)}).entries, a.entries)
    b = matrix_from_source({"kind": "complete", "n": 6, "scaled": True})
    assert np.allclose(b.entries.sum(axis=1), 1.0, atol=1e-9)
    r = matrix_from_source({"kind": "random_regular", "n": 10, "d": 3, "graph_seed": 1})
    assert np.all(r.entries.sum(axis=1) == 3.0)
    c = matrix_from_source({"kind": "counterexample", "delta": 0.1, "n_center": 3, "m_pairs": 1})
    assert c.n == 8
    with pytest.raises(InputError):
        matrix_from_source({"kind": "mystery"})


def test_spectrum_minimum_matches_independent_bidiagonalization():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(2, 7)) * 2
        w = random_skew(rng, n)
        ours = spectrum(SkewMatrix(w)).smallest_singular
        ref = float(scipy.linalg.svd(w, compute_uv=False, lapack_driver="gesvd")[-1])
        assert math.isclose(ours, ref, rel_tol=1e-8, abs_tol=1e-12)


def test_complete_family_closed_form_matches_exact_dp():
    for member in complete_family(range(2, 25, 2)):
        assert member.exact_log_haf == hafnian_exact(member.matrix).log_value
    # past the DP's move budget the closed form still gives log (n-1)!!
    (big,) = complete_family([40])
    assert big.exact_log_haf == pytest.approx(math.lgamma(41) - 20 * math.log(2) - math.lgamma(21))
    with pytest.raises(InputError):
        complete_family([8, 9])
