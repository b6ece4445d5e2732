"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run on fixed seeds, so every number below is
reproducible bit-for-bit; regression constants marked FROZEN were taken
from the first run of this implementation and carry the stated margin.
"""

import json
import math
import re
import time

import numpy as np
from click.testing import CliRunner

from hafkit import (
    CounterexampleSpec,
    GraphEdgeList,
    SkewMatrix,
    SymMatrix,
    boundary,
    build_counterexample,
    check_strong_expansion,
    check_weak_expansion_structural,
    complete_graph,
    connected_components_within,
    count_perfect_matchings,
    eigenvalue_density,
    estimate,
    hafnian_exact,
    io,
    pfaffian_log_stack,
    random_regular_graph,
    run_bias_experiment,
    sample_log_dets,
    scale_symmetric,
    spectrum,
)
from hafkit.cli import main as cli_main
from hafkit.experiments import complete_family, concentration_error, counterexample_family
from hafkit.scaling import audit_entry_bounds
from helpers import brute_expansion, random_symmetric01, scalable_graph, trial_stream_ws

SEED = 2024

# FROZEN on first run: max over the default eta grid of mean N(eta)/(n*eta)
# for scaled K_200, 50 trials, seed 2024; criterion allows +20%.
DENSITY_FIRST_RUN_MAX_RATIO = 0.6353049006920803


def _pass(k: int, msg: str):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_criterion_01_exact_oracle_complete_graphs():
    started = time.monotonic()
    for n in range(2, 17, 2):
        v = hafnian_exact(complete_graph(n).sym_matrix())
        assert v.value_if_small == double_factorial(n - 1), f"K_{n}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(1, f"haf(K_n) == (n-1)!! for n=2..16 in {elapsed:.2f}s (K_8=105, K_16=2027025)")


def test_criterion_02_counterexample_counts():
    for n in (2, 3, 4):
        spec = CounterexampleSpec(delta=0.1, n_center=n, m_pairs=1)
        v = count_perfect_matchings(build_counterexample(spec))
        assert v.value_if_small == math.factorial(n)
    _pass(2, "counterexample matching count equals n! for n_center in {2,3,4}, m=1")


def test_criterion_03_unbiasedness_k8():
    started = time.monotonic()
    k8 = complete_graph(8).sym_matrix()
    log_dets = sample_log_dets(k8, 1_000_000, seed=SEED, threads=1)
    elapsed = time.monotonic() - started
    dets = np.exp(log_dets)
    mean = float(np.mean(dets))
    se = float(np.std(dets)) / math.sqrt(dets.size)
    assert np.all(np.isfinite(log_dets))
    assert abs(mean - 105.0) <= 4.0 * se
    assert elapsed < 60.0
    _pass(3, f"K_8 mean det = {mean:.3f} within {abs(mean-105)/se:.2f} SE of 105 in {elapsed:.1f}s")


def test_criterion_04_pfaffian_lu_consistency():
    rng = np.random.default_rng(4242)
    sizes = list(range(4, 21, 2))
    per = 10_000 // len(sizes) + 1
    worst = 0.0
    total = 0
    for n in sizes:
        iu = np.triu_indices(n, 1)
        ws = np.zeros((per, n, n))
        ws[:, iu[0], iu[1]] = rng.normal(size=(per, iu[0].size))
        ws -= np.transpose(ws, (0, 2, 1))
        log_pf, sign = pfaffian_log_stack(ws)
        np_sign, np_ld = np.linalg.slogdet(ws)
        assert np.all(sign != 0) and np.all(np_sign > 0)  # det = Pf^2 >= 0
        worst = max(worst, float(np.max(np.abs(2.0 * log_pf - np_ld))))
        total += per
    assert worst <= 1e-8
    _pass(4, f"{total} random skew matrices n=4..20: max |log det(Pf) - log det(LU)| = {worst:.2g}")


def test_criterion_05_scaling_regular_graphs_and_audit():
    for g, d in [
        (random_regular_graph(8, 3, seed=1), 3),
        (random_regular_graph(12, 3, seed=2), 3),
        (GraphEdgeList.from_pairs(8, [(i, 4 + j) for i in range(4) for j in range(4)]), 4),
        (GraphEdgeList.from_pairs(12, [(i, 6 + j) for i in range(6) for j in range(6)]), 6),
    ]:
        a = g.sym_matrix()
        res = scale_symmetric(a, residual_target=1e-10)
        assert res.converged and res.residual <= 1e-10
        assert abs(res.max_entry - 1.0 / d) <= 1e-12
        assert np.allclose(res.b.entries, a.entries / d, atol=1e-12)
    for n in (4, 8, 16):
        res = scale_symmetric(complete_graph(n).sym_matrix(), residual_target=1e-10)
        audit = audit_entry_bounds(res, theta=0.5, nu=1.0)
        assert audit.observed_exponents[0] >= 1.0 - math.log(2) / math.log(n)
    _pass(5, "regular graphs scale to A/d exactly; K_n max-entry exponent >= 1 - log2/log n")


def test_criterion_06_scaling_hafnian_equivariance():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6)) * 2
        edges = scalable_graph(rng, n, extra_p=0.5)
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        sym = SymMatrix(a)
        res = scale_symmetric(sym, residual_target=1e-13, max_iterations=500_000)
        if not res.converged:
            continue
        log_haf_a = hafnian_exact(sym).log_value
        log_haf_b = hafnian_exact(res.b).log_value
        assert math.isclose(log_haf_a, log_haf_b - float(np.sum(np.log(res.d))), abs_tol=1e-9)
        checked += 1
    _pass(6, "haf(A) == haf(B) * prod(1/d_i) to 1e-9 on 20 random scalable graphs (n <= 10)")


def test_criterion_07_expansion_checker_vs_bruteforce():
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        a = random_symmetric01(rng, n, float(rng.uniform(0.15, 0.8)))
        iu = np.triu_indices(n, 1)
        g = GraphEdgeList.from_pairs(
            n, [(int(i), int(j)) for i, j in zip(*iu) if a[i, j] > 0]
        )
        kappa = float(rng.uniform(0.05, 0.9))
        level = int(rng.integers(1, n))
        ours = check_strong_expansion(g, kappa, level)
        ref_holds, _ = brute_expansion(n, g.edges, kappa, level)
        if ours.holds != ref_holds:
            mismatches += 1
        if not ours.holds:
            js = set(ours.witness)
            assert len(js) <= level
            lhs = len(boundary(g, js)) - connected_components_within(g, js)
            assert lhs < kappa * len(js)  # witness re-verifies exactly
    assert mismatches == 0
    _pass(7, "exhaustive checker agrees with brute force on 200 graphs; all witnesses verify")


def test_criterion_08_counterexample_weak_expansion():
    checked = []
    for n_center in range(2, 21):
        spec = CounterexampleSpec(delta=0.12, n_center=n_center)
        if spec.total_vertices > 40:
            continue
        rep = check_weak_expansion_structural(spec, kappa=0.12 / 8.0, delta=0.12)
        assert rep.holds, f"n_center={n_center}"
        checked.append(spec.total_vertices)
    for n_center in (2, 3, 4):
        spec = CounterexampleSpec(delta=0.12, n_center=n_center, m_pairs=1)
        assert check_weak_expansion_structural(spec, kappa=0.12 / 8.0, delta=0.12).holds
    _pass(8, f"weak expansion (kappa=delta/8, delta=0.12) holds for all specs with M <= 40 ({len(checked)} sizes)")


def test_criterion_09_bias_reproduction():
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    assert spec.total_vertices == 50
    rep = run_bias_experiment(spec, 10_000, seed=SEED)
    frac = rep.fraction_below[0.01]
    assert frac >= 0.9
    medians = {}
    for n_center in (10, 15, 19, 24):
        s = CounterexampleSpec(delta=0.12, n_center=n_center)
        r = run_bias_experiment(s, 4000, seed=SEED)
        medians[s.total_vertices] = r.median_signed_error
    sizes = sorted(medians)
    assert sizes == [20, 30, 40, 50]
    vals = [medians[m] for m in sizes]
    assert all(x > y for x, y in zip(vals, vals[1:]))  # strictly decreasing
    slope = float(np.polyfit(sizes, vals, 1)[0])
    assert slope <= -0.005
    _pass(9, f"M=50: fraction(log det - log n! <= -0.01 M) = {frac:.4f} >= 0.9; median slope {slope:.3f} <= -0.005")


def test_criterion_10_concentration_contrast():
    members = complete_family([8, 10, 12, 14])
    rep = concentration_error(members, samples_per_member=1000, seed=SEED, family="complete")
    assert all(math.isfinite(r[1]) for r in rep.rows)
    assert rep.fitted_exponent is not None and rep.fitted_exponent < 1.0
    cx = counterexample_family([10, 15, 19, 24], delta=0.12)
    crep = concentration_error(cx, samples_per_member=1000, seed=SEED, family="counterexample")
    for size, _, _, signed in crep.rows:
        assert signed is not None and signed <= -0.005 * size
    _pass(
        10,
        f"complete-family error exponent {rep.fitted_exponent:.3f} < 1 (R^2 = {rep.r_squared:.3f}); "
        f"counterexample medians <= -0.005 M at every M",
    )


def test_criterion_11_eigenvalue_density_regression():
    b = scale_symmetric(complete_graph(200).sym_matrix(), residual_target=1e-10).b
    rep = eigenvalue_density(b, trials=50, seed=SEED)
    ratios = [row[3] for row in rep.rows]
    bound = DENSITY_FIRST_RUN_MAX_RATIO * 1.2
    assert max(ratios) <= bound
    # monotonicity of N(eta) in eta, exact per trial
    etas = [row[0] for row in rep.rows]
    for w in trial_stream_ws(b.entries, SEED, 50):  # trial t is stream (SEED, t)
        mags = np.abs(spectrum(SkewMatrix(w)).eigenvalues_iw)
        counts = [int(np.sum(mags < eta)) for eta in etas]
        assert counts == sorted(counts)
    _pass(11, f"scaled K_200: max mean N(eta)/(n eta) = {max(ratios):.4f} <= frozen {bound:.4f}; N monotone per trial")


def test_criterion_12_cli_determinism_across_threads(tmp_path):
    runner = CliRunner()
    io.write_matrix(tmp_path / "k8.mat", complete_graph(8).sym_matrix())

    def strip(text):
        return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)

    args = ["estimate", "--matrix", str(tmp_path / "k8.mat"), "--samples", "5000", "--seed", "7"]
    outs = [runner.invoke(cli_main, args + ["--threads", str(t)]).output for t in (1, 2, 4)]
    assert strip(outs[0]) == strip(outs[1]) == strip(outs[2])
    cx_args = ["counterexample", "--n-center", "10", "--samples", "2000", "--seed", "3"]
    cx_outs = [runner.invoke(cli_main, cx_args + ["--threads", str(t)]).output for t in (1, 3)]
    assert strip(cx_outs[0]) == strip(cx_outs[1])
    doc = json.loads(outs[0])
    assert doc["manifest"]["seed"] == 7
    _pass(12, "identical JSON (timing aside) for --threads 1/2/4 on estimate and counterexample")
