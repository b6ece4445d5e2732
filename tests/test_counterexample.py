import math
import tracemalloc

import numpy as np
import pytest

from hafkit import (
    CounterexampleSpec,
    InputError,
    build_counterexample,
    check_weak_expansion,
    check_weak_expansion_structural,
    count_perfect_matchings,
    run_bias_experiment,
    sample_log_dets,
    sample_w,
)
from hafkit.counterexample import DEFAULT_C_GRID
from hafkit.estimator import _CHUNK, _LEAF, _quantiles
from hafkit.linalg import pfaffian_log_stack

from helpers import chunk_stream_ws, counterexample_edges, counterexample_log_det_law, counterexample_log_det_mean


def test_spec_validation_and_defaults():
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    assert spec.m_pairs == 1  # floor(0.12 * 24 / 2)
    assert spec.total_vertices == 50
    assert spec.total_vertices % 2 == 0
    with pytest.raises(InputError):
        CounterexampleSpec(delta=0.2, n_center=10)  # delta >= 1/6
    with pytest.raises(InputError):
        CounterexampleSpec(delta=0.0, n_center=10)
    with pytest.raises(InputError):
        CounterexampleSpec(delta=0.1, n_center=0)
    with pytest.raises(InputError):
        CounterexampleSpec(delta=0.1, n_center=4, m_pairs=-1)


def test_derived_pair_count_example():
    spec = CounterexampleSpec(delta=0.1, n_center=20)
    assert spec.m_pairs == 1
    assert spec.total_vertices == 42
    g = build_counterexample(spec)
    assert g.degrees()[40] == 21  # pair vertex: all of the center plus its partner


def test_construction_shape():
    spec = CounterexampleSpec(delta=0.1, n_center=5, m_pairs=2)
    g = build_counterexample(spec)
    n, m, total = 5, 2, 14
    assert g.n == total
    deg = g.degrees()
    assert all(deg[v] == total - 1 for v in range(n))  # center: everyone
    assert all(deg[v] == n for v in range(n, 2 * n))  # plain peripherals
    assert all(deg[v] == n + 1 for v in range(2 * n, total))  # paired peripherals
    expected_edges = n * (n - 1) // 2 + n * (n + 2 * m) + m
    assert len(g.edges) == expected_edges


@pytest.mark.parametrize("n_center", [2, 3, 4, 5, 6])
def test_matching_count_is_factorial(n_center):
    spec = CounterexampleSpec(delta=0.1, n_center=n_center, m_pairs=1)
    v = count_perfect_matchings(build_counterexample(spec))
    assert v.value_if_small == math.factorial(n_center)


def test_matching_count_factorial_without_pairs():
    spec = CounterexampleSpec(delta=0.1, n_center=4, m_pairs=0)
    v = count_perfect_matchings(build_counterexample(spec))
    assert v.value_if_small == math.factorial(4)


def test_estimator_mean_still_unbiased_at_small_size():
    # M = 10: mean of det over 1e6 samples brackets 4! within 4 standard errors
    spec = CounterexampleSpec(delta=0.1, n_center=4, m_pairs=1)
    a = build_counterexample(spec).sym_matrix()
    log_dets = sample_log_dets(a, 1_000_000, seed=77)
    dets = np.exp(log_dets)
    mean = float(np.mean(dets))
    se = float(np.std(dets)) / math.sqrt(dets.size)
    assert abs(mean - 24.0) <= 4 * se


def test_structural_weak_expansion_holds_for_generated_specs():
    for n_center in range(2, 21):
        spec = CounterexampleSpec(delta=0.12, n_center=n_center)
        if spec.total_vertices > 40:
            continue
        rep = check_weak_expansion_structural(spec)
        assert rep.holds, f"weak expansion failed for n_center={n_center}"
        assert rep.checked_mode == "exhaustive"
        assert rep.kappa == pytest.approx(0.12 / 8)


def test_structural_matches_generic_exhaustive_on_small_graphs():
    for n_center, m_pairs in [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2)]:
        spec = CounterexampleSpec(delta=0.12, n_center=n_center, m_pairs=m_pairs)
        g = build_counterexample(spec)
        generic = check_weak_expansion(g, kappa=0.12 / 8, delta=0.12, budget=10_000_000)
        structural = check_weak_expansion_structural(spec)
        assert generic.holds == structural.holds


def test_structural_zero_deficit_holds_exactly():
    # one pair and no other vertices inside J: 2 - 0.9 * 2 - 0.05 * 4 is
    # exactly 0, negative in float64, so the first witness is a later orbit
    spec = CounterexampleSpec(delta=0.1, n_center=2, m_pairs=2)
    rep = check_weak_expansion_structural(spec, kappa=0.05)
    assert (rep.holds, rep.witness, rep.sets_checked) == (False, (2, 3, 4, 5), 16)
    generic = check_weak_expansion(build_counterexample(spec), kappa=0.05, delta=0.1)
    assert generic.witness == rep.witness
    # the orbit of (4, 5, 6, 7) violates as soon as kappa is any larger
    rep = check_weak_expansion_structural(spec, kappa=0.0500001)
    assert (rep.holds, rep.witness, rep.sets_checked) == (False, (4, 5, 6, 7), 6)


def test_structural_finds_witness_when_kappa_too_large():
    spec = CounterexampleSpec(delta=0.12, n_center=4, m_pairs=1)
    rep = check_weak_expansion_structural(spec, kappa=5.0)
    assert not rep.holds
    assert rep.witness is not None
    g = build_counterexample(spec)
    generic = check_weak_expansion(g, kappa=5.0, delta=0.12, budget=10_000_000)
    assert not generic.holds
    # recompute the violated inequality on the witness
    from hafkit import boundary, connected_components_within

    js = set(rep.witness)
    lhs = len(boundary(g, js)) - (1 - 0.12) * connected_components_within(g, js)
    assert lhs < 5.0 * len(js)


def test_log_det_factors_into_pair_gaussians():
    # resampling only the pair entries shifts log det by exactly 2 sum dlog|g|
    spec = CounterexampleSpec(delta=0.1, n_center=4, m_pairs=2)
    g = build_counterexample(spec)
    a = g.sym_matrix()
    w = sample_w(a, seed=5, index=0).entries.copy()
    n = spec.n_center
    pair_edges = [(2 * n + 2 * t, 2 * n + 2 * t + 1) for t in range(spec.m_pairs)]
    ld0 = 2.0 * pfaffian_log_stack(w[None])[0][0]
    rng = np.random.default_rng(123)
    shift = 0.0
    for u, v in pair_edges:
        g_old = w[u, v]
        g_new = float(rng.normal())
        w[u, v] = g_new
        w[v, u] = -g_new
        shift += 2.0 * (math.log(abs(g_new)) - math.log(abs(g_old)))
    ld1 = 2.0 * pfaffian_log_stack(w[None])[0][0]
    assert math.isclose(ld1 - ld0, shift, abs_tol=1e-9)


def test_bias_report_fields_and_tiny_case():
    spec = CounterexampleSpec(delta=0.1, n_center=2, m_pairs=1)
    rep = run_bias_experiment(spec, 500, seed=3)
    assert rep.log_haf == pytest.approx(math.log(2.0))
    assert rep.total_vertices == 6
    assert set(rep.fraction_below) == {0.005, 0.01, 0.02, 0.05}
    fracs = [rep.fraction_below[c] for c in sorted(rep.fraction_below)]
    assert all(x >= y for x, y in zip(fracs, fracs[1:]))  # monotone in c
    assert 0.5 in rep.logdet_quantiles


def test_bias_negative_median_at_moderate_size():
    spec = CounterexampleSpec(delta=0.12, n_center=15)
    rep = run_bias_experiment(spec, 500, seed=9)
    assert rep.median_signed_error < 0


@pytest.mark.parametrize("n_center", [10, 15, 19, 24])
def test_sampled_log_dets_agree_with_pfaffian_at_sampling_sizes(n_center):
    # the LU path against the Parlett-Reid oracle on the same W, M = 20..50,
    # to the bound of acceptance criterion 04
    spec = CounterexampleSpec(delta=0.12, n_center=n_center)
    a = build_counterexample(spec).sym_matrix()
    num = 2048
    log_dets = sample_log_dets(a, num, seed=41)
    edges = counterexample_edges(n_center, spec.m_pairs)
    ws = chunk_stream_ws(a.entries, 41, num, _CHUNK, edges)
    # a chunk draws r rows at a time, r = 2^15 // m, and r does not divide 512
    r = (1 << 15) // len(edges)
    for i in (0, r - 1, r, _CHUNK // r * r, _CHUNK - 1, num - 1):
        assert np.array_equal(sample_w(a, 41, i).entries, ws[i])
    log_pf, sign = pfaffian_log_stack(ws)
    assert np.all(sign != 0)
    assert float(np.max(np.abs(log_dets - 2.0 * log_pf))) <= 1e-8


@pytest.mark.parametrize("n_center", [10, 24])
def test_log_det_mean_matches_the_exact_law(n_center):
    # log det W = sum of independent log chi^2 terms (Bartlett); the mean of
    # 16384 samples lies within 4 standard errors of the exact mean
    spec = CounterexampleSpec(delta=0.12, n_center=n_center)
    log_dets = sample_log_dets(build_counterexample(spec).sym_matrix(), 16384, seed=1409)
    law = counterexample_log_det_mean(n_center, spec.m_pairs)
    se = float(np.std(log_dets)) / math.sqrt(log_dets.size)
    assert abs(float(np.mean(log_dets)) - law) <= 4.0 * se


@pytest.mark.parametrize("n_center", [10, 24])
def test_bias_report_matches_the_chi_square_law(n_center):
    # the median and every fraction_below of 16384 samples are shares of
    # samples on one side of a line; the law's share of 400,000 draws lies
    # within 4 pooled binomial standard errors of each
    spec = CounterexampleSpec(delta=0.12, n_center=n_center)
    num, draws = 16384, 400_000
    rep = run_bias_experiment(spec, num, seed=1410)
    law = counterexample_log_det_law(n_center, spec.m_pairs, draws, seed=1411) - rep.log_haf

    def agree(sampled, drawn):
        p = (sampled * num + drawn * draws) / (num + draws)
        return abs(sampled - drawn) <= 4.0 * math.sqrt(p * (1.0 - p) * (1.0 / num + 1.0 / draws))

    assert agree(0.5, float(np.mean(law <= rep.median_signed_error)))
    for c, share in rep.fraction_below.items():
        assert agree(share, float(np.mean(law <= -c * rep.total_vertices)))


def test_bias_report_identical_across_threads():
    spec = CounterexampleSpec(delta=0.12, n_center=10)
    num = 2 * _CHUNK + 100  # three chunks, so two threads really split the work
    one = run_bias_experiment(spec, num, seed=12, threads=1)
    two = run_bias_experiment(spec, num, seed=12, threads=2)
    assert one == two


def test_bias_report_is_the_plain_aggregate_of_the_samples():
    # the log-sum-exp follows numpy's summation tree in index order and every
    # order statistic comes from the array sorted in place: bit for bit what
    # plain numpy gives on the samples, also past two leaves of the tree
    for spec in (CounterexampleSpec(delta=0.1, n_center=1, m_pairs=1), CounterexampleSpec(delta=0.12, n_center=10)):
        a = build_counterexample(spec).sym_matrix()
        for num in (1, 2, 999, 1000, 20001, 40000):
            rep = run_bias_experiment(spec, num, seed=6)
            x = sample_log_dets(a, num, seed=6)
            top = float(np.max(x))
            shifted = x - rep.log_haf
            assert rep.mean_det_log == top + math.log(float(np.sum(np.exp(x - top)))) - math.log(num)
            assert rep.logdet_quantiles == _quantiles(np.sort(x), (0.05, 0.25, 0.5, 0.75, 0.95))
            assert rep.median_signed_error == float(np.median(shifted))
            assert rep.fraction_below == {
                c: float(np.mean(shifted <= -c * rep.total_vertices)) for c in DEFAULT_C_GRID
            }


def test_bias_report_aggregates_in_the_memory_of_one_sample_array():
    # past sampling the report holds the log-dets, at most one byte per
    # sample and the summation tree's leaf; a chunk is measured on its own
    spec = CounterexampleSpec(delta=0.1, n_center=3, m_pairs=1)
    a = build_counterexample(spec).sym_matrix()
    num = 200_000
    tracemalloc.start()
    try:
        sample_log_dets(a, _CHUNK, seed=3)
        chunk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run_bias_experiment(spec, num, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * num + num + chunk + 8 * _LEAF
