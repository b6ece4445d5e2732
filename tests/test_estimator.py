import math
import tracemalloc

import numpy as np
import pytest

from hafkit import (
    CounterexampleSpec,
    InputError,
    SymMatrix,
    build_counterexample,
    complete_graph,
    estimate,
    hafnian_exact,
    sample_log_dets,
    sample_w,
    scale_symmetric,
)
from hafkit import estimator
from hafkit.estimator import _quantiles
from hafkit.exact import support_blocks
from hafkit.linalg import pfaffian_log_stack
from hafkit.rng import gaussian_rows, stream

from helpers import (
    chunk_stream_ws,
    counterexample_edges,
    memo_matchings,
    naive_hafnian,
    naive_pfaffian,
    random_graph_with_matching,
    random_symmetric01,
    sample_edges,
    support_chunk_w,
    support_edges,
    tutte_barrier_support,
)


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


# samples (seed=7, index) on golden_matrix(), taken from
# helpers.support_chunk_w: one normal per edge of the total support, which
# is every support edge here, row-major.  Sample 0
# is the first row of stream (7, 0), sample 513 the second row of stream
# (7, 1).  Each entry: index -> (upper triangle row-major, log det W, sign Pf W).
GOLDEN = {
    0: (
        [
            -1.7496944402112695, 1.1490882185118256, 0.3071416818765366, 0.0, 0.0,
            0.4467896072873113, 0.0, 0.0, 0.33052019114366477, -1.2292683650905576,
            0.0, 0.0, -1.846598130619467, 0.0, 0.20759996743295636,
        ],
        0.3248086804441177,
        1,
    ),
    513: (
        [
            1.4141511542108174, 4.392037526031809, -0.6084681347622314, 0.0, 0.0,
            -0.7111225749080897, 0.0, 0.0, -0.3639424745271791, 1.6056017308914285,
            0.0, 0.0, -2.232605601008105, 0.0, -0.6947431339370952,
        ],
        3.3900480452524153,
        -1,
    ),
}


# samples (seed=7, index) on the n_center = 24 counterexample, taken from
# helpers.support_chunk_w: 577 normals a sample, so a chunk draws its rows
# in slices of 56 and a short last one of 8, and these indices sit on both
# sides of slice boundaries.  Each entry: index -> (W[0, 24], W[48, 49]),
# its first and last drawn edges.
CX24_GOLDEN = {
    55: (-1.8237159239347962, -0.6268190935487934),
    56: (0.14450084776717712, -0.0133844848295434),
    504: (-1.0562627123318193, 1.7689211736742994),
    511: (-0.3897178868106712, -0.6660123462816421),
}


def pfaffian_log_det(w: np.ndarray) -> tuple[float, int]:
    """(log det W, sign Pf W) of one matrix, from the Parlett-Reid oracle."""
    log_pf, sign = pfaffian_log_stack(w[None])
    return 2.0 * float(log_pf[0]), int(sign[0])


def test_sample_w_reproduces_golden_matrix():
    iu = np.triu_indices(6, 1)
    for index, (triangle, golden_log_det, golden_sign) in GOLDEN.items():
        scalar = support_chunk_w(golden_matrix().entries, 7, index, estimator._CHUNK)
        assert np.array_equal(scalar[iu], triangle)
        w = sample_w(golden_matrix(), seed=7, index=index)
        assert np.array_equal(w.entries, scalar)
        log_det, sign_pf = pfaffian_log_det(w.entries)
        assert log_det == golden_log_det
        assert sign_pf == golden_sign
        assert math.isclose(naive_pfaffian(scalar), golden_sign * math.exp(golden_log_det / 2), rel_tol=1e-12)
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    cx = build_counterexample(spec).sym_matrix()
    for index, (first, last) in CX24_GOLDEN.items():
        scalar = support_chunk_w(cx.entries, 7, index, estimator._CHUNK, counterexample_edges(24, spec.m_pairs))
        assert (scalar[0, 24], scalar[48, 49]) == (first, last)
        assert sample_w(cx, seed=7, index=index).entries.tobytes() == scalar.tobytes()


def triangle_stream_w(a, seed, index):
    """W from the normals of the whole upper triangle, scattered in row-major order.

    The normals are row index % _CHUNK of one draw of the chunk's rows from
    a freshly keyed numpy Philox generator on stream (seed, index // _CHUNK).
    """
    iu, ju = np.triu_indices(a.n, 1)
    key = np.array([seed, index // estimator._CHUNK], dtype=np.uint64)
    rows = np.random.Generator(np.random.Philox(key=key)).standard_normal((estimator._CHUNK, iu.size))
    w = np.zeros((a.n, a.n))
    w[iu, ju] = rows[index % estimator._CHUNK] * np.sqrt(a.entries[iu, ju])
    w -= w.T
    return w


def test_complete_support_draws_the_whole_triangle():
    # on a complete support the support edges are the upper triangle, so
    # every bit of W is what the triangle stream gives
    rng = np.random.default_rng(4404)
    weighted = np.zeros((10, 10))
    weighted[np.triu_indices(10, 1)] = rng.uniform(0.01, 3.0, size=45)
    for a in (complete_graph(8).sym_matrix(), SymMatrix(weighted + weighted.T)):
        for seed, index in ((0, 0), (7, 3), (7, 515), (2**64 - 1, 2**64 - 1)):
            want = triangle_stream_w(a, seed, index)
            assert np.array_equal(want, support_chunk_w(a.entries, seed, index, estimator._CHUNK))
            assert sample_w(a, seed, index).entries.tobytes() == want.tobytes()


def spy_on_draws(monkeypatch) -> list:
    """Record the estimator's draws: one ``[key, (rows, count), ...]`` per stream it keys.

    Each stream's list gets the shape of every slice ``rng.gaussian_rows``
    draws from it, in order.
    """
    calls = []

    def spy_stream(seed, key):
        calls.append([key])
        return stream(seed, key)

    def spy_rows(gen, out):
        calls[-1].append(out.shape)
        return gaussian_rows(gen, out)

    monkeypatch.setattr(estimator, "stream", spy_stream)
    monkeypatch.setattr(estimator, "gaussian_rows", spy_rows)
    return calls


def chunk_draws(calls) -> list[tuple[int, int, int]]:
    """``(key, rows, count)`` of each stream: the rows its slices add up to, of ``count`` normals each."""
    out = []
    for key, *shapes in calls:
        assert len({count for _, count in shapes}) == 1
        out.append((key, sum(rows for rows, _ in shapes), shapes[0][1]))
    return out


def test_matching_support_draws_one_normal_per_edge(monkeypatch):
    n, num = 200, 1500
    a = np.zeros((n, n))
    for i in range(0, n, 2):
        a[i, i + 1] = a[i + 1, i] = 1.0
    calls = spy_on_draws(monkeypatch)
    log_dets = sample_log_dets(SymMatrix(a), num, seed=3)
    # one stream per 512-sample chunk, the last one short
    assert chunk_draws(calls) == [(0, 512, n // 2), (1, 512, n // 2), (2, num - 1024, n // 2)]
    # each pair edge is a 1 x 1 bipartite block: log det W = 2 sum log|g|;
    # a perfect matching is its own total support
    for i in (0, 1, 511, 512, num - 1):
        w = support_chunk_w(a, 3, i, 512, support_edges(a))
        want = 2.0 * float(np.sum(np.log(np.abs(w[np.arange(0, n, 2), np.arange(1, n, 2)]))))
        assert math.isclose(log_dets[i], want, rel_tol=1e-12)


def lacking_total_support(seed):
    """Weighted random support on 12 vertices with a perfect matching and edges on no cycle cover."""
    rng = np.random.default_rng(seed)
    n = 12
    while True:
        a = np.zeros((n, n))
        for u, v in random_graph_with_matching(rng, n, 0.2):
            a[u, v] = a[v, u] = rng.uniform(0.1, 2.0)
        if len(sample_edges(a)) < len(support_edges(a)):
            return SymMatrix(a)


def test_total_support_draws_one_normal_per_edge(monkeypatch):
    calls = spy_on_draws(monkeypatch)

    def counts():
        return [count for _, _, count in chunk_draws(calls)]

    # the counterexample's total support is the center-plain K_{n,n} and the
    # pair edges: 577 of 901 support edges at n_center = 24, 1,800 of 18,580
    # at (40, 200)
    for n_center, m_pairs, want in ((24, 1, 577), (40, 200, 1800)):
        a = build_counterexample(CounterexampleSpec(delta=0.12, n_center=n_center, m_pairs=m_pairs))
        calls.clear()
        sample_log_dets(a.sym_matrix(), 600, seed=3)
        assert counts() == [want, want]
    # random supports: the brute-force total support, and no draw at all
    # without a perfect matching
    rng = np.random.default_rng(4408)
    pruned = unmatched = 0
    for k in range(40):
        n = int(rng.choice([6, 8, 10]))
        a = random_symmetric01(rng, n, p=float(rng.uniform(0.15, 0.5))) * rng.uniform(0.1, 2.0, (n, n))
        a = np.triu(a, 1) + np.triu(a, 1).T
        want = len(sample_edges(a))
        pruned += 0 < want < len(support_edges(a))
        unmatched += want == 0
        calls.clear()
        sample_log_dets(SymMatrix(a), 10, seed=k)
        assert counts() == ([want] if want else [])
    assert pruned >= 5 and unmatched >= 5


def test_sample_w_structure():
    a = golden_matrix()
    w = sample_w(a, seed=1, index=5)
    assert np.array_equal(w.entries, -w.entries.T)
    # zero variance entries stay exactly zero
    assert w.entries[1, 3] == 0.0 and w.entries[2, 4] == 0.0


def test_zero_matrix_gives_zero_sample():
    for n in (4, 1):
        w = sample_w(SymMatrix(np.zeros((n, n))), seed=9, index=0)
        assert w.n == n and np.all(w.entries == 0.0) and not np.any(np.signbit(w.entries))


def test_sample_w_zeros_off_the_support_are_positive():
    # SVD can depend on the sign of a zero entry, so W holds +0.0 wherever
    # it draws no normal: where A is zero, the diagonal included, on support
    # edges that lie on no cycle cover, and everywhere without a perfect
    # matching
    rng = np.random.default_rng(4405)
    pruned = 0
    for k in range(12):
        n = int(rng.choice([6, 9, 12]))
        a = random_symmetric01(rng, n, p=float(rng.uniform(0.1, 0.6)))
        a *= rng.uniform(0.1, 2.0, (n, n))
        a = SymMatrix(np.triu(a, 1) + np.triu(a, 1).T)
        drawn = np.zeros((n, n), dtype=bool)
        for i, j in sample_edges(a.entries):
            drawn[i, j] = drawn[j, i] = True
        pruned += np.any(drawn) and np.any(drawn != (a.entries > 0))
        for index in (0, 1, 2**64 - 1):
            w = sample_w(a, k, index).entries
            assert np.all(w[~drawn] == 0.0) and not np.any(np.signbit(w[~drawn]))
            assert np.all(w[drawn] != 0.0)
    assert pruned >= 1


def draw(seed, key, rows, count):
    """The first ``rows`` rows of ``count`` normals of stream (seed, key), in one draw."""
    return gaussian_rows(stream(seed, key), np.empty((rows, count)))


def test_short_chunk_is_a_prefix_of_the_full_chunk():
    full = draw(3, 10, 7, 15)
    for rows in range(8):
        assert np.array_equal(draw(3, 10, rows, 15), full[:rows])
    # and rows drawn in slices of any size, one generator, are the rows of one draw
    for step in (1, 2, 3, 7):
        gen = stream(3, 10)
        sliced = np.concatenate([gaussian_rows(gen, np.empty((min(step, 7 - r0), 15))) for r0 in range(0, 7, step)])
        assert np.array_equal(sliced, full)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("key", [0, 2**64 - 4])
@pytest.mark.parametrize("count", [0, 1, 3, 28, 1225])
def test_blocked_stream_equals_fresh_philox_generators(seed, key, count):
    # Oracle independent of hafkit: a freshly keyed numpy generator drawing
    # the rows one at a time.  An odd count leaves a raw word in Philox's
    # buffer, which the next row goes on from.  The key is built as a
    # uint64 array, since numpy turns a list such as [0, 2**64 - 4] into
    # float64.
    rows = 4
    blocks = draw(seed, key, rows, count)
    assert blocks.shape == (rows, count)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))
    for r in range(rows):
        assert np.array_equal(blocks[r], gen.standard_normal(count))


def test_stream_seeds_and_keys_span_64_bits():
    top = 2**64 - 1
    gen = np.random.Generator(np.random.Philox(key=np.array([top, top], dtype=np.uint64)))
    assert np.array_equal(draw(top, top, 2, 3), gen.standard_normal((2, 3)))
    for seed in (2**64, -1):
        with pytest.raises(InputError, match="seed must fit in an unsigned 64-bit integer"):
            stream(seed, 0)


def test_gaussian_block_rejects_indices_outside_64_bits():
    for key in (-1, 2**64):
        with pytest.raises(InputError, match="stream key must fit in an unsigned 64-bit integer"):
            stream(0, key)
    for index in (-1, 2**64):
        with pytest.raises(InputError, match="sample index must fit in an unsigned 64-bit integer"):
            sample_w(golden_matrix(), 0, index)


def test_entry_variance_matches_profile():
    # A entry 4 -> W entry distributed as 2 g
    g = draw(123, 0, 100_000, 1)[:, 0]
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
    # exact hafnian
    rng = np.random.default_rng(808)
    for k in range(20):
        n = int(rng.choice([4, 6, 8]))
        p = float(rng.uniform(0.3, 0.9))
        sym = SymMatrix(random_symmetric01(rng, n, p))
        exact = hafnian_exact(sym).value_if_small
        log_dets = sample_log_dets(sym, 1_000_000, seed=900 + k)
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
    assert s.error_median is not None
    assert s.error_median > 0
    assert s.error_max >= s.error_median


def test_estimate_summary_is_the_plain_aggregate_of_the_samples():
    # estimate sums in index order, then sorts its array and takes the errors
    # in it, in place: bit for bit what plain numpy gives on the samples
    six = np.zeros((6, 6))
    for i, j in [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]:
        six[i, j] = six[j, i] = 1.0
    for a, exact in ((complete_graph(8).sym_matrix(), math.log(105.0)), (SymMatrix(six), -math.inf)):
        for num in (1, 2, 1999, 3000):
            s = estimate(a, num, seed=4, exact_log_haf=exact)
            x = sample_log_dets(a, num, seed=4)
            top = float(np.max(x))
            lse = -math.inf if top == -math.inf else top + math.log(float(np.sum(np.exp(x - top))))
            finite = x[np.isfinite(x)]
            with np.errstate(invalid="ignore"):
                errs = np.abs(exact - x)
            errs[np.isnan(errs)] = 0.0
            assert s.num_zero_det == int(np.sum(x == -np.inf))
            assert s.mean_det_log == lse - math.log(num)
            assert s.logdet_mean == (float(np.mean(x)) if finite.size == num else -math.inf)
            assert s.logdet_std == (float(np.std(finite)) if finite.size else 0.0)
            assert s.logdet_quantiles == _quantiles(np.sort(x), (0.05, 0.25, 0.5, 0.75, 0.95))
            assert (s.error_median, s.error_max) == (float(np.median(errs)), float(np.max(errs)))


def test_estimate_aggregates_in_the_memory_of_two_sample_arrays():
    # past sampling, estimate holds the log-dets and one scratch array of
    # as many floats; a chunk's evaluation is measured on its own
    k8 = complete_graph(8).sym_matrix()
    num = 200_000
    tracemalloc.start()
    try:
        sample_log_dets(k8, estimator._CHUNK, seed=3)
        chunk = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        estimate(k8, num, seed=3, exact_log_haf=math.log(105.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * num + chunk


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
        base, _ = pfaffian_log_det(sample_w(a, 17, idx).entries)
        shifted, _ = pfaffian_log_det(sample_w(scaled, 17, idx).entries)
        assert math.isclose(shifted, base + float(np.sum(np.log(d))), abs_tol=1e-10)


@pytest.mark.parametrize(
    "a",
    [
        complete_graph(8).sym_matrix(),
        build_counterexample(CounterexampleSpec(delta=0.12, n_center=10)).sym_matrix(),
        build_counterexample(CounterexampleSpec(delta=0.12, n_center=24)).sym_matrix(),
        lacking_total_support(4410),
    ],
    ids=["k8", "counterexample_10", "counterexample_24", "lacking_total_support"],
)
def test_sample_i_depends_on_neither_threads_nor_num_samples(a):
    num = 4500  # eight full chunks and a short one
    want = sample_log_dets(a, num, seed=21)
    for threads in (2, 4):
        assert np.array_equal(sample_log_dets(a, num, seed=21, threads=threads), want)
    # a short last chunk draws a prefix of the full chunk's rows
    assert np.array_equal(sample_log_dets(a, 1000, seed=21), want[:1000])


def test_sample_w_is_the_sampled_w_across_chunks():
    # on a single full block, log det W of sample_w is bit for bit the
    # sampled value, also at chunk edges and in a short last chunk
    rng = np.random.default_rng(4407)
    weighted = np.zeros((6, 6))
    weighted[np.triu_indices(6, 1)] = rng.uniform(0.1, 2.0, size=15)
    for seed, a in enumerate((complete_graph(8).sym_matrix(), SymMatrix(weighted + weighted.T))):
        assert len(support_blocks(a)) == 1
        log_dets = sample_log_dets(a, 4500, seed)
        for i in (0, 511, 512, 4499):
            assert np.linalg.slogdet(sample_w(a, seed, i).entries)[1] == log_dets[i]


def test_sample_w_draws_in_the_memory_of_one_row():
    # index 511 is the last row of its chunk: a whole chunk of scaled K_200
    # would be 512 x 19,900 normals (80 MB)
    b = scale_symmetric(complete_graph(200).sym_matrix(), residual_target=1e-10).b
    tracemalloc.start()
    try:
        w = sample_w(b, 5, 511)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # K_200 is its own total support
    assert np.array_equal(w.entries, support_chunk_w(b.entries, 5, 511, estimator._CHUNK, support_edges(b.entries)))


def test_sample_w_skips_rows_in_slices_that_continue_the_stream():
    # the rows up to a sample are drawn r = max(1, 2^15 // m) at a time:
    # r = 42 on K_40 (780 edges), 56 on the n_center = 24 counterexample
    # (577); neither divides 512, so the last slice of a chunk is short
    # (512 = 12 * 42 + 8 = 9 * 56 + 8)
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    cases = (
        (complete_graph(40).sym_matrix(), support_edges(complete_graph(40).sym_matrix().entries)),
        (build_counterexample(spec).sym_matrix(), counterexample_edges(24, spec.m_pairs)),
    )
    for a, edges in cases:
        r = (1 << 15) // len(edges)
        last = 512 // r * r
        assert last == 504
        for index in (0, r - 1, r, 2 * r + 1, last - 1, last, last + 1, 511, 512, 512 + last):
            want = support_chunk_w(a.entries, 6, index, estimator._CHUNK, edges)
            assert sample_w(a, 6, index).entries.tobytes() == want.tobytes()


def test_one_chunk_holds_the_normals_of_the_total_support():
    # a chunk holds its stacks of blocks and a slice of its normals, never
    # all of them: the (40, 200) counterexample gathers a 40 x 40 block and
    # 200 1 x 1 pairs from 1,800 normals a sample (not from 18,580), and
    # K_{100,100} one 100 x 100 block from 10,000
    bipartite = np.zeros((200, 200))
    bipartite[:100, 100:] = bipartite[100:, :100] = 1.0
    cases = (
        (build_counterexample(CounterexampleSpec(delta=0.12, n_center=40, m_pairs=200)).sym_matrix(), 40 * 40 + 200),
        (SymMatrix(bipartite), 100 * 100),
    )
    for a, block_entries in cases:
        tracemalloc.start()
        try:
            sample_log_dets(a, estimator._CHUNK, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = estimator._CHUNK * block_entries * 8
        assert peak < 1.5 * blocks


def full_w_log_dets(a, num, seed):
    """log|det W| of samples 0..num-1 from the full n x n W and one batched slogdet."""
    return np.linalg.slogdet(chunk_stream_ws(a.entries, seed, num, estimator._CHUNK))[1]


def block_edges(a):
    """Support edges inside a block of ``support_blocks``, in row-major order.

    The edges a sample draws for, where ``sample_edges``' brute force is
    too slow (n > 12).
    """
    pairs = {(i, k) for rows, cols, _ in support_blocks(a) for i in rows for k in cols}
    return [(i, k) for i, k in support_edges(a.entries) if (i, k) in pairs or (k, i) in pairs]


def stream_edges(a):
    """Edges a sample of ``a`` draws for: ``sample_edges`` up to n = 12, else ``block_edges``."""
    return sample_edges(a.entries) if a.n <= 12 else block_edges(a)


def test_one_full_block_is_bit_identical_to_the_full_w():
    rng = np.random.default_rng(4402)
    weighted = np.zeros((6, 6))
    weighted[np.triu_indices(6, 1)] = rng.uniform(0.1, 2.0, size=15)
    cases = [complete_graph(8).sym_matrix(), SymMatrix(weighted + weighted.T)]
    while len(cases) < 8:
        n = int(rng.choice([8, 10, 12]))
        cases.append(SymMatrix(random_symmetric01(rng, n, p=0.7)))
    for k, a in enumerate(cases):
        blocks = support_blocks(a)
        assert len(blocks) == 1 and blocks[0][2] == 1 and blocks[0][0] == list(range(a.n))
        assert np.array_equal(sample_log_dets(a, 1500, seed=60 + k), full_w_log_dets(a, 1500, 60 + k))


def random_support(rng, kind, n):
    """0/1 support of one kind: bipartite, disconnected, matching or mixed."""
    if kind == "mixed":
        return random_symmetric01(rng, n, p=float(rng.uniform(0.1, 0.4)))
    if kind == "matching":
        edges = random_graph_with_matching(rng, n, extra_p=0.0)
    elif kind == "bipartite":
        half = n // 2
        edges = {(i, half + int(j)) for i, j in enumerate(rng.permutation(half))}
        edges |= {(i, half + j) for i in range(half) for j in range(half) if rng.random() < 0.3}
    else:
        cut = 2 * int(rng.integers(1, n // 2))
        edges = random_graph_with_matching(rng, cut, 0.5)
        edges |= {(u + cut, v + cut) for u, v in random_graph_with_matching(rng, n - cut, 0.5)}
    label = rng.permutation(n)
    a = np.zeros((n, n))
    for u, v in edges:
        a[label[u], label[v]] = a[label[v], label[u]] = 1.0
    return a


def test_blocks_agree_with_pfaffian_and_keep_zero_decisions():
    rng = np.random.default_rng(4403)
    kinds_seen = set()
    for k in range(32):
        kind = ("bipartite", "disconnected", "matching", "mixed")[k % 4]
        n = int(rng.choice([6, 8, 10, 12, 14, 16]))
        a = random_support(rng, kind, n)
        iu = np.triu_indices(n, 1)
        has_matching = memo_matchings(n, [(int(i), int(j)) for i, j in zip(*iu) if a[i, j] > 0]) > 0
        log_dets = sample_log_dets(SymMatrix(a), 200, seed=k)
        if not has_matching:
            assert np.all(log_dets == -np.inf)
            continue
        kinds_seen.add(kind)
        ws = chunk_stream_ws(a, k, 200, estimator._CHUNK, stream_edges(SymMatrix(a)))
        log_pf, sign = pfaffian_log_stack(ws)
        assert np.all(sign != 0)
        assert float(np.max(np.abs(log_dets - 2.0 * log_pf))) <= 1e-8
    assert kinds_seen == {"bipartite", "disconnected", "matching", "mixed"}


def blocks_cut_from_full_ws(a, num, seed, edges=None):
    """log det W from the blocks of ``support_blocks`` cut out of the full Ws.

    The Ws are ``chunk_stream_ws``' over ``edges``, by default
    ``stream_edges(a)``.

    Float addition is not associative, so the sum runs in sample_log_dets'
    order: blocks of one size and kind form a group, a group's log|det|s
    are added one block at a time, in block order, and the groups are added
    in the order they first appear.
    """
    groups = {}
    for rows, cols, power in support_blocks(a):
        groups.setdefault((len(rows), power), []).append(np.ix_(rows, cols))
    ws = chunk_stream_ws(a.entries, seed, num, estimator._CHUNK, stream_edges(a) if edges is None else edges)
    log_dets = np.zeros(num)
    for (_, power), cuts in groups.items():
        per_block = np.linalg.slogdet(np.stack([np.stack([w[cut] for cut in cuts]) for w in ws]))[1]
        group = per_block[:, 0].copy()
        for b in range(1, len(cuts)):
            group += per_block[:, b]
        log_dets += power * group
    return log_dets


def many_blocks(rng, num, size):
    """Weighted support of ``num`` disjoint K_size, vertices shuffled."""
    n = num * size
    a = np.zeros((n, n))
    for t in range(num):
        block = slice(t * size, (t + 1) * size)
        a[block, block] = np.triu(rng.uniform(0.1, 2.0, (size, size)), 1)
    perm = rng.permutation(n)
    return SymMatrix((a + a.T)[np.ix_(perm, perm)])


def test_sampled_blocks_are_the_blocks_of_sample_w():
    # one layout places every normal: the blocks sample_log_dets gathers are
    # bit for bit the blocks of the full W
    rng = np.random.default_rng(4406)
    kinds_seen = set()
    for k in range(24):
        kind = ("bipartite", "disconnected", "matching", "mixed")[k % 4]
        n = int(rng.choice([6, 8, 10, 12, 14, 16]))
        a = random_support(rng, kind, n) * rng.uniform(0.1, 2.0, (n, n))
        a = SymMatrix(np.triu(a, 1) + np.triu(a, 1).T)
        if support_blocks(a) is None:
            continue
        kinds_seen.add(kind)
        assert np.array_equal(sample_log_dets(a, 300, seed=k), blocks_cut_from_full_ws(a, 300, k))
    assert kinds_seen == {"bipartite", "disconnected", "matching", "mixed"}
    # groups of many blocks: 150 1x1 bipartite pairs, 40 K_4
    for num, size in ((150, 2), (40, 4)):
        a = many_blocks(rng, num, size)
        assert len(support_blocks(a)) == num
        edges = support_edges(a.entries)  # every edge of a disjoint K_size is on a cycle cover
        assert np.array_equal(sample_log_dets(a, 40, seed=num), blocks_cut_from_full_ws(a, 40, num, edges))
    # supports whose edges are not all on a cycle cover: the counterexample
    # (a 24 x 24 bipartite pair and a 1 x 1 pair) and a random one
    spec = CounterexampleSpec(delta=0.12, n_center=24)
    cases = (
        (build_counterexample(spec).sym_matrix(), counterexample_edges(24, spec.m_pairs)),
        (lacking_total_support(4411), None),
    )
    for seed, (a, edges) in enumerate(cases):
        assert np.array_equal(sample_log_dets(a, 40, seed=seed), blocks_cut_from_full_ws(a, 40, seed, edges))
    # the counterexample draws 577 normals a sample, so a chunk draws slices
    # of 56 rows and a short one of 8 (512 = 9 * 56 + 8): every count cuts
    # the slices differently, and any thread count gives the same bits
    a, edges = cases[0]
    want = blocks_cut_from_full_ws(a, 700, 7, edges)
    for num in (1, 56, 57, 511, 512, 700):
        for threads in (1, 2, 3):
            assert np.array_equal(sample_log_dets(a, num, seed=7, threads=threads), want[:num])


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
    # at most 5 % of the samples fall below exp(-2 gamma n) haf (gamma: Euler's
    # constant), and the share above C haf decays in C
    a = complete_graph(12).sym_matrix()
    shifted = sample_log_dets(a, 10_000, seed=6) - hafnian_exact(a).log_value
    assert float(np.mean(shifted < -2.0 * np.euler_gamma * 12)) <= 0.05
    ups = [float(np.mean(shifted > math.log(c))) for c in (1.0, 2.0, 4.0, 8.0)]
    assert all(x >= y for x, y in zip(ups, ups[1:]))
