"""Gaussian determinant estimator of the hafnian.

A sample is the skew-symmetric matrix W with W[i, j] = g_ij * sqrt(A[i, j])
for i < j, where the g_ij are standard normals; det(W) is an unbiased
estimator of haf(A).  Every nonzero term of det(W) is a cycle cover of the
support, so det(W) is a polynomial in the entries of the total support
alone, the edges that lie on some cycle cover.  A sample's row of normals
therefore gives one normal to each edge of the total support (A[i, j] > 0,
i < j, on a cycle cover), in row-major order, and nothing to any other
entry; a support without a perfect matching draws none.  On a support that
is its own total support (K_n, a connected regular graph, any scalable
matrix) that is every support edge, and on a complete support the whole
upper triangle.  That rule is coded once, in the layout ``_plan`` builds
per matrix: every W and every block of W is one gather of a row of normals
through it.  The rows come from counter-based streams (``rng``): sample i
is row i % _CHUNK of the rows of m normals that the stream keyed by
(seed, i // _CHUNK) gives, m being the edge count of the total support;
a spectral trial t (``_trial_ws``) is the first row of stream (seed, t).
Batches of W are evaluated in log domain by LAPACK's LU
(``np.linalg.slogdet``) and aggregated with log-sum-exp, since the values
span hundreds of orders of magnitude once n is large.  Whether det(W) is
zero is decided exactly, once per matrix, by a perfect-matching check on
the support of A: rounding leaves tiny nonzero pivots where the true
determinant vanishes, so no floating-point kernel can decide it.  The
Parlett-Reid Pfaffian of ``sample_w`` (``linalg.pfaffian_log_stack``) is
the oracle that carries the sign.

The pass that finds the total support from the matching of the zero
decision (``exact.support_blocks``) returns its blocks, over which det(W)
factors: a bipartite pair of parts U and V contributes det(W[U, V])^2, any
other block S its skew block W[S, S].  Each chunk holds one sample-major
stack of blocks per group of same-sized blocks.  It reads its rows
through ``_draws``, one slice of at most _SLICE normals (or one row) at a
time, and gathers each slice into every stack before the next is drawn,
so it never holds more of its normals than one slice; then it takes one
batched ``slogdet`` per stack, adding a group's log-dets in block order.
A single non-bipartite block over all vertices is the full W.

Sampling is embarrassingly parallel: each chunk draws from its own
stream, chunk boundaries do not depend on the worker count, and aggregation
happens over the index-ordered array, so results are bit-identical for any
``threads`` value.  A short last chunk draws a prefix of the full chunk's
normals, so sample i does not depend on ``num_samples`` either.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .exact import support_blocks
from .linalg import SkewMatrix, SymMatrix, allocate
from .rng import check_seed, gaussian_rows, stream

__all__ = [
    "EstimatorSummary",
    "sample_w",
    "sample_log_dets",
    "check_arguments",
    "estimate",
]

# samples per stream: part of the stream contract, so changing it changes
# every sampled bit past sample 0.  It also bounds what each pool thread
# holds: the block stacks of one chunk, 512 24x24 blocks and 512 1x1 pairs
# on the n=50 counterexample, which peaks at 2.6 MiB of traced allocation.
# numpy's batched slogdet releases the GIL only for a stack of more than
# 500 matrices, so a full chunk factors in parallel with other pool threads
# and a short last chunk does not; factoring a chunk in slices of fewer
# rows would serialize the pool.
_CHUNK = 512

# normals per draw of ``_draws`` (256 KiB), whose buffer stays in cache while it is gathered
_SLICE = 1 << 15


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo aggregate over det(W) samples.

    ``mean_det_log`` is log of the arithmetic mean of det values (log-sum-exp
    over samples); by Jensen it dominates ``logdet_mean``.  Samples with
    det = 0 enter the quantile pool as -inf and are tallied in
    ``num_zero_det``; ``logdet_std`` is taken over the finite samples.
    Zeros are decided exactly by matching: ``num_zero_det`` equals
    ``num_samples`` when the support of A has no perfect matching, and is
    0 otherwise (a singular draw has probability zero).  Given the exact
    log haf, ``error_median`` and ``error_max`` are the median and max of
    |log haf - log det| over the samples.
    """

    n: int
    num_samples: int
    seed: int
    mean_det_log: float
    logdet_mean: float
    logdet_std: float
    logdet_quantiles: dict
    num_zero_det: int
    exact_log_haf: float | None = None
    error_median: float | None = None
    error_max: float | None = None


def _layout(a: SymMatrix, blocks=None) -> tuple[int, np.ndarray, np.ndarray]:
    """``(m, pos, weight)``: where the normals of one row go in W.

    A row holds m normals and gives the k-th to the k-th edge, in row-major
    order, of A's support (A[i, j] > 0, i < j), or of its part inside
    ``blocks`` (``exact.support_blocks``) when they are given.  ``pos[i, j]
    = pos[j, i]`` is the position of edge {i, j}; ``weight`` is
    +sqrt(A[i, j]) above the diagonal, -sqrt(A[i, j]) below it and 0 off
    the edges.  Gathering through the whole tables gives W, through
    ``np.ix_(rows, cols)`` cuts of them the block W[rows, cols].
    """
    edges = a.entries > 0
    if blocks is not None:
        inside = np.zeros_like(edges)
        for rows, cols, _ in blocks:
            inside[np.ix_(rows, cols)] = True
        edges &= inside | inside.T
    upper = np.triu(edges, 1)
    m = int(np.count_nonzero(upper))
    pos = np.zeros((a.n, a.n), dtype=np.intp)
    pos[upper] = np.arange(m)  # a boolean mask visits the upper triangle row-major
    pos += pos.T
    weight = np.sqrt(np.where(upper, a.entries, 0.0))
    weight -= weight.T
    return m, pos, weight


def _plan(a: SymMatrix):
    """``(m, pos, weight, blocks)`` of a sample, or None when every det(W) is zero.

    The layout covers the edges of the total support only: the blocks of
    ``exact.support_blocks``, found from one perfect matching of A's
    support.  Without one (or at odd n) there is nothing to draw.
    """
    blocks = support_blocks(a)
    if blocks is None:
        return None
    return (*_layout(a, blocks), blocks)


def _gather(x: np.ndarray, pos: np.ndarray, weight: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x[..., pos] * weight`` with every zero +0.0, written into ``out`` when given.

    LU's log|det| ignores the sign of a zero; the SVD of ``spectrum`` need
    not, as LAPACK's Householder step takes the sign of an entry.  Every
    position is in range, so ``mode="clip"`` changes no value; it lets
    ``np.take`` write straight into ``out``, where the default mode would
    gather into a buffer and copy it.
    """
    if x.shape[-1] == 0:  # no support edges: every weight is 0, so gather from one zero
        x = np.zeros(x.shape[:-1] + (1,))
    out = np.take(x, pos, axis=-1, out=out, mode="clip")
    out *= weight
    out += 0.0  # -0.0 + 0.0 is +0.0, and every other value stays as it is
    return out


def _draws(seed: int, key: int, rows: int, m: int):
    """Rows 0..rows-1 of stream (seed, key), m normals each, as ``(rows, part)`` slices in order.

    Each ``part`` holds at most ``_SLICE`` normals (and at least one row),
    drawn into one buffer that the next slice overwrites.
    """
    gen = stream(seed, key)
    step = max(1, _SLICE // m)
    buf = np.empty((min(step, rows), m))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        yield slice(r0, r1), gaussian_rows(gen, buf[: r1 - r0])


def _trial_ws(a: SymMatrix, trials: int, seed: int):
    """W of trials 0..trials-1: row 0 of stream (seed, t), into one reused row, on A's whole support."""
    m, pos, weight = _layout(a)
    row = np.empty(m)
    for t in range(trials):
        yield _gather(gaussian_rows(stream(seed, t), row), pos, weight)


def sample_w(a: SymMatrix, seed: int, index: int) -> SkewMatrix:
    """One realization of W = sqrt(A) (element-wise) * skew Gaussian.

    This is the W of sample ``index`` of ``sample_log_dets``: the k-th edge
    of A's total support in row-major order takes the k-th normal of row
    index % _CHUNK of stream (seed, index // _CHUNK) (``_plan``); entries
    off the total support are +0.0, and a support without a perfect
    matching gives the zero matrix.  The rows up to its own are read
    through ``_draws``, as a chunk reads them, and all but the last are
    discarded, so memory stays O(n^2 + m) at any index.
    """
    if not (0 <= index < 1 << 64):
        raise InputError("sample index must fit in an unsigned 64-bit integer")
    plan = _plan(a)
    if plan is None:
        return SkewMatrix(np.zeros((a.n, a.n)))
    m, pos, weight, _ = plan
    *_, (_, part) = _draws(seed, index // _CHUNK, index % _CHUNK + 1, m)
    return SkewMatrix(_gather(part[-1], pos, weight))


def _block_groups(pos: np.ndarray, weight: np.ndarray, blocks) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Gather plan of ``support_blocks``' blocks: ``(pos, weight, power)`` per block size and kind.

    ``pos`` and ``weight`` stack the layout tables cut to each block, so
    that ``_gather`` of rows of normals gives every block of the group,
    sample-major: (rows, blocks, r, c).
    """
    groups: dict[tuple[int, int], list] = {}
    for rows, cols, power in blocks:
        cut = np.ix_(rows, cols)
        groups.setdefault((len(rows), power), []).append((pos[cut], weight[cut]))
    return [
        (np.stack([p for p, _ in blocks]), np.stack([w for _, w in blocks]), power)
        for (_, power), blocks in groups.items()
    ]


def _logdet_chunk(groups, num_normals: int, seed: int, first: int, count: int) -> np.ndarray:
    stacks = [np.empty((count, *pos.shape)) for pos, _, _ in groups]
    for rows, part in _draws(seed, first // _CHUNK, count, num_normals):
        for (pos, weight, _), stack in zip(groups, stacks):
            _gather(part, pos, weight, out=stack[rows])
    log_dets = np.zeros(count)
    for (_, _, power), stack in zip(groups, stacks):
        # det(W_c) is Pf(W_c)^2 or det(B_c)^2 >= 0; |det| absorbs signs flipped by rounding.
        # A stack of the whole chunk keeps slogdet off the GIL; cumsum adds its blocks in block order
        log_dets += power * np.cumsum(np.linalg.slogdet(stack)[1], axis=1)[:, -1]
    return log_dets


def check_arguments(num_samples: int, seed: int, threads: int, quantiles=()) -> int:
    """Refuse what no sampling run accepts, before any work on A; returns the seed as an int."""
    for q in quantiles:
        if not (0.0 < q < 1.0):
            raise InputError(f"quantiles must lie in (0, 1), got {q}")
    seed = check_seed(seed)
    if num_samples < 1:
        raise InputError("num_samples must be >= 1")
    if threads < 1:
        raise InputError("threads must be >= 1")
    return seed


def sample_log_dets(a: SymMatrix, num_samples: int, seed: int, threads: int = 1) -> np.ndarray:
    """log det(W) for sample indices 0..num_samples-1.

    A support without a perfect matching (or an odd dimension) makes every
    det(W) exactly zero: that is decided once, by a matching check, and the
    result is all -inf without drawing any samples.  Otherwise each chunk
    of _CHUNK samples draws one normal per edge of the total support per
    sample from its own stream, sample i is the W of
    ``sample_w(a, seed, i)``, and det(W) is taken block by block over the blocks of the total support.
    """
    seed = check_arguments(num_samples, seed, threads)
    log_dets = allocate(num_samples, f"num_samples={num_samples}: no room for one log-det per sample")
    plan = _plan(a)
    if plan is None:
        log_dets.fill(-np.inf)
        return log_dets
    m = plan[0]
    groups = _block_groups(*plan[1:])
    del plan  # the n x n layout tables: the chunks need only their cuts in ``groups``
    starts = list(range(0, num_samples, _CHUNK))

    def work(first: int):
        count = min(_CHUNK, num_samples - first)
        log_dets[first : first + count] = _logdet_chunk(groups, m, seed, first, count)

    if threads == 1 or len(starts) == 1:
        for first in starts:
            work(first)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    return log_dets


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if m == -math.inf:
        return -math.inf
    t = np.subtract(values, m)
    np.exp(t, out=t)
    return m + math.log(float(np.sum(t)))


def _quantiles(sorted_vals: np.ndarray, qs) -> dict:
    """Linear-interpolation quantiles that stay -inf instead of going NaN."""
    n = sorted_vals.size
    out = {}
    for q in qs:
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        a, b = float(sorted_vals[lo]), float(sorted_vals[hi])
        if a == b or a == -math.inf:
            out[float(q)] = a
        else:
            frac = pos - lo
            out[float(q)] = a + frac * (b - a)
    return out


def estimate(
    a: SymMatrix,
    num_samples: int,
    seed: int,
    quantiles=(0.05, 0.25, 0.5, 0.75, 0.95),
    exact_log_haf: float | None = None,
    threads: int = 1,
) -> EstimatorSummary:
    """Monte Carlo estimate of haf(a) from num_samples determinant draws.

    If the support of ``a`` admits no perfect matching every determinant is
    zero and ``mean_det_log`` comes back -inf; that is a result, not an
    error.  Supplying ``exact_log_haf`` fills ``error_median`` and
    ``error_max``.
    """
    a.require_even()
    check_arguments(num_samples, seed, threads, quantiles)
    log_dets = sample_log_dets(a, num_samples, seed, threads=threads)
    # the summary's bits depend on summing in index order, so the sums come
    # first; then the array is sorted, and reused for the errors, in place
    num_zero = int(np.count_nonzero(log_dets == -np.inf))
    mean_det_log = _logsumexp(log_dets) - math.log(num_samples)
    if num_zero > 0:
        logdet_mean = -math.inf
        finite = log_dets[np.isfinite(log_dets)]
    else:
        logdet_mean = float(np.mean(log_dets))
        finite = log_dets
    logdet_std = float(np.std(finite)) if finite.size else 0.0
    log_dets.sort()
    qmap = _quantiles(log_dets, quantiles)
    error_median = error_max = None
    if exact_log_haf is not None:
        errs = log_dets
        with np.errstate(invalid="ignore"):
            np.subtract(exact_log_haf, errs, out=errs)
        np.abs(errs, out=errs)
        errs[np.isnan(errs)] = 0.0  # both -inf: det and haf are exactly zero together
        error_max = float(np.max(errs))
        error_median = float(np.median(errs, overwrite_input=True))
    return EstimatorSummary(
        n=a.n,
        num_samples=num_samples,
        seed=seed,
        mean_det_log=mean_det_log,
        logdet_mean=logdet_mean,
        logdet_std=logdet_std,
        logdet_quantiles=qmap,
        num_zero_det=num_zero,
        exact_log_haf=exact_log_haf,
        error_median=error_median,
        error_max=error_max,
    )
