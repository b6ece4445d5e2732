"""Gaussian determinant estimator of the hafnian.

A sample is the skew-symmetric matrix W with W[i, j] = g_ij * sqrt(A[i, j])
for i < j, where the g_ij are standard normals drawn from the counter-based
stream keyed by (seed, sample index); det(W) is an unbiased estimator of
haf(A).  Batches of W are evaluated in log domain by LAPACK's LU
(``np.linalg.slogdet``) and aggregated with log-sum-exp, since the values
span hundreds of orders of magnitude once n is large.  Whether det(W) is
zero is decided exactly, once per matrix, by a perfect-matching check on
the support of A: rounding leaves tiny nonzero pivots where the true
determinant vanishes, so no floating-point kernel can decide it.  The
Parlett-Reid Pfaffian in ``sample_log_det`` is the single-sample oracle
that carries the sign.

Sampling is embarrassingly parallel: indices are processed in fixed-size
chunks whose boundaries do not depend on the worker count, and aggregation
happens over the index-ordered array, so results are bit-identical for any
``threads`` value.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .exact import matching_exists
from .graphs import large_entries_graph
from .linalg import SkewMatrix, SymMatrix, pfaffian_log
from .rng import check_seed, gaussian_block, gaussian_blocks

__all__ = [
    "ErrorStats",
    "EstimatorSummary",
    "sample_w",
    "sample_log_det",
    "sample_log_dets",
    "estimate",
    "barvinok_envelope",
]

log = logging.getLogger(__name__)

# fixed chunk size; must not depend on thread count.  It bounds what each
# pool thread holds: the W stack and normals of one n=50 chunk take 29 MiB.
_CHUNK = 1024


@dataclass(frozen=True)
class ErrorStats:
    median_abs_error: float
    max_abs_error: float


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo aggregate over det(W) samples.

    ``mean_det_log`` is log of the arithmetic mean of det values (log-sum-exp
    over samples); by Jensen it dominates ``logdet_mean``.  Samples with
    det = 0 enter the quantile pool as -inf and are tallied in
    ``num_zero_det``; ``logdet_std`` is taken over the finite samples.
    Zeros are decided exactly by matching: ``num_zero_det`` equals
    ``num_samples`` when the support of A has no perfect matching, and is
    0 otherwise (a singular draw has probability zero).
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
    error_stats: ErrorStats | None = None


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def sample_w(a: SymMatrix, seed: int, index: int) -> SkewMatrix:
    """One realization of W = sqrt(A) (element-wise) * skew Gaussian.

    The (i, j) entry consumes the normals of stream (seed, index) in
    row-major upper-triangle order; identical arguments give a bit-identical
    matrix regardless of how many other samples are drawn around it.
    """
    n = a.n
    iu, ju = _triangle(n)
    g = gaussian_block(seed, index, iu.size)
    w = np.zeros((n, n))
    w[iu, ju] = g * np.sqrt(a.entries[iu, ju])
    w -= w.T
    return SkewMatrix(w)


def _logdet_chunk(sqrt_tri: np.ndarray, n: int, seed: int, first: int, count: int) -> np.ndarray:
    x = gaussian_blocks(seed, first, count, sqrt_tri.size)
    x *= sqrt_tri
    iu, ju = _triangle(n)
    ws = np.zeros((count, n, n))
    ws[:, iu, ju] = x
    ws[:, ju, iu] = np.negative(x, out=x)  # in place: no stack-sized temporary
    # det(W) = Pf(W)^2 >= 0; the absolute value absorbs signs flipped by rounding
    return np.linalg.slogdet(ws)[1]


def sample_log_dets(a: SymMatrix, num_samples: int, seed: int, threads: int = 1) -> np.ndarray:
    """log det(W) for sample indices 0..num_samples-1.

    A support without a perfect matching (or an odd dimension) makes every
    det(W) exactly zero: that is decided once, by a matching check, and the
    result is all -inf without drawing any samples.
    """
    seed = check_seed(seed)
    if num_samples < 1:
        raise InputError("num_samples must be >= 1")
    if threads < 1:
        raise InputError("threads must be >= 1")
    n = a.n
    if n % 2 != 0 or not matching_exists(large_entries_graph(a, 0.0)):
        return np.full(num_samples, -np.inf)
    iu, ju = _triangle(n)
    sqrt_tri = np.sqrt(a.entries[iu, ju])
    log_dets = np.empty(num_samples)
    starts = list(range(0, num_samples, _CHUNK))

    def work(first: int):
        count = min(_CHUNK, num_samples - first)
        log_dets[first : first + count] = _logdet_chunk(sqrt_tri, n, seed, first, count)

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
    return m + math.log(float(np.sum(np.exp(values - m))))


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
    error.  Supplying ``exact_log_haf`` fills ``error_stats`` with the
    median and max of |log haf - log det| over the samples.
    """
    a.require_even()
    for q in quantiles:
        if not (0.0 < q < 1.0):
            raise InputError(f"quantiles must lie in (0, 1), got {q}")
    log_dets = sample_log_dets(a, num_samples, seed, threads=threads)
    num_zero = int(np.sum(log_dets == -np.inf))
    mean_det_log = _logsumexp(log_dets) - math.log(num_samples)
    finite = log_dets[np.isfinite(log_dets)]
    if num_zero > 0:
        logdet_mean = -math.inf
    else:
        logdet_mean = float(np.mean(log_dets))
    logdet_std = float(np.std(finite)) if finite.size else 0.0
    qmap = _quantiles(np.sort(log_dets), quantiles)
    error_stats = None
    if exact_log_haf is not None:
        with np.errstate(invalid="ignore"):
            errs = np.abs(exact_log_haf - log_dets)
        errs[np.isnan(errs)] = 0.0  # both -inf: det and haf are exactly zero together
        error_stats = ErrorStats(
            median_abs_error=float(np.median(errs)),
            max_abs_error=float(np.max(errs)),
        )
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
        error_stats=error_stats,
    )


def sample_log_det(a: SymMatrix, seed: int, index: int) -> tuple[float, int]:
    """``(log det W, sign Pf W)`` of sample ``index``, from the Pfaffian oracle."""
    log_pf, sign = pfaffian_log(sample_w(a, seed, index))
    return 2.0 * log_pf, sign


def barvinok_envelope(
    log_dets: np.ndarray, log_haf: float, n: int, upper_factors=(1.0, 2.0, 4.0, 8.0)
) -> dict:
    """Empirical check of the two-sided envelope around haf(A).

    Returns the fraction of samples above C*haf for each C and the fraction
    below exp(-2*gamma*n)*haf (gamma = Euler's constant).  A heavy lower
    fraction is logged as a warning; callers decide whether to care.
    """
    shifted = log_dets - log_haf
    upper = {float(c): float(np.mean(shifted > math.log(c))) for c in upper_factors}
    lower_cut = -2.0 * np.euler_gamma * n
    lower = float(np.mean(shifted < lower_cut))
    if lower > 0.05:
        log.warning(
            "envelope: %.1f%% of samples fell below exp(-2 gamma n) haf (n=%d)",
            100.0 * lower,
            n,
        )
    return {"upper_fractions": upper, "lower_fraction": lower, "lower_cut": lower_cut}
