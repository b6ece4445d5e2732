"""Symmetric doubly stochastic scaling B = D A D and related audits.

The iteration is the symmetric fixed point d_i <- d_i / sqrt(sum_j d_i
A_ij d_j): both sides of the scaling are updated at once, so every iterate
is exactly symmetric.  An exact scaling exists iff A has total support:
every edge of its support lies on a cycle cover (Sinkhorn-Knopp 1967,
Csima-Datta 1972).  A support with a cycle cover but without total support,
such as the center-clique counterexample's, still has a scaling within any
residual target, with the entries off the total support near 0, but the
iteration approaches it only like 1/k.  So a run still going after 248
steps decides total support once, and on such a support takes its result
from the scaling of A restricted to its total support (see
``_without_total_support``): B keeps the support of A, and ``iterations``
counts the 248 steps plus those on the restriction.  A support without a
cycle cover has no scaling.  When no scaling is found, the result is
returned with ``converged=False`` instead of raising, because
non-scalability is a legitimate verdict the CLI reports.
The iteration is sequential, so its cost is interpreter overhead per step:
steps run in blocks into buffers allocated per block and the stopping
rules are checked once per block, which gives bit for bit the result of
checking after every step (see ``_fixed_point``).  It runs on
A' = A / 4^k, with k chosen so that max A' lies in [1, 4) (or above, where
that would push a positive entry below the normal range), and returns
d = d' / 2^k: a power of two commutes with rounding, so every iterate is
the one on A times 2^k, bit for bit, while the divergence rule bounds only
the spread max d' / min d', so the verdict depends neither on the units of
A nor on where its blocks sit.  The entry-size audit compares the scaled
entries with the n^-theta / n^-2nu bounds of the concentration theorem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .exact import _cover_components, _max_matching
from .linalg import SymMatrix

__all__ = [
    "ScalingResult",
    "ScalingAudit",
    "scale_symmetric",
    "audit_entry_bounds",
    "check_audit_bounds",
    "n_power",
]


@dataclass(frozen=True)
class ScalingResult:
    """A scaling B = diag(d) A diag(d), its fields in report order; ``b`` is not printed.

    ``observed_exponents`` is ``(theta, nu)`` with max entry = n^-theta and
    min positive entry = n^-2nu; a component is None when its entry is not
    a positive finite number.
    """

    n: int
    converged: bool
    iterations: int
    residual: float
    max_entry: float
    min_positive_entry: float
    observed_exponents: tuple
    d: np.ndarray
    b: SymMatrix = field(repr=False)

    def __post_init__(self):
        d = np.array(self.d, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)


def scale_symmetric(
    a: SymMatrix,
    residual_target: float | None = None,
    max_iterations: int = 10_000,
) -> ScalingResult:
    """Scale a to (approximately) doubly stochastic form B = diag(d) A diag(d).

    Parameters
    ----------
    a : SymMatrix
        Nonnegative symmetric input; every row must contain a positive entry.
    residual_target : float, optional
        Stop once max_i |row_sum_i(B) - 1| falls below this.  Defaults to
        1/n, the tolerance at which near-stochasticity already pins the
        magnitude of the largest entry.
    max_iterations : int
        Iteration cap; hitting it yields ``converged=False``.

    The start 1/sqrt(row sums) is exact for regular graphs.  B is
    (d d^T) * A, and (d_i A_ij) d_j on the entries where d_i d_j
    overflows, as it can when d spans the range between normal and
    subnormal entries; ``NumericalError`` is raised only when an entry of
    B is still not finite.
    """
    if residual_target is None:
        residual_target = 1.0 / a.n
    if not 0 < residual_target < math.inf:
        raise InputError(f"residual_target must be positive and finite, got {residual_target}")
    if max_iterations < 1:
        raise InputError("max_iterations must be >= 1")
    top = np.frexp(a.entries.max())[1]
    low = np.frexp(a.entries.min(initial=np.inf, where=a.entries > 0))[1]
    k = int(min((top - 1) // 2, max(0, (low + 1021) // 2)))
    arr = np.ldexp(a.entries, -2 * k)
    row = arr.sum(axis=1)
    if np.any(row == 0):
        raise InputError("input has an all-zero row; scaling undefined")
    d, residual, iterations, converged = _fixed_point(
        arr, 1.0 / np.sqrt(row), residual_target, min(max_iterations, _SETTLED)
    )
    if not converged and iterations == _SETTLED < max_iterations:
        # still going: decide total support once, else go on with the same steps
        run = _without_total_support(arr, residual_target, max_iterations - _SETTLED)
        d, residual, steps, converged = run or _fixed_point(
            arr, d, residual_target, max_iterations - _SETTLED
        )
        iterations += steps
    b_arr = _product(arr, d)
    if not np.all(np.isfinite(b_arr)):
        raise NumericalError(f"D*A*D overflowed float64 (residual {residual:.3g})")
    max_entry = float(b_arr.max())
    min_positive = float(b_arr.min(initial=math.inf, where=b_arr > 0))
    logn = math.log(a.n)
    return ScalingResult(
        n=a.n,
        converged=converged,
        iterations=iterations,
        residual=residual,
        max_entry=max_entry,
        min_positive_entry=min_positive,
        observed_exponents=(
            -math.log(max_entry) / logn if max_entry > 0 else None,
            -math.log(min_positive) / (2.0 * logn) if math.isfinite(min_positive) else None,
        ),
        d=np.ldexp(d, -k),
        b=SymMatrix(b_arr),
    )


_FIRST_BLOCK = 8
_MAX_BLOCK = 256
# steps taken before the blocks reach _MAX_BLOCK: 8 + 16 + 32 + 64 + 128 = 248
_SETTLED = _MAX_BLOCK - _FIRST_BLOCK
_SPREAD = 1e200


def _product(arr, d):
    """B = (d d^T) * A, with (d_i A_ij) d_j where d_i d_j overflows; a non-finite entry is left for the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        b_arr = np.outer(d, d) * arr
        # where d_i d_j overflows, d_i A'_ij first can stay in range
        i, j = np.nonzero(np.triu(~np.isfinite(b_arr)))
        b_arr[i, j] = b_arr[j, i] = d[i] * arr[i, j] * d[j]
    return b_arr


def _without_total_support(arr, residual_target, max_iterations):
    """``_fixed_point``'s result for a support with a cycle cover but no total support, else None.

    The cycle cover is a perfect matching of the bipartite double cover
    (row i joined to column k wherever A_ik > 0), and its components
    (``exact._cover_components``) split A into R, the entries on some cycle
    cover, and the rest.  R is scaled to half the target.  Each component
    C is numbered depth(C) - height(C) in the DAG that the other entries
    make between components; the transpose maps that DAG onto itself
    reversed, so a row and a column of the same R entry get opposite
    numbers, and every other entry gets a sum of at most -2.  Then d_R
    times 2^(s * number) keeps every entry of R in B and scales the rest
    by at most 4^-s: the least s >= 1 whose start meets the target at
    step 0 of ``_fixed_point``, within the spread bound and keeping every
    entry of B positive, gives the result, with R's steps as its
    iterations.  None where R does not scale or no such s exists.
    """
    n = arr.shape[0]
    support = arr > 0
    adj = [np.flatnonzero(row).tolist() for row in support]
    match = _max_matching(2 * n, [[n + k for k in row] for row in adj] + adj)
    if -1 in match:
        return None  # no cycle cover: no scaling exists
    cover = [k - n for k in match[:n]]
    label = np.array(_cover_components(adj, cover))
    column = label[np.argsort(cover)]  # entry (i, k) lies on R iff label[i] == column[k]
    off = support & (label[:, None] != column)
    if not off.any():
        return None  # total support: the plain iteration converges
    i, k = np.nonzero(off)
    edges = sorted(set(zip(label[i].tolist(), column[k].tolist())))
    depth, height = [0] * n, [0] * n
    for u, v in reversed(edges):  # labels fall along every edge, so sources come first
        depth[v] = max(depth[v], depth[u] + 1)
    for u, v in edges:
        height[u] = max(height[u], height[v] + 1)
    number = (np.array(depth) - np.array(height))[label]
    restricted = np.where(off, 0.0, arr)
    d, _, steps, converged = _fixed_point(
        restricted, 1.0 / np.sqrt(restricted.sum(axis=1)), residual_target / 2, max_iterations
    )
    if not converged:
        return None
    for s in itertools.count(1):
        start = np.ldexp(d, s * number)
        if start.max() > _SPREAD * start.min():
            return None
        d_s, residual, _, converged = _fixed_point(arr, start, residual_target, 0)
        if converged:
            if not np.array_equal(_product(arr, d_s) > 0, support):
                return None  # a larger s only makes the entries off R smaller
            return d_s, residual, steps, True


def _fixed_point(arr, d, residual_target, max_iterations):
    """Iterate d <- d / sqrt(d * (A d)) until a stopping rule fires.

    Steps run in blocks of 8, 16, ... up to 256 steps, each writing into
    buffers allocated once per block and keeping every r_k = d_k * (A d_k)
    and d_{k+1}; the stopping rules are then evaluated over the whole
    block, in this order at each step k:
    a non-finite or nonpositive r_k stops without updating the residual;
    residual max|r_k - 1| <= target converges; k >= max_iterations stops;
    a d_{k+1} whose spread max d / min d exceeds 1e200 stops before the
    step is taken (the spread diverges when the support admits no doubly
    stochastic scaling; a step's result does not depend on the level of d,
    so a bounded spread keeps d finite wherever the scaling's diagonal
    sits).  The first step at which a rule fires decides the result, so it
    is the same as that of one step at a time; steps computed past it are
    discarded.

    Returns ``(d, residual, iterations, converged)``.
    """
    # arr is C-contiguous float64 (SymMatrix), so arr.dot(d, out=) is the same
    # BLAS gemv as arr @ d, at less cost per call
    matvec, multiply, sqrt, divide = arr.dot, np.multiply, np.sqrt, np.divide
    root = np.empty_like(d)
    iterations = 0
    residual = math.inf
    block = _FIRST_BLOCK
    while True:
        m = min(block, max_iterations - iterations + 1)
        # sized to the block, so a call that stops early allocates little
        ds = np.empty((m + 1, d.size))
        rs = np.empty((m, d.size))
        ds[0] = d
        d_rows, r_rows = list(ds), list(rs)  # row views made once per block
        # overflow and nan in the steps past a stop are expected and discarded
        with np.errstate(all="ignore"):
            for j in range(m):
                d_j, r_j = d_rows[j], r_rows[j]
                matvec(d_j, out=r_j)
                multiply(d_j, r_j, out=r_j)
                sqrt(r_j, out=root)
                divide(d_j, root, out=d_rows[j + 1])
            bad = ~np.all(np.isfinite(rs), axis=1) | np.any(rs <= 0, axis=1)
            res = np.max(np.abs(rs - 1.0), axis=1)
            converged = ~bad & (res <= residual_target)
            d_new = ds[1:]
            diverged = np.max(d_new, axis=1) > _SPREAD * np.min(d_new, axis=1)
        capped = iterations + np.arange(m) >= max_iterations
        fired = np.flatnonzero(bad | converged | capped | diverged)
        if fired.size:
            j = int(fired[0])
            if not bad[j]:
                residual = float(res[j])
            return ds[j].copy(), residual, iterations + j, bool(converged[j])
        residual = float(res[-1])
        iterations += m
        d = ds[m]
        block = min(2 * block, _MAX_BLOCK)


@dataclass(frozen=True)
class ScalingAudit:
    """Entry-size audit of a scaled matrix against n^-theta / n^-2nu bounds; None where no bound was given."""

    max_ok: bool | None
    min_ok: bool | None
    observed_exponents: tuple


def n_power(n: int, exponent: float) -> float:
    """n^exponent, or +inf where that overflows float64."""
    try:
        return n**exponent
    except OverflowError:
        return math.inf


def check_audit_bounds(theta: float | None, nu: float | None) -> None:
    """Refuse a bound that no entry can be compared with: a given theta or nu must be finite."""
    for name, bound in (("theta", theta), ("nu", nu)):
        if bound is not None and not math.isfinite(bound):
            raise InputError(f"{name} must be finite, got {bound}")


def audit_entry_bounds(result: ScalingResult, theta: float | None, nu: float | None) -> ScalingAudit:
    """Check max B_ij <= n^-theta and min positive B_ij >= n^-2nu; a bound past float64 is +inf.

    A bound given as None is not checked, and its verdict is None.
    ``observed_exponents`` inverts both bounds: the first component is the
    theta actually achieved by the max entry, the second the nu achieved by
    the smallest positive entry.
    """
    check_audit_bounds(theta, nu)
    if not result.converged:
        raise InputError("entry-bound audit requires a converged scaling result")
    return ScalingAudit(
        max_ok=None if theta is None else bool(result.max_entry <= n_power(result.n, -theta)),
        min_ok=None if nu is None else bool(result.min_positive_entry >= n_power(result.n, -2.0 * nu)),
        observed_exponents=result.observed_exponents,
    )
