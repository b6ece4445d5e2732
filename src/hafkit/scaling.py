"""Symmetric doubly stochastic scaling B = D A D and related audits.

The iteration is the symmetric fixed point d_i <- d_i / sqrt(sum_j d_i
A_ij d_j): both sides of the scaling are updated at once, so every iterate
is exactly symmetric.  Convergence requires the support of A to contain a
perfect matching; when it does not, the iteration stalls and the result is
returned with ``converged=False`` instead of raising, because
non-scalability is a legitimate verdict the CLI reports.  The entry-size
audit compares the scaled entries with the n^-theta / n^-2nu bounds of the
concentration theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import SymMatrix

__all__ = [
    "ScalingResult",
    "ScalingAudit",
    "scale_symmetric",
    "audit_entry_bounds",
]


@dataclass(frozen=True)
class ScalingResult:
    d: np.ndarray
    b: SymMatrix
    residual: float
    iterations: int
    max_entry: float
    min_positive_entry: float
    converged: bool

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def observed_exponents(self) -> tuple:
        """``(theta, nu)`` with max entry = n^-theta and min positive entry = n^-2nu.

        A component is None when its entry is not a positive finite number.
        """
        logn = math.log(self.b.n)
        return (
            -math.log(self.max_entry) / logn if self.max_entry > 0 else None,
            -math.log(self.min_positive_entry) / (2.0 * logn)
            if math.isfinite(self.min_positive_entry)
            else None,
        )


def scale_symmetric(
    a: SymMatrix,
    residual_target: float | None = None,
    max_iterations: int = 10_000,
    d0: np.ndarray | None = None,
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
    d0 : array, optional
        Positive starting diagonal.  The default 1/sqrt(row sums) is exact
        for regular graphs; the limit B is the same for any start.
    """
    arr = a.entries
    n = a.n
    if residual_target is None:
        residual_target = 1.0 / n
    if residual_target <= 0:
        raise InputError("residual_target must be positive")
    if max_iterations < 1:
        raise InputError("max_iterations must be >= 1")
    row = arr.sum(axis=1)
    if np.any(row == 0):
        raise InputError("input has an all-zero row; scaling undefined")
    if d0 is None:
        d = 1.0 / np.sqrt(row)
    else:
        d = np.asarray(d0, dtype=np.float64).copy()
        if d.shape != (n,) or np.any(d <= 0) or not np.all(np.isfinite(d)):
            raise InputError("d0 must be a length-n vector of positive finite reals")
    iterations = 0
    converged = False
    residual = math.inf
    while True:
        r = d * (arr @ d)
        if not np.all(np.isfinite(r)) or np.any(r <= 0):
            break
        residual = float(np.max(np.abs(r - 1.0)))
        if residual <= residual_target:
            converged = True
            break
        if iterations >= max_iterations:
            break
        d_new = d / np.sqrt(r)
        # diverging d means the support admits no doubly stochastic scaling;
        # stop before the outer product d d^T can overflow
        if np.max(d_new) > 1e100 or np.min(d_new) < 1e-100:
            break
        d = d_new
        iterations += 1
    b_arr = np.outer(d, d) * arr
    b = SymMatrix(b_arr)
    positive = b_arr[b_arr > 0]
    return ScalingResult(
        d=d,
        b=b,
        residual=residual,
        iterations=iterations,
        max_entry=float(b_arr.max()),
        min_positive_entry=float(positive.min()) if positive.size else math.inf,
        converged=converged,
    )


@dataclass(frozen=True)
class ScalingAudit:
    """Entry-size audit of a scaled matrix against n^-theta / n^-2nu bounds."""

    max_ok: bool
    min_ok: bool
    observed_exponents: tuple


def audit_entry_bounds(result: ScalingResult, theta: float, nu: float) -> ScalingAudit:
    """Check max B_ij <= n^-theta and min positive B_ij >= n^-2nu.

    ``observed_exponents`` inverts both bounds: the first component is the
    theta actually achieved by the max entry, the second the nu achieved by
    the smallest positive entry.
    """
    if not result.converged:
        raise InputError("entry-bound audit requires a converged scaling result")
    n = result.b.n
    return ScalingAudit(
        max_ok=bool(result.max_entry <= n ** (-theta)),
        min_ok=bool(result.min_positive_entry >= n ** (-2.0 * nu)),
        observed_exponents=result.observed_exponents,
    )
