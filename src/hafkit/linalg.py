"""Dense linear-algebra kernels shared by the whole package.

Matrices live in plain float64 numpy arrays behind two thin wrapper types:
``SymMatrix`` (symmetric, nonnegative, zero diagonal) and ``SkewMatrix``
(antisymmetric, zero diagonal).  Structural validation is exact: symmetry,
the zero diagonal and sign constraints are checked with ``==``, not with a
tolerance, so a matrix that parses is a matrix whose invariants hold
bit-for-bit.

The Parlett-Reid Pfaffian (det = Pf^2 >= 0), accumulated in log domain so
dimensions in the hundreds do not overflow, is the oracle for skew
determinants and the only source of their sign.  Bulk sampling in
``estimator`` takes log|det| from batched LAPACK LU instead and is checked
against it.  Spectra come from one LAPACK SVD: for skew W the eigenvalues
of the Hermitian iW are the singular values with signs attached in +/-
pairs, so they are derived rather than computed again.
"""

from __future__ import annotations
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "SymMatrix",
    "SkewMatrix",
    "SpectrumReport",
    "pfaffian_log_stack",
    "spectrum",
]


def allocate(shape, refusal: str) -> np.ndarray:
    """``np.empty(shape)``, or an InputError saying ``refusal`` where numpy cannot allocate it.

    A size the allocator maps lazily passes, and can still run out of
    memory once it is filled.
    """
    try:
        return np.empty(shape)
    except (ValueError, MemoryError):  # past numpy's largest array, or past the machine's memory
        raise InputError(refusal) from None


def _check_square(arr: np.ndarray, what: str):
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"{what} must be a square 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError(f"{what} must have dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains non-finite entries")


class _Frozen:
    """A matrix type over one float64 array that it checks and then makes read-only.

    The constructor checks and freezes a copy of what it is given, so a
    caller's array is never aliased.  ``_adopt`` takes a fresh float64
    array that nothing else holds, as the package's own builders make
    them, and checks and freezes it without a copy: a dense n x n matrix
    is then held once, not twice.
    """

    def __post_init__(self):
        object.__setattr__(self, "entries", self._checked(np.array(self.entries, dtype=np.float64)))

    @classmethod
    def _adopt(cls, arr: np.ndarray):
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", cls._checked(np.asarray(arr, dtype=np.float64)))
        return matrix

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SymMatrix(_Frozen):
    """Symmetric matrix with nonnegative entries and an exactly zero diagonal.

    The diagonal carries no information for matching-type quantities, so it
    is required to be zero on input rather than silently ignored.
    """

    entries: np.ndarray

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        _check_square(arr, "symmetric matrix")
        if np.any(arr < 0):
            raise InputError("symmetric matrix has negative entries")
        if not np.array_equal(arr, arr.T):
            raise InputError("matrix is not exactly symmetric")
        if np.any(np.diagonal(arr) != 0):
            raise InputError("diagonal entries must all be zero")
        arr.setflags(write=False)
        return arr

    def require_even(self):
        if self.n % 2 != 0:
            raise InputError(f"dimension must be even for hafnian-type operations, got n={self.n}")


@dataclass(frozen=True)
class SkewMatrix(_Frozen):
    """Real skew-symmetric matrix (entries[i, j] == -entries[j, i])."""

    entries: np.ndarray

    @staticmethod
    def _checked(arr: np.ndarray) -> np.ndarray:
        _check_square(arr, "skew-symmetric matrix")
        if not np.array_equal(arr, -arr.T):
            raise InputError("matrix is not exactly skew-symmetric")
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral data of a skew-symmetric W via the Hermitian matrix iW.

    ``eigenvalues_iw`` is sorted descending and comes in +/- pairs (with a
    zero for odd dimension); ``singular_values`` is sorted descending and
    equals the eigenvalue magnitudes.
    """

    eigenvalues_iw: np.ndarray
    singular_values: np.ndarray
    smallest_singular: float
    operator_norm: float

    def __post_init__(self):
        for name in ("eigenvalues_iw", "singular_values"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def pfaffian_log_stack(ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pfaffians of a stack of skew-symmetric matrices, in log-sign form.

    Runs skew-symmetric Gaussian elimination (Parlett-Reid) with partial
    pivoting on 2x2 blocks, vectorized over the leading axis.  Returns
    ``(log_abs, sign)`` with ``log_abs[b] = log|Pf(ws[b])|`` (``-inf`` for a
    structurally singular matrix) and ``sign[b]`` in {-1, 0, +1}.

    The input stack is not modified.  Odd dimension is degenerate and
    yields ``(-inf, 0)`` for every slice; the empty matrix (n = 0) has
    Pfaffian 1 and yields ``(0, +1)``.
    """
    ws = np.asarray(ws, dtype=np.float64)
    if ws.ndim != 3 or ws.shape[1] != ws.shape[2]:
        raise InputError(f"expected a (batch, n, n) stack, got shape {ws.shape}")
    nb, n = ws.shape[0], ws.shape[1]
    log_abs = np.zeros(nb)
    sign = np.ones(nb)
    if n % 2 == 1:
        return np.full(nb, -np.inf), np.zeros(nb)
    a = ws.copy()
    bidx = np.arange(nb)
    for k in range(0, n, 2):
        # pivot: bring the largest |entry| of column k (below row k) to (k+1, k)
        kp = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=1)
        np.negative(sign, out=sign, where=kp != k + 1)
        a[bidx, kp], a[bidx, k + 1] = a[bidx, k + 1], a[bidx, kp]
        a[bidx, :, kp], a[bidx, :, k + 1] = a[bidx, :, k + 1], a[bidx, :, kp]
        piv = a[:, k, k + 1]
        dead = piv == 0.0
        sign[dead] = 0.0
        safe = np.where(dead, 1.0, piv)
        log_abs += np.log(np.abs(safe))
        sign *= np.sign(safe)
        log_abs[sign == 0.0] = -np.inf
        tau = a[:, k, k + 2:] / safe[:, None]
        vcol = a[:, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += tau[:, :, None] * vcol[:, None, :]
        a[:, k + 2:, k + 2:] -= vcol[:, :, None] * tau[:, None, :]
    return log_abs, sign


def spectrum(w: SkewMatrix) -> SpectrumReport:
    """Eigenvalues of the Hermitian matrix iW plus the singular values of W.

    One LAPACK SVD of the real matrix gives both.  The singular values of
    skew W come in equal pairs (plus a zero for odd n) and the eigenvalues
    of iW are +/- those pairs, so the descending eigenvalues are the even-
    indexed singular values followed by the negated odd-indexed ones in
    reverse.  The tests cross-check this against ``eigvalsh(1j * W)``.
    """
    sv = np.linalg.svd(w.entries, compute_uv=False)
    return SpectrumReport(
        eigenvalues_iw=np.concatenate([sv[0::2], -sv[1::2][::-1]]),
        singular_values=sv,
        smallest_singular=float(sv[-1]),
        operator_norm=float(sv[0]),
    )
