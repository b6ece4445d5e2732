"""Desk-scale experiment harness: singular-value tails, eigenvalue crowding
near zero, and error-concentration curves across matrix families.

``run`` is the CLI's entry: it lays a JSON config over ``DEFAULTS``, checks
its keys, refusing any it does not read, builds the matrix or family it
names, and returns the experiment's report dataclass, which the CLI prints
field by field.  Every experiment is a pure function of (inputs, seed), and
all aggregation runs in trial order.  The two spectral experiments take
trial t's W from ``estimator._trial_ws``, one row of stream (seed, t).
Trials are not chunked as samples are: a trial's eigensolve costs
milliseconds against a fraction of one for its normals.
``sv-tail`` takes the SVD of each W (``linalg.spectrum``).  ``density``
only counts, so it counts the eigenvalues of the Gram matrix W^T W below
eta^2, and takes the SVD only for a trial where one of them lies within
rounding of some eta^2.  The concentration experiment samples through
``estimator.sample_log_dets``.
Constants appearing in the underlying tail bounds are existential, so
reports expose fitted exponents and ratio columns rather than asserting any
particular constant; regression tests freeze first-run values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .counterexample import CounterexampleSpec, build_counterexample
from .errors import InputError, NumericalError
from .estimator import _trial_ws, sample_log_dets
from .graphs import GraphEdgeList, large_entries_graph
from .linalg import SkewMatrix, SymMatrix, allocate, spectrum
from .rng import check_seed
from . import io as _io
from . import scaling as _scaling

__all__ = [
    "TailReport",
    "DensityRow",
    "DensityReport",
    "ErrorRow",
    "ConcentrationReport",
    "FamilyMember",
    "complete_graph",
    "random_regular_graph",
    "matrix_from_source",
    "smallest_sv_tail",
    "eigenvalue_density",
    "concentration_error",
    "resolve",
    "run",
]

# config defaults of each CLI experiment; the manifest reports them merged
DEFAULTS = {
    "sv-tail": {"trials": 200, "seed": 0, "thresholds": [1e-8, 1e-4, 1e-2, 0.1, 0.5]},
    "density": {"trials": 50, "seed": 0, "eta_grid": None},
    "concentration": {"samples_per_n": 200, "seed": 0},
}


def complete_graph(n: int) -> GraphEdgeList:
    return large_entries_graph(_complete_matrix(n), 0.0)


def _complete_matrix(n: int) -> SymMatrix:
    """Adjacency matrix of K_n, built without its n(n-1)/2 edge pairs."""
    if n < 1:
        raise InputError("graph must have at least one vertex")
    a = allocate((n, n), f"n={n}: no n x n matrix can be allocated")
    a.fill(1.0)
    np.fill_diagonal(a, 0.0)
    return SymMatrix(a)


def random_regular_graph(n: int, d: int, seed: int) -> GraphEdgeList:
    """Random d-regular graph via the pairing model, rejecting bad pairings.

    Stubs are shuffled and paired; any attempt producing a loop or repeated
    edge is thrown away wholesale, so accepted graphs are uniform over
    simple pairings and reproducible from the seed.
    """
    if n * d % 2 != 0:
        raise InputError("n * d must be even for a d-regular graph")
    if not (0 < d < n):
        raise InputError("degree must satisfy 0 < d < n")
    rng = np.random.default_rng(check_seed(seed))
    stubs = np.repeat(np.arange(n), d)
    while True:
        ends = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
        key = ends[:, 0] * n + ends[:, 1]
        if np.all(ends[:, 0] != ends[:, 1]) and np.unique(key).size == key.size:
            return GraphEdgeList.from_pairs(n, ends)


_REQUIRED = object()


def _value(obj: dict, key: str, types, what: str, default=_REQUIRED):
    """``obj[key]`` if it is an instance of ``types`` and no bool; else an InputError naming ``key``.

    An absent key gives ``default``, or an InputError if there is none.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"missing key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise InputError(f"{key!r} must be {what}, got {value!r}")
    return value


def _count(obj: dict, key: str, default=_REQUIRED) -> int:
    return _value(obj, key, int, "an integer", default)


def _list(obj: dict, key: str, types, what: str, default=_REQUIRED):
    """A list under ``key`` whose items are instances of ``types``, no bools and no NaN or infinity."""
    values = _value(obj, key, (list, tuple), f"a list of {what}", default)
    if any(
        isinstance(v, bool) or not isinstance(v, types) or (isinstance(v, float) and not math.isfinite(v))
        for v in values
    ):
        raise InputError(f"{key!r} must be a list of {what}, got {values!r}")
    return values


def _only(obj: dict, keys, where: str) -> None:
    """Refuse a key of ``obj`` outside ``keys``, naming it: nothing would read its value."""
    for key in obj:
        if key not in keys:
            raise InputError(f"unknown key {key!r} in {where}")


def matrix_from_source(source: dict) -> SymMatrix:
    """Resolve a matrix-source config dict to a SymMatrix.

    Kinds: ``file`` (path to matrix text), ``complete`` (n),
    ``random_regular`` (n, d, graph_seed?), ``counterexample`` (delta,
    n_center, m_pairs?).  Every kind takes ``scaled``, true or false:
    ``true`` replaces the matrix by its doubly stochastic scaling.  Any
    other key is refused.
    """
    if not isinstance(source, dict):
        raise InputError(f"a matrix source must be a JSON object, got {type(source).__name__}")
    kind = source.get("kind")
    scaled = source.get("scaled", False)
    if not isinstance(scaled, bool):
        raise InputError(f"'scaled' must be true or false, got {scaled!r}")
    where = f"a {kind} matrix source"
    if kind == "file":
        _only(source, ("kind", "scaled", "path"), where)
        a = _io.read_symmetric_matrix(_value(source, "path", str, "a string"))
    elif kind == "complete":
        _only(source, ("kind", "scaled", "n"), where)
        a = _complete_matrix(_count(source, "n"))
    elif kind == "random_regular":
        _only(source, ("kind", "scaled", "n", "d", "graph_seed"), where)
        n = _count(source, "n")
        allocate((n, n), f"n={n}: no n x n matrix can be allocated")  # before the graph is built
        a = random_regular_graph(n, _count(source, "d"), _count(source, "graph_seed", 0)).sym_matrix()
    elif kind == "counterexample":
        _only(source, ("kind", "scaled", "delta", "n_center", "m_pairs"), where)
        spec = CounterexampleSpec(
            delta=float(_value(source, "delta", (int, float), "a number")),
            n_center=_count(source, "n_center"),
            m_pairs=_value(source, "m_pairs", (int, type(None)), "an integer or null", None),
        )
        a = build_counterexample(spec).sym_matrix()
    else:
        raise InputError(f"unknown matrix source kind {kind!r}")
    if scaled:
        res = _scaling.scale_symmetric(a, residual_target=1e-10, max_iterations=100_000)
        if not res.converged:
            raise NumericalError(f"matrix source did not scale (residual {res.residual:.3g})")
        a = res.b
    return a


def _loglog_fit(xs, ys) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line through the points (log x, log y)."""
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    ss_res = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@dataclass(frozen=True)
class TailReport:
    """``cdf`` maps each threshold, ascending, to the share of trials at or below it."""

    n: int
    trials: int
    seed: int
    cdf: dict
    median_smallest_singular: float
    fitted_exponent: float | None


def smallest_sv_tail(a: SymMatrix, trials: int, seed: int, thresholds) -> TailReport:
    """Empirical lower-tail CDF of the smallest singular value of W samples."""
    a.require_even()
    thresholds = tuple(sorted(float(t) for t in thresholds))
    if not thresholds:
        raise InputError("need at least one threshold")
    if trials < 1:
        raise InputError("trials must be >= 1")
    sn = np.array([spectrum(SkewMatrix(w)).smallest_singular for w in _trial_ws(a, trials, seed)])
    cdf = {t: float(np.mean(sn <= t)) for t in thresholds}
    # crude power-law fit of the tail over thresholds with mass
    pts = [(t, p) for t, p in cdf.items() if p > 0]
    fitted = _loglog_fit(*zip(*pts))[0] if len(pts) >= 2 and pts[0][1] < pts[-1][1] else None
    return TailReport(
        n=a.n,
        trials=trials,
        seed=seed,
        cdf=cdf,
        median_smallest_singular=float(np.median(sn)),
        fitted_exponent=fitted,
    )


class DensityRow(NamedTuple):
    eta: float
    mean_count: float
    max_count: int
    ratio: float  # mean_count / (n * eta)


@dataclass(frozen=True)
class DensityReport:
    """Counts of eigenvalues of iW in (-eta, eta) across the eta grid."""

    n: int
    trials: int
    seed: int
    max_entry: float
    rows: tuple[DensityRow, ...]


def default_eta_grid(max_entry: float) -> np.ndarray:
    if not (0 < max_entry <= 1):
        raise InputError("max_entry must lie in (0, 1] for the default grid")
    m = 1.0 / max_entry
    lo = m ** (-1.0 / 5.0)
    if lo >= 1.0:
        lo = 0.5
    return np.geomspace(lo, 1.0, 8)


def _singular_value_counts(w: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """#{singular values of W below eta} for each eta of the ascending ``etas``.

    The eigenvalues of iW are the singular values of W with signs, so this
    is #{eigenvalues of iW in (-eta, eta)}.  It counts the eigenvalues of
    the Gram matrix W^T W, the squared singular values, below eta^2, one
    symmetric eigensolve at about half the cost of the SVD.  Forming W^T W
    and ``eigvalsh`` err by at most tol = 4 n eps ||W||_F^2, ||W||_F^2 being
    the sum of those eigenvalues.  If one of them lies within tol of some
    eta^2, as a zero singular value does at a tiny eta, rounding could
    decide the count, and the trial counts the singular values of
    ``linalg.spectrum`` instead.
    """
    ev = np.linalg.eigvalsh(w.T @ w)
    tol = 4 * w.shape[0] * np.finfo(np.float64).eps * float(ev.sum())
    # an eta past 1e154 squares to inf, above every singular value squared
    with np.errstate(over="ignore"):
        eta2 = etas * etas
    below = np.searchsorted(ev, eta2 - tol)  # #{ev < eta^2 - tol}
    if np.array_equal(below, np.searchsorted(ev, eta2 + tol, side="right")):
        return below
    return np.searchsorted(spectrum(SkewMatrix(w)).singular_values[::-1], etas)


def eigenvalue_density(
    b: SymMatrix, trials: int, seed: int, eta_grid=None
) -> DensityReport:
    """Mean and max of N(eta) = #{eigenvalues of iW in (-eta, eta)} per eta.

    The ratio column mean/(n*eta) exposes the crowding constant; counts are
    nested in eta by construction, so monotonicity is exact per trial.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    max_entry = float(b.entries.max())
    if eta_grid is None:
        eta_grid = default_eta_grid(max_entry)
    etas = np.asarray(sorted(float(e) for e in eta_grid))
    if etas.size == 0 or np.any(etas <= 0):
        raise InputError("eta grid must be nonempty and positive")
    counts = np.empty((trials, etas.size), dtype=np.int64)
    for t, w in enumerate(_trial_ws(b, trials, seed)):
        counts[t] = _singular_value_counts(w, etas)
    rows = tuple(
        # mean / (n * eta), or mean / n / eta where n * eta overflows
        DensityRow(eta, mean, top, mean / (b.n * eta) if b.n * eta < math.inf else mean / b.n / eta)
        for eta, mean, top in zip(etas.tolist(), counts.mean(axis=0).tolist(), counts.max(axis=0).tolist())
    )
    return DensityReport(
        n=b.n, trials=trials, seed=seed, max_entry=max_entry, rows=rows
    )


@dataclass(frozen=True)
class FamilyMember:
    size: int
    matrix: SymMatrix
    exact_log_haf: float


class ErrorRow(NamedTuple):
    size: int
    median_abs_error: float
    q90_abs_error: float
    median_signed_error: float


@dataclass(frozen=True)
class ConcentrationReport:
    family: str
    samples_per_member: int
    seed: int
    rows: tuple[ErrorRow, ...]
    fitted_exponent: float | None
    r_squared: float | None


def concentration_error(
    members: list[FamilyMember],
    samples_per_member: int,
    seed: int,
    family: str = "",
    threads: int = 1,
) -> ConcentrationReport:
    """Error quantiles of log det against log haf across a matrix family.

    Each member reports |log haf - log det| quantiles and the signed median
    of log det - log haf.  The exponent is the log-log slope of median
    error vs size (with R^2), None without two sizes of positive median error.
    """
    if samples_per_member < 1:
        raise InputError("samples_per_member must be >= 1")
    rows = []
    for member in members:
        log_dets = sample_log_dets(member.matrix, samples_per_member, seed, threads=threads)
        signed = log_dets - member.exact_log_haf
        abs_err = np.abs(signed)
        rows.append(
            ErrorRow(
                member.size,
                float(np.median(abs_err)),
                float(np.quantile(abs_err, 0.9)),
                float(np.median(signed)),
            )
        )
    pos = [(s, med) for s, med, _, _ in rows if med > 0]
    fitted, r2 = _loglog_fit(*zip(*pos)) if len({s for s, _ in pos}) >= 2 else (None, None)
    return ConcentrationReport(
        family=family,
        samples_per_member=samples_per_member,
        seed=seed,
        rows=tuple(rows),
        fitted_exponent=fitted,
        r_squared=r2,
    )


def complete_family(ns) -> list[FamilyMember]:
    """Complete-graph adjacency family; log haf(K_n) = log (n-1)!! exactly."""
    members = []
    for n in map(int, ns):
        a = _complete_matrix(n)
        a.require_even()
        exact = math.log(math.prod(range(1, n, 2)))
        members.append(FamilyMember(size=n, matrix=a, exact_log_haf=exact))
    return members


def counterexample_family(n_centers, delta: float) -> list[FamilyMember]:
    """Counterexample family indexed by total vertex count; log haf = log n!."""
    members = []
    for nc in n_centers:
        spec = CounterexampleSpec(delta=delta, n_center=int(nc))
        a = build_counterexample(spec).sym_matrix()
        exact = math.lgamma(spec.n_center + 1)
        members.append(FamilyMember(size=spec.total_vertices, matrix=a, exact_log_haf=exact))
    return members


def resolve(kind: str, config) -> dict:
    """``config``, a JSON object, laid over the defaults of experiment ``kind``; refuses a key not read."""
    if kind not in DEFAULTS:
        raise InputError(f"unknown experiment {kind!r}")
    if not isinstance(config, dict):
        raise InputError(f"an experiment config must be a JSON object, got {type(config).__name__}")
    _only(config, ("family" if kind == "concentration" else "matrix", *DEFAULTS[kind]), f"the {kind} config")
    return {**DEFAULTS[kind], **config}


def run(kind: str, config, threads: int = 1):
    """The report of experiment ``kind``: "sv-tail" gives a TailReport, "density"
    a DensityReport, "concentration" a ConcentrationReport.

    sv-tail reads {matrix, trials, seed, thresholds}, density {matrix,
    trials, seed, eta_grid}, concentration {family, samples_per_n, seed}.
    """
    config = resolve(kind, config)
    seed = _count(config, "seed")
    if kind == "concentration":
        samples = _count(config, "samples_per_n")
        fam = _value(config, "family", dict, "an object")
        family = fam.get("kind")
        if family == "complete":
            _only(fam, ("kind", "ns"), "a complete family")
            members = complete_family(_list(fam, "ns", int, "integers", (8, 10, 12, 14)))
        elif family == "counterexample":
            _only(fam, ("kind", "n_centers", "delta"), "a counterexample family")
            members = counterexample_family(
                _list(fam, "n_centers", int, "integers", (10, 15, 19, 24)),
                float(_value(fam, "delta", (int, float), "a number", 0.12)),
            )
        else:
            raise InputError(f"unknown family kind {family!r}")
        return concentration_error(members, samples, seed, family=family, threads=threads)
    trials = _count(config, "trials")
    source = _value(config, "matrix", dict, "an object")
    if kind == "sv-tail":
        thresholds = _list(config, "thresholds", (int, float), "finite numbers")
        return smallest_sv_tail(matrix_from_source(source), trials, seed, thresholds)
    eta_grid = config["eta_grid"]
    if eta_grid is not None:
        eta_grid = _list(config, "eta_grid", (int, float), "finite numbers")
    return eigenvalue_density(matrix_from_source(source), trials, seed, eta_grid)
