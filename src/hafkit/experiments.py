"""Desk-scale experiment harness: singular-value tails, eigenvalue crowding
near zero, and error-concentration curves across matrix families.

Every experiment is a pure function of (inputs, seed): trials are keyed by
trial index on the same counter-based streams the estimator uses, and all
aggregation runs in trial order.  Constants appearing in the underlying
tail bounds are existential, so reports expose fitted exponents and ratio
columns rather than asserting any particular constant; regression tests
freeze first-run values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counterexample import CounterexampleSpec, build_counterexample
from .errors import InputError, NumericalError
from .estimator import sample_log_dets, sample_w
from .exact import DEFAULT_CAP, hafnian_exact
from .graphs import GraphEdgeList
from .linalg import SymMatrix, spectrum
from . import io as _io
from . import scaling as _scaling

__all__ = [
    "TailReport",
    "DensityReport",
    "ConcentrationReport",
    "FamilyMember",
    "complete_graph",
    "random_regular_graph",
    "matrix_from_source",
    "smallest_sv_tail",
    "eigenvalue_density",
    "concentration_error",
    "run_sv_tail",
    "run_density",
    "run_concentration",
]


def complete_graph(n: int) -> GraphEdgeList:
    return GraphEdgeList.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    while True:
        perm = rng.permutation(stubs)
        edges = set()
        ok = True
        for k in range(0, perm.size, 2):
            u, v = int(perm[k]), int(perm[k + 1])
            if u == v:
                ok = False
                break
            e = (min(u, v), max(u, v))
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return GraphEdgeList.from_pairs(n, edges)


def matrix_from_source(source: dict) -> SymMatrix:
    """Resolve a matrix-source config dict to a SymMatrix.

    Kinds: ``file`` (path to matrix text), ``complete`` (n, scaled?),
    ``random_regular`` (n, d, graph_seed, scaled?), ``counterexample``
    (delta, n_center, m_pairs?).  ``scaled: true`` replaces the adjacency
    by its doubly stochastic scaling.
    """
    kind = source.get("kind")
    if kind == "file":
        return _io.read_symmetric_matrix(source["path"])
    if kind == "complete":
        a = complete_graph(int(source["n"])).sym_matrix()
    elif kind == "random_regular":
        a = random_regular_graph(
            int(source["n"]), int(source["d"]), int(source.get("graph_seed", 0))
        ).sym_matrix()
    elif kind == "counterexample":
        spec = CounterexampleSpec(
            delta=float(source["delta"]),
            n_center=int(source["n_center"]),
            m_pairs=source.get("m_pairs"),
        )
        a = build_counterexample(spec).sym_matrix()
    else:
        raise InputError(f"unknown matrix source kind {kind!r}")
    if source.get("scaled"):
        res = _scaling.scale_symmetric(a, residual_target=1e-10, max_iterations=100_000)
        if not res.converged:
            raise NumericalError("matrix source did not scale", residual=res.residual)
        a = res.b
    return a


@dataclass(frozen=True)
class TailReport:
    n: int
    trials: int
    seed: int
    thresholds: tuple
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
    sn = np.empty(trials)
    for t in range(trials):
        w = sample_w(a, seed, t)
        sn[t] = spectrum(w).smallest_singular
    cdf = {t: float(np.mean(sn <= t)) for t in thresholds}
    # crude power-law fit of the tail over thresholds with mass
    pts = [(t, p) for t, p in cdf.items() if p > 0]
    fitted = None
    if len(pts) >= 2 and pts[0][1] < pts[-1][1]:
        lx = np.log([t for t, _ in pts])
        ly = np.log([p for _, p in pts])
        fitted = float(np.polyfit(lx, ly, 1)[0])
    return TailReport(
        n=a.n,
        trials=trials,
        seed=seed,
        thresholds=thresholds,
        cdf=cdf,
        median_smallest_singular=float(np.median(sn)),
        fitted_exponent=fitted,
    )


@dataclass(frozen=True)
class DensityReport:
    """Counts of eigenvalues of iW in (-eta, eta) across the eta grid."""

    n: int
    trials: int
    seed: int
    max_entry: float
    rows: tuple  # (eta, mean_count, max_count, ratio=mean/(n*eta)) per eta


def default_eta_grid(max_entry: float, points: int = 8) -> np.ndarray:
    if not (0 < max_entry <= 1):
        raise InputError("max_entry must lie in (0, 1] for the default grid")
    m = 1.0 / max_entry
    lo = m ** (-1.0 / 5.0)
    if lo >= 1.0:
        lo = 0.5
    return np.geomspace(lo, 1.0, points)


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
    for t in range(trials):
        w = sample_w(b, seed, t)
        eig = spectrum(w).eigenvalues_iw
        mags = np.abs(eig)
        counts[t] = np.array([int(np.sum(mags < eta)) for eta in etas])
    rows = tuple(
        (
            float(eta),
            float(np.mean(counts[:, k])),
            int(np.max(counts[:, k])),
            float(np.mean(counts[:, k]) / (b.n * eta)),
        )
        for k, eta in enumerate(etas)
    )
    return DensityReport(
        n=b.n, trials=trials, seed=seed, max_entry=max_entry, rows=rows
    )


@dataclass(frozen=True)
class FamilyMember:
    name: str
    size: int
    matrix: SymMatrix
    exact_log_haf: float | None


@dataclass(frozen=True)
class ConcentrationReport:
    family: str
    samples_per_member: int
    seed: int
    rows: tuple  # per member: (size, median_abs_error, q90_abs_error, median_signed_error|None)
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

    Members with a known exact hafnian report |log haf - log det| quantiles
    and the signed median; members without one fall back to self-centered
    errors |log det - median(log det)|, which still tracks the fluctuation
    scale.  The exponent is the log-log slope of median error vs size.
    """
    if samples_per_member < 1:
        raise InputError("samples_per_member must be >= 1")
    rows = []
    for member in members:
        log_dets = sample_log_dets(member.matrix, samples_per_member, seed, threads=threads)
        if member.exact_log_haf is not None:
            signed = log_dets - member.exact_log_haf
            median_signed = float(np.median(signed))
            abs_err = np.abs(signed)
        else:
            center = float(np.median(log_dets))
            median_signed = None
            abs_err = np.abs(log_dets - center)
        rows.append(
            (
                member.size,
                float(np.median(abs_err)),
                float(np.quantile(abs_err, 0.9)),
                median_signed,
            )
        )
    fitted = None
    r2 = None
    pos = [(s, med) for s, med, _, _ in rows if med > 0]
    if len(pos) >= 2:
        lx = np.log([s for s, _ in pos])
        ly = np.log([m for _, m in pos])
        slope, intercept = np.polyfit(lx, ly, 1)
        pred = slope * lx + intercept
        ss_res = float(np.sum((ly - pred) ** 2))
        ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
        fitted = float(slope)
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ConcentrationReport(
        family=family,
        samples_per_member=samples_per_member,
        seed=seed,
        rows=tuple(rows),
        fitted_exponent=fitted,
        r_squared=r2,
    )


def complete_family(ns, exact_cap: int = DEFAULT_CAP) -> list[FamilyMember]:
    """Complete-graph adjacency family; exact log haf where the cap allows."""
    members = []
    for n in ns:
        a = complete_graph(int(n)).sym_matrix()
        exact = hafnian_exact(a).log_value if n <= exact_cap else None
        members.append(FamilyMember(name=f"complete_{n}", size=int(n), matrix=a, exact_log_haf=exact))
    return members


def counterexample_family(n_centers, delta: float) -> list[FamilyMember]:
    """Counterexample family indexed by total vertex count; log haf = log n!."""
    members = []
    for nc in n_centers:
        spec = CounterexampleSpec(delta=delta, n_center=int(nc))
        a = build_counterexample(spec).sym_matrix()
        members.append(
            FamilyMember(
                name=f"counterexample_{spec.total_vertices}",
                size=spec.total_vertices,
                matrix=a,
                exact_log_haf=math.lgamma(spec.n_center + 1),
            )
        )
    return members


def run_sv_tail(config: dict) -> dict:
    """CLI adapter: config {matrix, trials, seed, thresholds} -> plain dict."""
    a = matrix_from_source(config["matrix"])
    rep = smallest_sv_tail(
        a,
        trials=int(config.get("trials", 200)),
        seed=int(config.get("seed", 0)),
        thresholds=config.get("thresholds", (1e-8, 1e-4, 1e-2, 0.1, 0.5)),
    )
    return {
        "n": rep.n,
        "trials": rep.trials,
        "seed": rep.seed,
        "cdf": {str(t): p for t, p in rep.cdf.items()},
        "median_smallest_singular": rep.median_smallest_singular,
        "fitted_exponent": rep.fitted_exponent,
    }


def run_density(config: dict) -> dict:
    """CLI adapter: config {matrix, trials, seed, eta_grid?} -> plain dict."""
    b = matrix_from_source(config["matrix"])
    rep = eigenvalue_density(
        b,
        trials=int(config.get("trials", 50)),
        seed=int(config.get("seed", 0)),
        eta_grid=config.get("eta_grid"),
    )
    return {
        "n": rep.n,
        "trials": rep.trials,
        "seed": rep.seed,
        "max_entry": rep.max_entry,
        "rows": [
            {"eta": eta, "mean_count": mean, "max_count": mx, "ratio": ratio}
            for eta, mean, mx, ratio in rep.rows
        ],
    }


def run_concentration(config: dict, threads: int = 1) -> dict:
    """CLI adapter: config {family, samples_per_n, seed} -> plain dict."""
    fam = config.get("family", {})
    kind = fam.get("kind")
    if kind == "complete":
        members = complete_family(fam.get("ns", (8, 10, 12, 14)))
    elif kind == "counterexample":
        members = counterexample_family(
            fam.get("n_centers", (10, 15, 19, 24)), float(fam.get("delta", 0.12))
        )
    else:
        raise InputError(f"unknown family kind {kind!r}")
    rep = concentration_error(
        members,
        samples_per_member=int(config.get("samples_per_n", 200)),
        seed=int(config.get("seed", 0)),
        family=kind,
        threads=threads,
    )
    return {
        "family": rep.family,
        "samples_per_member": rep.samples_per_member,
        "seed": rep.seed,
        "rows": [
            {
                "size": size,
                "median_abs_error": med,
                "q90_abs_error": q90,
                "median_signed_error": signed,
            }
            for size, med, q90, signed in rep.rows
        ],
        "fitted_exponent": rep.fitted_exponent,
        "r_squared": rep.r_squared,
    }
