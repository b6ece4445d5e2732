"""Center-clique graph on which the Gaussian estimator is exponentially biased.

The construction has three vertex classes on M = 2(n + m) vertices:

* center: vertices 0..n-1, pairwise adjacent (a clique);
* plain peripherals: vertices n..2n-1, adjacent to every center vertex and
  to nothing else;
* paired peripherals: vertices 2n..2n+2m-1, adjacent to every center vertex
  and additionally joined in consecutive pairs (2n+2t, 2n+2t+1).

Every perfect matching must match the n plain peripherals bijectively into
the center and each paired peripheral to its partner, so the matching count
is exactly n!.  The determinant of a sampled W factors accordingly into a
center-peripheral part times the squared pair Gaussians, which is what
drives the bias: the estimator stays unbiased in expectation while the
typical sample sits a constant-per-vertex factor below the mean.

The weak expansion inequality |boundary(J)| - (1-delta)|Con(J)| >= kappa|J|
(|J| <= M/2, kappa = delta/8) holds for this graph even though strong
expansion fails, and by symmetry it can be verified exhaustively over
orbit representatives instead of raw subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimator import _logsumexp, _quantiles, sample_log_dets
from .graphs import ExpansionReport, GraphEdgeList, _deficit_weights
from .linalg import allocate

__all__ = [
    "CounterexampleSpec",
    "BiasReport",
    "build_counterexample",
    "check_weak_expansion_structural",
    "run_bias_experiment",
]

DEFAULT_C_GRID = (0.005, 0.01, 0.02, 0.05)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the construction.

    ``m_pairs`` defaults to floor(delta * n_center / 2), the canonical
    choice; passing it explicitly decouples the pair count from delta
    (small exact-count tests use m_pairs=1 with tiny centers, where the
    canonical formula would give zero).
    """

    delta: float
    n_center: int
    m_pairs: int | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 / 6.0):
            raise InputError("delta must lie in (0, 1/6)")
        if self.n_center < 1:
            raise InputError("n_center must be >= 1")
        if self.m_pairs is None:
            object.__setattr__(self, "m_pairs", int(self.delta * self.n_center / 2.0))
        if self.m_pairs < 0:
            raise InputError("m_pairs must be >= 0")

    @property
    def total_vertices(self) -> int:
        return 2 * (self.n_center + self.m_pairs)


def build_counterexample(spec: CounterexampleSpec) -> GraphEdgeList:
    """Materialize the graph as an edge list on 2(n + m) vertices."""
    n, m = spec.n_center, spec.m_pairs
    total = spec.total_vertices
    # the CLI and the matrix sources go on to the dense matrix: refuse a size with no room for it first
    allocate((total, total), f"{total} vertices: no room for a {total} x {total} matrix")
    # each center vertex i to every vertex past it: the clique and the plain vertices
    center = np.column_stack(np.nonzero(np.triu(np.ones((n, total), dtype=bool), 1)))
    pairs = 2 * n + np.arange(2 * m).reshape(m, 2)
    return GraphEdgeList.from_pairs(total, np.concatenate((center, pairs)))


def check_weak_expansion_structural(
    spec: CounterexampleSpec,
    kappa: float | None = None,
    delta: float | None = None,
) -> ExpansionReport:
    """Exact weak-expansion check, exhaustive over structural orbits.

    A subset J either meets the center - then it is connected through that
    center vertex and its boundary is everything else, so only |J| matters -
    or it avoids the center, in which case J is determined up to graph
    automorphism by (a, b, c) = (#plain peripherals, #pairs hit once,
    #pairs fully inside).  Scanning those parameters covers every subset
    with |J| <= M/2, so the verdict is exact, with a concrete witness
    materialized on violation.  Each deficit is decided in integers, with
    kappa and delta read as the decimals they print as.
    """
    if delta is None:
        delta = spec.delta
    if kappa is None:
        kappa = delta / 8.0
    n, m = spec.n_center, spec.m_pairs
    total = spec.total_vertices
    level = total // 2
    checked = 0
    # unit times each deficit, in Python ints
    unit, keep, per_vertex = _deficit_weights(kappa, delta)

    def report(witness=None):
        return ExpansionReport.verdict(kappa, level, "exhaustive", checked, witness, delta)

    # J meets the center: Con(J) = 1 and boundary(J) = complement of J
    for size in range(1, level + 1):
        checked += 1
        if unit * (total - size) - keep - per_vertex * size < 0:
            return report(range(size))
    # J avoids the center: boundary = center + partners of singly-hit pairs
    for a in range(0, n + 1):
        for b in range(0, m + 1):
            for c in range(0, m - b + 1):
                size = a + b + 2 * c
                if size < 1 or size > level:
                    continue
                checked += 1
                comps = a + b + c
                if unit * (n + b) - keep * comps - per_vertex * size < 0:
                    witness = list(range(n, n + a))
                    witness += [2 * n + 2 * t for t in range(b)]
                    for t in range(c):
                        witness += [2 * n + 2 * (b + t), 2 * n + 2 * (b + t) + 1]
                    return report(witness)
    return report()


@dataclass(frozen=True)
class BiasReport:
    """Sampled distribution of log det against the exact log E det = log n!."""

    total_vertices: int
    n_center: int
    m_pairs: int
    delta: float
    log_haf: float
    mean_det_log: float
    logdet_quantiles: dict
    median_signed_error: float
    fraction_below: dict


def run_bias_experiment(
    spec: CounterexampleSpec,
    num_samples: int,
    seed: int,
    threads: int = 1,
) -> BiasReport:
    """Sample the estimator on the counterexample and measure the bias.

    ``fraction_below[c]`` is the share of samples with
    log det - log n! <= -c * M, for c in ``DEFAULT_C_GRID``.  The mean of
    det itself stays consistent with n! (unbiasedness is not what fails
    here, concentration is).  Past sampling the report is made inside the
    one array of log-dets: the log-sum-exp first, in index order, then
    every order statistic from the array sorted in place.
    """
    g = build_counterexample(spec)
    a = g.sym_matrix()
    log_haf = math.lgamma(spec.n_center + 1)
    log_dets = sample_log_dets(a, num_samples, seed, threads=threads)
    total = spec.total_vertices
    mean_det_log = _logsumexp(log_dets) - math.log(num_samples)
    log_dets.sort()
    quantiles = _quantiles(log_dets, (0.05, 0.25, 0.5, 0.75, 0.95))
    # subtracting a constant keeps float order: the shifted array stays sorted
    shifted = np.subtract(log_dets, log_haf, out=log_dets)
    fraction_below = {
        float(c): int(np.searchsorted(shifted, -c * total, side="right")) / num_samples
        for c in DEFAULT_C_GRID
    }
    return BiasReport(
        total_vertices=total,
        n_center=spec.n_center,
        m_pairs=spec.m_pairs,
        delta=spec.delta,
        log_haf=log_haf,
        mean_det_log=mean_det_log,
        logdet_quantiles=quantiles,
        median_signed_error=float(np.median(shifted, overwrite_input=True)),
        fraction_below=fraction_below,
    )
