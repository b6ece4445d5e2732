"""Graph-side condition checkers: large-entries graph, boundaries, expansion.

The expansion checks quantify over vertex subsets, which is exponential in
general.  ``mode="exhaustive"`` enumerates every subset up to the requested
level (guarded by a budget), ``mode="sampled"`` evaluates a deterministic
list of adversarial candidates followed by seeded random subsets.  A
``holds=False`` verdict always carries a concrete witness set that violates
the inequality, so negative verdicts are certificates regardless of mode;
positive verdicts from sampled mode are only evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .linalg import SymMatrix
from . import scaling as _scaling

__all__ = [
    "GraphEdgeList",
    "ExpansionReport",
    "HypothesisReport",
    "large_entries_graph",
    "boundary",
    "connected_components_within",
    "min_degree",
    "check_strong_expansion",
    "check_weak_expansion",
    "check_theorem_hypotheses",
]


@dataclass(frozen=True)
class GraphEdgeList:
    """Simple undirected graph on vertices 0..n-1 as a set of sorted pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise InputError("graph must have at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge {e} out of range for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "GraphEdgeList":
        return cls(n=n, edges=frozenset(tuple(p) for p in pairs))

    def adjacency_sets(self) -> list[set]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def sym_matrix(self) -> SymMatrix:
        return SymMatrix(self.adjacency_matrix())

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of an expansion check.

    ``delta`` is None for the strong condition and the weakening parameter
    for the weak one.  ``witness`` is a sorted vertex tuple when
    ``holds`` is False, otherwise None.
    """

    kappa: float
    level: int
    holds: bool
    witness: tuple | None
    checked_mode: str
    sets_checked: int
    delta: float | None = None

    @classmethod
    def verdict(cls, kappa, level, mode, checked, witness=None, delta=None) -> "ExpansionReport":
        """Report that holds exactly when no violating ``witness`` set was found."""
        return cls(
            kappa=float(kappa),
            level=level,
            holds=witness is None,
            witness=tuple(sorted(witness)) if witness is not None else None,
            checked_mode=mode,
            sets_checked=checked,
            delta=None if delta is None else float(delta),
        )


def large_entries_graph(a: SymMatrix, theta: float) -> GraphEdgeList:
    """Graph with an edge (i, j) exactly when a[i, j] > theta (strict)."""
    if theta < 0:
        raise InputError("theta must be nonnegative")
    arr = a.entries
    iu = np.triu_indices(a.n, 1)
    mask = arr[iu] > theta
    pairs = zip(iu[0][mask].tolist(), iu[1][mask].tolist())
    return GraphEdgeList.from_pairs(a.n, pairs)


def _check_subset(g: GraphEdgeList, j) -> frozenset:
    js = frozenset(j)
    for v in js:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return js


def _boundary(adj, js: frozenset) -> set:
    out = set()
    for v in js:
        out |= adj[v]
    out -= js
    return out


def _components(adj, js: frozenset) -> int:
    left = set(js)
    comps = 0
    while left:
        comps += 1
        stack = [left.pop()]
        while stack:
            nbrs = adj[stack.pop()] & left
            left -= nbrs
            stack.extend(nbrs)
    return comps


def boundary(g: GraphEdgeList, j) -> frozenset:
    """External boundary: vertices outside J adjacent to some vertex of J."""
    return frozenset(_boundary(g.adjacency_sets(), _check_subset(g, j)))


def connected_components_within(g: GraphEdgeList, j) -> int:
    """Number of connected components of the subgraph induced on J."""
    return _components(g.adjacency_sets(), _check_subset(g, j))


def min_degree(g: GraphEdgeList) -> int:
    return int(g.degrees().min())


def _deficit(adj, js, kappa: float, delta: float) -> float:
    """|boundary(J)| - (1-delta)*|Con(J)| - kappa*|J| (negative = violation)."""
    return len(_boundary(adj, js)) - (1.0 - delta) * _components(adj, js) - kappa * len(js)


def _adversarial_candidates(g: GraphEdgeList, level: int):
    """Deterministic candidate subsets likely to violate expansion.

    Single vertices, non-adjacent pairs among the lowest-degree vertices,
    vertex neighborhoods, and prefixes of a greedy independent set grown
    lowest-degree-first.
    """
    adj = g.adjacency_sets()
    deg = g.degrees()
    order = sorted(range(g.n), key=lambda v: (deg[v], v))
    for v in range(g.n):
        yield frozenset((v,))
    if level >= 2:
        low = order[:40]
        for i, u in enumerate(low):
            for v in low[i + 1:]:
                if v not in adj[u]:
                    yield frozenset((u, v))
    for v in range(g.n):
        nb = adj[v]
        if 1 <= len(nb) <= level:
            yield frozenset(nb)
    indep: list[int] = []
    blocked: set[int] = set()
    for v in order:
        if v in blocked:
            continue
        indep.append(v)
        blocked.add(v)
        blocked |= adj[v]
        if len(indep) <= level:
            yield frozenset(indep)
        else:
            break


def _check_expansion(g, kappa, delta, level, mode, budget, seed):
    if level is None:
        level = g.n // 2
    level = int(level)
    if level >= g.n:
        raise InputError(f"level must be < n, got level={level}, n={g.n}")
    if level < 1:
        raise InputError("level must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    adj = g.adjacency_sets()
    checked = 0

    def report(witness=None):
        return ExpansionReport.verdict(
            kappa, level, mode, checked, witness, None if delta == 0.0 else delta
        )

    total = sum(math.comb(g.n, k) for k in range(1, level + 1))

    def scan_all():
        nonlocal checked
        for k in range(1, level + 1):
            for j in itertools.combinations(range(g.n), k):
                checked += 1
                if _deficit(adj, frozenset(j), kappa, delta) < 0:
                    return report(j)
        return report()

    if mode == "exhaustive":
        if total > budget:
            raise InputError(
                f"exhaustive check needs {total} subsets, over budget {budget}"
            )
        return scan_all()

    # sampled: a budget covering the whole subset space buys the full scan,
    # otherwise adversarial candidates first, then seeded random subsets
    if total <= budget:
        return scan_all()
    for j in _adversarial_candidates(g, level):
        checked += 1
        if _deficit(adj, j, kappa, delta) < 0:
            return report(j)
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        k = int(rng.integers(1, level + 1))
        j = frozenset(rng.choice(g.n, size=k, replace=False).tolist())
        checked += 1
        if _deficit(adj, j, kappa, delta) < 0:
            return report(j)
    return report()


def check_strong_expansion(
    g: GraphEdgeList,
    kappa: float,
    level: int,
    mode: str = "exhaustive",
    budget: int = 1_000_000,
    seed: int = 0,
) -> ExpansionReport:
    """Check |boundary(J)| - |Con(J)| >= kappa*|J| for all J with |J| <= level."""
    return _check_expansion(g, kappa, 0.0, level, mode, budget, seed)


def check_weak_expansion(
    g: GraphEdgeList,
    kappa: float,
    delta: float,
    mode: str = "exhaustive",
    budget: int = 1_000_000,
    seed: int = 0,
    level: int | None = None,
) -> ExpansionReport:
    """Weakened variant: |boundary(J)| - (1-delta)*|Con(J)| >= kappa*|J|.

    The level defaults to floor(n/2), the range the weak condition is
    stated for.
    """
    if not (0.0 < delta < 1.0):
        raise InputError("delta must lie in (0, 1)")
    return _check_expansion(g, kappa, delta, level, mode, budget, seed)


@dataclass(frozen=True)
class HypothesisReport:
    """Per-condition verdicts for the concentration theorem's hypotheses."""

    n: int
    alpha: float
    kappa: float
    beta: float
    theta: float
    level: int
    min_degree_ok: bool
    observed_min_degree: int
    required_min_degree: float
    expansion: ExpansionReport
    max_entry_ok: bool
    max_entry: float
    max_entry_bound: float

    @property
    def all_ok(self) -> bool:
        return self.min_degree_ok and self.expansion.holds and self.max_entry_ok


def check_theorem_hypotheses(
    a: SymMatrix,
    alpha: float,
    kappa: float,
    beta: float,
    theta: float,
    scale: bool = False,
    mode: str = "sampled",
    budget: int = 2000,
    seed: int = 0,
) -> HypothesisReport:
    """Evaluate the three hypotheses on the large-entries graph of B.

    With ``scale=True`` the input is first brought to doubly stochastic
    form; otherwise it is taken to be stochastic already.  Conditions:
    minimum degree of Gamma_B(n^-beta) at least alpha*n + 2, strong
    expansion with parameter kappa up to level floor(n(1-alpha)/(1+kappa/4)),
    and max entry of B at most n^-theta.
    """
    n = a.n
    if scale:
        res = _scaling.scale_symmetric(a)
        if not res.converged:
            raise NumericalError(
                "doubly stochastic scaling did not converge; hypotheses undefined",
                residual=res.residual,
            )
        b = res.b
    else:
        b = a
    gamma = large_entries_graph(b, n ** (-beta))
    level = int(math.floor(n * (1.0 - alpha) / (1.0 + kappa / 4.0)))
    level = max(1, min(level, n - 1))
    required = alpha * n + 2.0
    if gamma.edges:
        observed = min_degree(gamma)
    else:
        observed = 0
    expansion = check_strong_expansion(gamma, kappa, level, mode=mode, budget=budget, seed=seed)
    max_entry = float(b.entries.max())
    bound = n ** (-theta)
    return HypothesisReport(
        n=n,
        alpha=float(alpha),
        kappa=float(kappa),
        beta=float(beta),
        theta=float(theta),
        level=level,
        min_degree_ok=bool(observed >= required),
        observed_min_degree=int(observed),
        required_min_degree=required,
        expansion=expansion,
        max_entry_ok=bool(max_entry <= bound),
        max_entry=max_entry,
        max_entry_bound=bound,
    )
