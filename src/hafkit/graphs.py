"""Graph-side condition checkers: large-entries graph, boundaries, expansion.

A graph is one sorted CSR (``GraphEdgeList``), built from arrays: the
large-entries graph comes straight from ``np.nonzero`` of the matrix.

The expansion checks quantify over vertex subsets, which is exponential in
general.  ``mode="exhaustive"`` enumerates every subset up to the requested
level in ``itertools.combinations`` order (guarded by a budget), and so
does ``mode="sampled"`` when its budget covers every subset: these scans
unrank their subsets as int arrays, a chunk at a time, never a whole level.
Otherwise sampled mode takes a deterministic list of adversarial
candidates, then seeded random subsets.  Every mode, and the public
``boundary`` and ``connected_components_within``, runs one evaluator on
chunks of up to 1024 subsets.  It indexes each vertex's neighbourhood once
as (64-bit word, bits) pairs, ORs a chunk's pairs into the words of J and
N(J), and reads |boundary(J)| and a bound on Con(J) from popcounts; only
subsets that could violate at that bound get vertex-level neighbour
entries and an exact Con(J).  Memory stays O(n + m).  A ``holds=False``
verdict carries the first violating subset as a witness, so negative
verdicts are certificates regardless of mode; positive verdicts from
sampled mode are only evidence.  Deficits are decided in integers, not in
float64, so a deficit of exactly 0 holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .linalg import SymMatrix
from .rng import check_seed
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
    """Simple undirected graph on vertices 0..n-1 as one sorted CSR.

    The neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``, in
    ascending order, so each edge is listed once from each end.  Both
    arrays are read-only.  The constructor trusts them as given: build a
    graph with ``from_pairs`` or ``large_entries_graph``, which check and
    sort.  Graphs compare and hash by value.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for a in (self.indptr, self.indices):
            a.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, GraphEdgeList) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "GraphEdgeList":
        """The graph with edges ``pairs``, any (m, 2) array-like, in either orientation, repeats allowed."""
        if n < 1:
            raise InputError("graph must have at least one vertex")
        ends = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs)).reshape(-1, 2)
        loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
        if loops.size:
            raise InputError(f"self-loop at vertex {ends[loops[0], 0]}")
        far = np.flatnonzero(((ends < 0) | (ends >= n)).any(axis=1))
        if far.size:
            raise InputError(f"edge {tuple(ends[far[0]].tolist())} out of range for n={n}")
        u, v = ends.astype(np.intp).T
        rows, indices = np.divmod(np.unique(np.concatenate((u * n + v, v * n + u))), n)
        return cls(n, np.searchsorted(rows, np.arange(n + 1)), indices)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def pairs(self) -> np.ndarray:
        """The (m, 2) array of edges (u, v) with u < v, in ascending order."""
        rows = np.repeat(np.arange(self.n), self.degrees())
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))

    @property
    def edges(self) -> frozenset:
        """The edges as a frozenset of (u, v) tuples with u < v."""
        return frozenset(map(tuple, self.pairs().tolist()))

    def sym_matrix(self) -> SymMatrix:
        a = np.zeros((self.n, self.n))
        u, v = self.pairs().T
        a[u, v] = a[v, u] = 1.0
        return SymMatrix(a)


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
    delta: float | None

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
    mask = a.entries > theta
    # A is symmetric with a zero diagonal, so its row-major entries are the CSR
    indices = np.flatnonzero(mask)
    indices %= a.n
    return GraphEdgeList(a.n, np.concatenate(([0], np.cumsum(np.count_nonzero(mask, axis=1)))), indices)


_ROWS = 1024
_ENTRIES = 1 << 18


def _bit(v: np.ndarray) -> np.ndarray:
    """Vertex ``v``'s bit in its word, word ``v // 64``."""
    return np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices ``first[i]``, ..., ``first[i] + count[i] - 1`` for each i in turn."""
    return np.arange(count.sum()) + np.repeat(first + count - np.cumsum(count), count)


def _or_by_key(key: np.ndarray, *words: np.ndarray):
    """The distinct values of the ascending ``key``, and the OR of each of ``words`` over each."""
    # the first key starts a run, if there is a key at all
    heads = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))[:key.size]
    return key[heads], [np.bitwise_or.reduceat(w, heads) for w in words]


def _popcount_rows(row: np.ndarray, words: np.ndarray, rows: int) -> np.ndarray:
    """Set bits of ``words`` summed per ``row``."""
    return np.bincount(row, weights=np.bitwise_count(words), minlength=rows).astype(np.intp)


class _SubsetRows:
    """Boundary sizes and component counts of vertex subsets, a chunk of rows at a time.

    Each vertex ``v`` is indexed once as (word, reach, own) triples:
    ``reach`` has bit ``u % 64`` set for each neighbour ``u`` in word
    ``u // 64``, and ``own`` has ``v``'s bit in ``v``'s word.  That is one
    triple per vertex when n <= 64, and at most deg(v) + 1 otherwise.  A
    chunk is a flat array of members with the size of each row; keyed by
    (word, row), the members' triples OR into the words of N(J) and of J.
    |boundary(J)| is the popcount of N(J) & ~J, and the members with a
    neighbour in J are N(J) & J.  Only the rows ``components`` is asked for
    get vertex-level neighbour entries, from the graph's CSR as it is (the
    neighbours of ``v`` are ``nbr[start[v]:start[v] + deg[v]]``).  A chunk has at most
    ``chunk`` rows of at most ``size`` members, so at most ``_ENTRIES``
    neighbour entries and as many triples, plus one per member: memory
    stays O(n + m).
    """

    def __init__(self, g: GraphEdgeList, size: int):
        n = self.n = g.n
        self.nbr, self.start, self.deg = g.indices, g.indptr[:-1], g.degrees()
        words = -(-n // 64)
        # the CSR ascends in (v, u), so in v * words + u // 64: each run is a reach
        reach_key, (reach,) = _or_by_key(
            np.repeat(np.arange(n) * words, self.deg) + (g.indices >> 6), _bit(g.indices))
        # every vertex gets a triple for its own word, with or without neighbours there
        v = np.arange(n)
        own_key = v * words + (v >> 6)
        key = np.union1d(reach_key, own_key)
        self.reach, self.own = np.zeros((2, key.size), dtype=np.uint64)
        self.reach[np.searchsorted(key, reach_key)] = reach
        self.own[np.searchsorted(key, own_key)] = _bit(v)
        self.word = key % words
        self.triples = np.bincount(key // words, minlength=n)
        self.first = np.cumsum(self.triples) - self.triples
        # numpy sorts 8- and 16-bit keys stably by radix
        self.narrow = np.min_scalar_type(words - 1)
        widest = max(1, size * int(self.deg.max()))
        self.chunk = max(1, min(_ROWS, _ENTRIES // widest))

    def load(self, vert: np.ndarray, sizes: np.ndarray) -> None:
        """Evaluate one chunk: the rows' members in turn in ``vert``, row lengths in ``sizes``.

        Rows hold distinct vertices.  Sets ``outside`` (|boundary(J)|) and
        ``most``, an upper bound on Con(J): |J| less half, rounded up, of
        the members with a neighbour in J, since a component with an edge
        has two.
        """
        rows = sizes.size
        self.vert, self.sizes = vert, sizes
        self.row = np.repeat(np.arange(rows), sizes)
        count = self.triples[vert]
        at = _ranges(self.first[vert], count)
        word = self.word[at]
        # stable in the word, so rows stay ascending within each word
        order = np.argsort(word.astype(self.narrow), kind="stable")
        at = at[order]
        key, (reach, own) = _or_by_key(
            word[order] * rows + np.repeat(self.row, count)[order], self.reach[at], self.own[at])
        self.key, self.outer = key, reach & ~own
        row = key % rows
        self.outside = _popcount_rows(row, self.outer, rows)
        linked = _popcount_rows(row, reach & own, rows)
        self.most = sizes - (linked + 1) // 2

    def subset(self, i: int) -> list:
        """Row ``i``'s members, as Python ints."""
        at = int(self.sizes[:i].sum())
        return self.vert[at:at + int(self.sizes[i])].tolist()

    def boundary(self) -> np.ndarray:
        """The vertices of boundary(J) of a one-row chunk, ascending."""
        bits = np.unpackbits(self.outer.astype("<u8").view(np.uint8), bitorder="little")
        at = np.flatnonzero(bits)
        return self.key[at // 64] * 64 + at % 64

    def components(self, need: np.ndarray) -> np.ndarray:
        """Con(J) on the rows where ``need`` is true, ``most`` on the others.

        Each member's label falls to the least label among its own and its
        neighbours', then to its label's label, until no label moves; each
        component then has exactly one member labelled itself.
        """
        if not need.any():
            return self.most
        n = self.n
        sel = np.flatnonzero(need[self.row])
        vert, row = self.vert[sel], self.row[sel]
        deg = self.deg[vert]
        owner = np.repeat(np.arange(vert.size), deg)
        cell = row[owner] * n + self.nbr[_ranges(self.start[vert], deg)]
        # each neighbour entry's member, found among the sorted member cells
        cells = row * n + vert
        order = np.argsort(cells)
        cells = cells[order]
        at = np.searchsorted(cells, cell).clip(max=max(vert.size - 1, 0))
        inner = cells[at] == cell
        a, b = owner[inner], order[at[inner]]
        label = np.arange(vert.size)
        if a.size:
            heads = np.flatnonzero(np.diff(a, prepend=-1))
            tails = a[heads]
            while True:
                low = label.copy()
                low[tails] = np.minimum(label[tails], np.minimum.reduceat(label[b], heads))
                low = low[low]
                if np.array_equal(low, label):
                    break
                label = low
        con = np.bincount(row[label == np.arange(vert.size)], minlength=len(need))
        return np.where(need, con, self.most)


def _one_row(g: GraphEdgeList, j) -> _SubsetRows:
    """The evaluator loaded with the one subset J, once its vertices are checked."""
    js = frozenset(j)
    for v in js:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    ev = _SubsetRows(g, len(js))
    ev.load(np.fromiter(js, np.intp, len(js)), np.array([len(js)]))
    return ev


def boundary(g: GraphEdgeList, j) -> frozenset:
    """External boundary: vertices outside J adjacent to some vertex of J."""
    return frozenset(_one_row(g, j).boundary().tolist())


def connected_components_within(g: GraphEdgeList, j) -> int:
    """Number of connected components of the subgraph induced on J."""
    return int(_one_row(g, j).components(np.ones(1, dtype=bool))[0])


def min_degree(g: GraphEdgeList) -> int:
    return int(g.degrees().min())


def _deficit_weights(kappa: float, delta: float) -> tuple[int, int, int]:
    """Integers ``(unit, keep, per_vertex)``: 1 - delta = keep / unit, kappa = per_vertex / unit.

    kappa and delta are read as the decimals they print as (0.1 is 1/10),
    so unit times the deficit |boundary(J)| - (1-delta)*Con(J) - kappa*|J|,
    unit*|boundary(J)| - keep*Con(J) - per_vertex*|J|, is an exact integer.
    """
    if not (math.isfinite(kappa) and math.isfinite(delta)):
        raise InputError(f"kappa and delta must be finite, got {kappa} and {delta}")
    k, d = Fraction(repr(float(kappa))), Fraction(repr(float(delta)))
    unit = math.lcm(k.denominator, d.denominator)
    return unit, int((1 - d) * unit), int(k * unit)


def _first_violation(ev: _SubsetRows, chunks, kappa: float, delta: float):
    """``(checked, witness)``: the first subset whose expansion deficit is negative.

    ``chunks`` yields ``(vert, sizes)`` chunks of at most ``ev.chunk``
    distinct-vertex subsets, in order; the deficit
    ``|boundary(J)| - (1-delta)*Con(J) - kappa*|J|`` is decided exactly, in
    integers over the common denominator of ``_deficit_weights``: int64
    where every term is below 2^63 / 3, Python ints otherwise.  ``checked``
    counts the subsets up to and including the witness (None if none violates).
    """
    unit, keep, per_vertex = _deficit_weights(kappa, delta)
    dtype = np.int64 if max(unit, keep, abs(per_vertex)) * ev.n < 2**63 // 3 else object
    checked = 0
    for vert, sizes in chunks:
        ev.load(vert, sizes)
        base = unit * ev.outside.astype(dtype) - per_vertex * sizes.astype(dtype)
        # the deficit falls as Con(J) grows, so a row that holds at the
        # bound Con(J) <= most cannot violate and skips the exact count
        need = base - keep * ev.most.astype(dtype) < 0
        bad = np.flatnonzero(base - keep * ev.components(need).astype(dtype) < 0)
        if bad.size:
            return checked + int(bad[0]) + 1, ev.subset(int(bad[0]))
        checked += sizes.size
    return checked, None


def _combinations(n: int, level: int, rows: int):
    """Every subset of 1..level vertices as ``(vert, sizes)`` chunks, in ``itertools.combinations`` order.

    A chunk holds up to ``rows`` consecutive k-subsets, unranked from their
    ranks in lexicographic order, so no level is held whole.  With
    below_j(x) = C(n, k-j) - C(n-x, k-j), the number of (k-j)-subsets of
    range(n) whose least member lies below x, member j of the subset of
    rank r is the largest x with below_j(x) <= r_j, where r_0 = r and
    r_{j+1} = r_j - below_j(x) + below_{j+1}(x + 1).  Counts are int64: a
    scan reaches a level of 2^63 subsets only after 2^63 / n of them.
    """
    comb = np.ones(n + 1, dtype=np.int64)  # C(m, r) for m = 0..n, from r = 0
    combs = []
    for k in range(1, level + 1):
        comb = np.concatenate(([0], np.cumsum(comb[:-1])))
        combs.append(comb)
        below = [c[n] - c[::-1] for c in combs[::-1]]
        # below_j(0) = 0 <= r_j, so x is the count of below_j(1..n) <= r_j
        search = [b[1:] for b in below]
        step = [below[j + 1][1:] - below[j][:-1] for j in range(k - 1)]
        total = int(comb[n])
        for first in range(0, total, rows):
            r = np.arange(first, min(first + rows, total), dtype=np.int64)
            members = []
            for j in range(k):
                members.append(np.searchsorted(search[j], r, side="right"))
                if j < k - 1:
                    r += step[j][members[j]]
            yield np.column_stack(members).ravel(), np.full(r.size, k)


def _listed(subsets, rows: int):
    """``(vert, sizes)`` chunks of at most ``rows`` of the given subsets, in order."""
    subsets = iter(subsets)
    while chunk := list(itertools.islice(subsets, rows)):
        sizes = np.fromiter(map(len, chunk), np.intp, len(chunk))
        yield np.fromiter(itertools.chain.from_iterable(chunk), np.intp, int(sizes.sum())), sizes


def _adversarial_candidates(g: GraphEdgeList, level: int):
    """Deterministic candidate subsets likely to violate expansion.

    Single vertices, non-adjacent pairs among the lowest-degree vertices,
    vertex neighborhoods, and prefixes of a greedy independent set grown
    lowest-degree-first.
    """
    deg = g.degrees()
    order = np.argsort(deg, kind="stable").tolist()
    neighbours = np.split(g.indices, g.indptr[1:-1])
    for v in range(g.n):
        yield frozenset((v,))
    if level >= 2:
        low = order[:40]
        for i, u in enumerate(low):
            apart = ~np.isin(low[i + 1:], neighbours[u])
            yield from (frozenset((u, v)) for v, far in zip(low[i + 1:], apart.tolist()) if far)
    for v in np.flatnonzero((deg >= 1) & (deg <= level)).tolist():
        yield frozenset(neighbours[v].tolist())
    indep: list[int] = []
    blocked = np.zeros(g.n, dtype=bool)
    for v in order:
        if blocked[v]:
            continue
        indep.append(v)
        if len(indep) > level:
            break
        blocked[neighbours[v]] = True
        yield frozenset(indep)


def _sampled_subsets(g: GraphEdgeList, level: int, budget: int, seed: int):
    """Adversarial candidates, then ``budget`` seeded random subsets of size 1..level."""
    yield from _adversarial_candidates(g, level)
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        k = int(rng.integers(1, level + 1))
        yield rng.choice(g.n, size=k, replace=False).tolist()


def _count_text(count: int) -> str:
    """``count`` in decimal, or as its power of ten past 30 digits."""
    return str(count) if count < 10**30 else f"about 10^{math.log10(count):.0f}"


def _check_scan(mode, budget, seed) -> int:
    """Refuse a mode, budget or seed that no expansion check accepts; returns the seed as an int."""
    if mode not in ("exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    return check_seed(seed)


def _check_expansion(g, kappa, delta, level, mode, budget, seed):
    level = g.n // 2 if level is None else int(level)
    if level >= g.n:
        raise InputError(f"level must be < n, got level={level}, n={g.n}")
    if level < 1:
        raise InputError("level must be >= 1")
    seed = _check_scan(mode, budget, seed)
    # one running sum, C(n, k) = C(n, k-1) (n-k+1) / k, which sampled mode
    # needs only up to the budget
    total, term = 0, 1
    for k in range(1, level + 1):
        term = term * (g.n - k + 1) // k
        total += term
        if total > budget and mode == "sampled":
            break
    if mode == "exhaustive" and total > budget:
        raise InputError(f"exhaustive check needs {_count_text(total)} subsets, over budget {budget}")
    # a budget covering the whole subset space buys the full scan in
    # combinations order; otherwise candidates first, then seeded draws
    ev = _SubsetRows(g, level)
    if total <= budget:
        chunks = _combinations(g.n, level, ev.chunk)
    else:
        chunks = _listed(_sampled_subsets(g, level, budget, seed), ev.chunk)
    checked, witness = _first_violation(ev, chunks, kappa, delta)
    delta = None if delta == 0.0 else delta
    return ExpansionReport.verdict(kappa, level, mode, checked, witness, delta)


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


class MinDegree(NamedTuple):
    ok: bool
    observed: int
    required: float


class MaxEntry(NamedTuple):
    ok: bool
    observed: float
    bound: float


class Conditions(NamedTuple):
    min_degree: MinDegree
    strong_expansion: ExpansionReport
    max_entry: MaxEntry


@dataclass(frozen=True)
class HypothesisReport:
    """Per-condition verdicts for the concentration theorem's hypotheses.

    ``all_ok`` holds when all three ``conditions`` do; a bound past float64
    is +inf.
    """

    n: int
    level: int
    conditions: Conditions
    all_ok: bool


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
    expansion with parameter kappa > -4 up to level
    floor(n(1-alpha)/(1+kappa/4)), clamped to [1, n-1], and max entry of B
    at most n^-theta.
    """
    if not all(map(math.isfinite, (alpha, kappa, beta, theta))):
        raise InputError(f"alpha, kappa, beta and theta must be finite, got {(alpha, kappa, beta, theta)}")
    if kappa <= -4:
        raise InputError(f"kappa must be > -4, where the level n(1-alpha)/(1+kappa/4) is defined, got {kappa}")
    _check_scan(mode, budget, seed)  # before scaling, which can take seconds
    n = a.n
    if scale:
        res = _scaling.scale_symmetric(a)
        if not res.converged:
            raise NumericalError(f"doubly stochastic scaling did not converge (residual {res.residual:.3g}); "
                                 "hypotheses undefined")
        b = res.b
    else:
        b = a
    gamma = large_entries_graph(b, _scaling.n_power(n, -beta))
    # clamped before the int, since the level overflows to inf for a huge 1 - alpha
    level = int(math.floor(min(max(n * (1.0 - alpha) / (1.0 + kappa / 4.0), 1), n - 1)))
    required = alpha * n + 2.0
    observed = min_degree(gamma)
    expansion = check_strong_expansion(gamma, kappa, level, mode=mode, budget=budget, seed=seed)
    max_entry = float(b.entries.max())
    bound = _scaling.n_power(n, -theta)
    min_ok, max_ok = bool(observed >= required), bool(max_entry <= bound)
    return HypothesisReport(
        n=n,
        level=level,
        conditions=Conditions(
            MinDegree(min_ok, int(observed), required),
            expansion,
            MaxEntry(max_ok, max_entry, bound),
        ),
        all_ok=min_ok and expansion.holds and max_ok,
    )
