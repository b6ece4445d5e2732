"""Exact hafnian and perfect-matching oracles for small dimensions.

The hafnian follows the recursion that removes the lowest live vertex ``i``
together with each partner ``j``:

    haf(A, S) = sum over j in S with A[i, j] != 0 of A[i, j] * haf(A, S \\ {i, j}).

From the full vertex set it reaches only F(n + 1) subsets on K_n (75,025 at
n = 24, against 2^24) and far fewer on sparse graphs, so time and memory
grow with the states reached, not with 2^n.  These are found level by level
as sorted int64 bit masks; values are then pulled up from the empty set,
each state adding its terms in ascending ``j``.  Integer inputs are counted
exactly: in int64 while no partial sum can reach 2^63, and in Python ints
from the level where one could.  Other inputs are summed in float64, A and
each level scaled by the power of two that puts its largest value in [0.5, 1).

The one guard on the cost is the number of moves, the (state, partner)
pairs the levels are built from: past 2^23 of them the DP stops and raises
``InputError``.  Every move on an n-vertex support is also one on K_n, and
K_n makes 0.75 M moves at n = 24 and 6.1 M at n = 28, so every input up to
n = 28 is counted, and sparse ones well beyond (a 3-regular graph at
n = 48 makes 0.45 M).  K_30 makes 17 M and is refused part way through its
levels, before they hold 100 MB.

``support_blocks(a)`` decides whether the support of A has a perfect
matching, by an augmenting-path matcher with blossom contraction usable far
beyond the reach of the hafnian DP, and from that matching finds the total
support, the edges that lie on some cycle cover, by one
strongly-connected-component pass (Dulmage-Mendelsohn), as the blocks over
which every determinant with that support factors.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import GraphEdgeList
from .linalg import SymMatrix

__all__ = [
    "HafnianValue",
    "hafnian_exact",
    "count_perfect_matchings",
    "support_blocks",
]

# vertex sets are int64 bit masks
_MAX_N = 62
# moves the DP may make while it builds its levels: K_28 makes 6.1 M
_MAX_MOVES = 2**23
# float64 holds every integer below 2^53; int64 every integer below 2^63
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class HafnianValue:
    """Hafnian in log form, with the plain value when it is representable.

    ``value_if_small`` is a float, except for integer counts of 2^53 and
    more, which are exact Python ints.
    """

    log_value: float
    value_if_small: float | int | None
    n: int


def _moves(masks: np.ndarray, nbrs: np.ndarray):
    """Yield ``(j, parents, i, children)`` for every partner ``j``, ascending.

    ``i`` is the lowest live vertex of each parent mask and ``children`` are
    the parents with ``i`` and ``j`` removed.
    """
    low = masks & -masks
    lowest = np.frexp(low.astype(np.float64))[1] - 1  # exact: low is a power of two
    partners = masks & nbrs[lowest]
    for j in range(nbrs.size):
        parents = np.flatnonzero((partners >> j) & 1)
        if parents.size:
            yield j, parents, lowest[parents], masks[parents] ^ low[parents] ^ (1 << j)


def _hafnian_dp(a: np.ndarray) -> tuple[float | int, int]:
    """``(v, shift)`` with haf = v * 2^shift: a float v is 0 or in [0.5, 1), an integer one exact, shift 0."""
    n = a.shape[0]
    shift = 0
    nbrs = np.array([sum(1 << int(j) for j in np.flatnonzero(row)) for row in a], dtype=np.int64)
    levels = [np.array([(1 << n) - 1], dtype=np.int64)]
    moves = 0
    for _ in range(n // 2):
        children = []
        for *_, kids in _moves(levels[-1], nbrs):
            moves += kids.size
            if moves > _MAX_MOVES:
                raise InputError(f"exact hafnian needs more than {_MAX_MOVES} DP moves at n={n}")
            children.append(kids)
        if not children:
            return 0, 0
        level = np.concatenate(children)
        level.sort()  # then keep each mask that differs from its predecessor
        levels.append(level[np.insert(level[1:] != level[:-1], 0, True)])
    row_max = int(a.sum(axis=1).max())
    val = np.ones(1, dtype=a.dtype)
    for masks, below in zip(levels[-2::-1], levels[:0:-1]):
        if a.dtype == np.int64 and int(val.max()) * row_max >= _INT64_LIMIT:
            a, val = a.astype(object), val.astype(object)
        acc = np.zeros(masks.size, dtype=a.dtype)
        for j, parents, i, kids in _moves(masks, nbrs):
            acc[parents] += a[i, j] * val[np.searchsorted(below, kids)]
        if acc.dtype == np.float64:  # the level's largest value into [0.5, 1)
            e = math.frexp(acc.max())[1]
            acc, shift = np.ldexp(acc, -e), shift + e
        val = acc
    return val.tolist()[0], shift


def hafnian_exact(a: SymMatrix) -> HafnianValue:
    """Exact hafnian of a nonnegative symmetric matrix of even dimension.

    For a 0/1 adjacency matrix this is the number of perfect matchings.
    Dimensions above 62, and inputs whose DP would make more than 2^23
    moves (K_n for every n above 28), are refused.
    Integer inputs below 2^53 are counted exactly, past int64 too.
    Other inputs give the plain float64 sum wherever that is a normal
    float, and at any other unit of A the log value with value_if_small None.
    """
    a.require_even()
    n = a.n
    if n > _MAX_N:
        raise InputError(f"exact hafnian needs n <= {_MAX_N} (int64 vertex masks), got n={n}")
    c = float(a.entries.max())
    if c < _FLOAT_EXACT and np.array_equal(a.entries, np.floor(a.entries)):
        count = _hafnian_dp(a.entries.astype(np.int64))[0]
        value = float(count) if count < _FLOAT_EXACT else count
        return HafnianValue(log_value=math.log(count) if count else -math.inf, value_if_small=value, n=n)
    e = math.frexp(c)[1]  # A times 2^-e has its largest entry in [0.5, 1)
    scaled, shift = _hafnian_dp(np.ldexp(a.entries, -e))
    shift += e * (n // 2)
    if not scaled or sys.float_info.min_exp <= shift <= sys.float_info.max_exp:
        value = math.ldexp(scaled, shift)
        return HafnianValue(log_value=math.log(value) if value else -math.inf, value_if_small=value, n=n)
    return HafnianValue(log_value=math.log(scaled) + shift * math.log(2.0), value_if_small=None, n=n)


def count_perfect_matchings(g: GraphEdgeList) -> HafnianValue:
    """Number of perfect matchings of a simple graph (hafnian of its adjacency)."""
    if g.n % 2 != 0:
        raise InputError(f"perfect matchings need an even vertex count, got n={g.n}")
    return hafnian_exact(g.sym_matrix())


def _max_matching(n: int, adj) -> list[int]:
    """Maximum matching in a general graph (augmenting paths + blossoms)."""
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used = [False] * n
        x = a
        while True:
            x = base[x]
            used[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if used[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        q = deque([root])
        in_queue[root] = True
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not in_queue[i]:
                                in_queue[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along the alternating path ending at `to`
                        while to != -1:
                            prev = parent[to]
                            nxt = match[prev]
                            match[prev] = to
                            match[to] = prev
                            to = nxt
                        return True
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        q.append(match[to])
        return False

    # a greedy start leaves few augmenting searches, and so few blossoms to contract
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v], match[to] = to, v
                    break
    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component label of every node (iterative Tarjan)."""
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    label = [-1] * n  # -1 on a visited node: still on the Tarjan stack
    stack: list[int] = []
    visited = labels = 0
    for root in range(n):
        if order[root] != -1:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if order[w] == -1:
                    order[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if label[w] == -1:
                    low[v] = min(low[v], order[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        label[w] = labels
                        if w == v:
                            break
                    labels += 1
    return label


def _blocks(adj, cover: list[int]) -> list[tuple[list[int], list[int], int]]:
    """``(rows, cols, power)`` of every block of the total support.

    ``adj`` lists the neighbours of every vertex and ``cover`` is one cycle
    cover, as a permutation with every ``(i, cover[i])`` an edge; a perfect
    matching is one.  Edge (i, k) lies on a cycle cover iff i and
    cover^-1(k) share a strongly connected component of the digraph
    i -> cover^-1(k) over all edges (i, k) (Dulmage-Mendelsohn); any
    determinant with this support factors over these components.  A
    component R has columns cover(R), by symmetry R itself or another
    component: ``(R, R, 1)`` is one skew block W[R, R], ``(R, cover(R), 2)``
    a bipartite pair, det(W[R, cover(R)])^2, listed once, from the side of
    its lowest vertex.  Blocks come in order of their lowest vertex, rows
    and columns sorted.
    """
    n = len(adj)
    inverse = [0] * n
    for i, k in enumerate(cover):
        inverse[k] = i
    label = _strong_components([[inverse[k] for k in adj[i]] for i in range(n)])
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(label[v], []).append(v)
    blocks = []
    for rows in members.values():  # in order of lowest vertex
        cols = members[label[cover[rows[0]]]]
        if cols is rows:
            blocks.append((rows, rows, 1))
        elif rows[0] < cols[0]:
            blocks.append((rows, cols, 2))
    return blocks


def support_blocks(a: SymMatrix) -> list[tuple[list[int], list[int], int]] | None:
    """``_blocks`` of the support of A, or None if it has no perfect matching.

    The support is every A[i, j] > 0.  Matcher and component pass read
    ascending neighbour lists cut straight from A, one list slot per
    support entry.
    """
    if a.n % 2 != 0:
        return None
    adj = [np.flatnonzero(row).tolist() for row in a.entries > 0]
    match = _max_matching(a.n, adj)
    return None if -1 in match else _blocks(adj, match)
