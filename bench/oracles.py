"""Computations made apart from hafkit, used to judge its reports.

Nothing here imports hafkit.  Each function works from the plain
definition: hafnians by pairing enumeration and by a memoised lowest-vertex
recursion in Python integers, expansion by a plain subset scan with its own
breadth-first search, and spectra by ``numpy.linalg.eigvals`` of a W that is
rebuilt from the documented stream contract.  ``test_oracles.py`` checks
every function against closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def adjacency_sets(n: int, edges) -> list[set]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def hafnian_by_pairings(n: int, edges) -> int:
    """Perfect matchings counted by enumerating the pairings of range(n)."""
    adj = adjacency_sets(n, edges)

    def rec(rest: tuple) -> int:
        if not rest:
            return 1
        i = rest[0]
        total = 0
        for t in range(1, len(rest)):
            if rest[t] in adj[i]:
                total += rec(rest[1:t] + rest[t + 1 :])
        return total

    return rec(tuple(range(n))) if n % 2 == 0 else 0


def hafnian_memo(n: int, edges) -> int:
    """Perfect matchings by the lowest-vertex recursion, memoised on the vertex set.

    haf(S) = sum over neighbours j of the lowest vertex i of haf(S - {i, j}).
    Vertices are taken lowest degree first, which keeps the reachable sets
    few on graphs with a dense core (the counterexample's center clique).
    """
    if n % 2:
        return 0
    adj = adjacency_sets(n, edges)
    order = sorted(range(n), key=lambda v: (len(adj[v]), v))
    pos = {v: k for k, v in enumerate(order)}
    nbr = [0] * n
    for v in range(n):
        for w in adj[v]:
            nbr[pos[v]] |= 1 << pos[w]
    memo = {0: 1}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        low = mask & -mask
        rest = mask ^ low
        cand = nbr[low.bit_length() - 1] & rest
        total = 0
        while cand:
            bit = cand & -cand
            total += rec(rest ^ bit)
            cand ^= bit
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def _components(adj, js: set) -> int:
    seen: set = set()
    comps = 0
    for start in js:
        if start in seen:
            continue
        comps += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w in js and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return comps


def expansion_lhs(adj, js) -> float:
    """|boundary(J)| - |Con(J)| for the strong expansion inequality."""
    js = set(js)
    boundary = set()
    for v in js:
        boundary |= adj[v]
    return len(boundary - js) - _components(adj, js)


def expansion_scan(n: int, edges, kappa: float, level: int) -> tuple[bool, tuple | None, int]:
    """(holds, first witness, subsets scanned) over every J with 1 <= |J| <= level."""
    adj = adjacency_sets(n, edges)
    scanned = 0
    for k in range(1, level + 1):
        for js in itertools.combinations(range(n), k):
            scanned += 1
            if expansion_lhs(adj, js) < kappa * k:
                return False, js, scanned
    return True, None, scanned


def subsets_up_to(n: int, level: int) -> int:
    return sum(math.comb(n, k) for k in range(1, level + 1))


def stream_normals(seed: int, index: int, count: int) -> np.ndarray:
    """Normals of sample `index`: numpy's Philox keyed by (seed, index), then its ziggurat."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)


def skew_sample(b: np.ndarray, seed: int, index: int) -> np.ndarray:
    """W with W[i, j] = g * sqrt(B[i, j]) above the diagonal, filled row by row."""
    n = b.shape[0]
    iu, ju = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[iu, ju] = stream_normals(seed, index, iu.size) * np.sqrt(b[iu, ju])
    return w - w.T


def eig_counts(w: np.ndarray, etas) -> list[int]:
    """#{eigenvalues of W with |lambda| < eta} per eta; those of iW have the same moduli."""
    mags = np.abs(np.linalg.eigvals(w))
    return [int(np.sum(mags < eta)) for eta in etas]


def det_sd_complete(n: int, samples: int, seed: int) -> float:
    """Standard deviation of det(W) for K_n, from numpy normals and LU determinants."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    ws = np.zeros((samples, n, n))
    ws[:, iu, ju] = rng.standard_normal((samples, iu.size))
    ws -= np.transpose(ws, (0, 2, 1))
    return float(np.std(np.linalg.det(ws)))
