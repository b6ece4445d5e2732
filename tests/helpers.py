"""Independent brute-force oracles used to validate the package.

Everything here is deliberately written from scratch against the plain
definitions (pairing enumeration, subset scans with their own BFS), not by
calling into hafkit internals, so agreement is meaningful.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import digamma


def naive_hafnian(a: np.ndarray) -> float:
    """Hafnian by direct enumeration of all (n-1)!! pairings.

    Exact for an object array of Python ints.
    """
    n = a.shape[0]
    assert n % 2 == 0

    def rec(idx):
        if not idx:
            return 1
        i = idx[0]
        total = 0
        for t in range(1, len(idx)):
            j = idx[t]
            rest = idx[1:t] + idx[t + 1:]
            total += a[i, j] * rec(rest)
        return total

    return rec(tuple(range(n)))


def memo_matchings(n: int, edges) -> int:
    """Perfect matchings of a simple graph, as an exact Python int.

    Removes the lowest remaining vertex with each remaining neighbour and
    memoises on the remaining vertex set (a Python int bit mask), so large
    sparse graphs stay cheap.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo = {0: 1}

    def rec(left):
        if left in memo:
            return memo[left]
        i = (left & -left).bit_length() - 1
        rest = left & ~(1 << i)
        total = 0
        cand = nbr[i] & rest
        while cand:
            low = cand & -cand
            total += rec(rest & ~low)
            cand ^= low
        memo[left] = total
        return total

    return rec((1 << n) - 1)


def naive_pfaffian(w: np.ndarray) -> float:
    """Pfaffian as a signed sum over perfect pairings of [n]."""
    n = w.shape[0]
    if n % 2 == 1:
        return 0.0

    def rec(idx, acc_sign):
        if not idx:
            return acc_sign
        total = 0.0
        i = idx[0]
        for t in range(1, len(idx)):
            j = idx[t]
            rest = idx[1:t] + idx[t + 1:]
            sign = -1.0 if (t - 1) % 2 else 1.0
            total += w[i, j] * rec(rest, acc_sign * sign)
        return total

    return rec(tuple(range(n)), 1.0)


def neighbour_sets(g) -> list[set]:
    """The neighbours of every vertex of ``g``, read from its ``edges`` pairs alone."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _brute_boundary(adj, js):
    out = set()
    for v in js:
        out |= adj[v]
    return out - js


def _brute_components(adj, js):
    seen = set()
    comps = 0
    for s in js:
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for w in adj[v] & js:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


def expansion_scan(n, edges, kappa, level, delta=0.0, subsets=None):
    """(holds, witness, sets_checked) of the expansion inequality.

    Scans ``subsets`` in the order given, by default the subsets of size
    1..level in ``itertools.combinations`` order, and stops at the first
    one that violates it; ``sets_checked`` counts the subsets evaluated,
    that one included.  The inequality is decided in ``Fraction``s, with
    kappa and delta read as the decimals they print as.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if subsets is None:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, level + 1)
        )
    kappa, delta = Fraction(repr(float(kappa))), Fraction(repr(float(delta)))

    @functools.cache  # Fraction arithmetic is slow; few (boundary, Con, |J|) recur
    def violates(outside, comps, size):
        return outside - (1 - delta) * comps < kappa * size

    checked = 0
    for js in subsets:
        checked += 1
        js = set(js)
        if violates(len(_brute_boundary(adj, js)), _brute_components(adj, js), len(js)):
            return False, tuple(sorted(js)), checked
    return True, None, checked


def brute_expansion(n, edges, kappa, level, delta=0.0):
    """(holds, witness) for the expansion inequality by scanning all subsets."""
    holds, witness, _ = expansion_scan(n, edges, kappa, level, delta)
    return holds, witness


def reference_scaling(a, residual_target, max_iterations, d0=None):
    """(d, residual, iterations, converged) of symmetric Sinkhorn, one step at a time.

    Each step computes r = d * (A d), stops on a non-finite or nonpositive
    r (residual kept from the step before), on max|r - 1| <= target
    (converged) or on reaching max_iterations, and otherwise takes
    d <- d / sqrt(r) unless that makes max d / min d exceed 1e200.
    """
    d = 1.0 / np.sqrt(a.sum(axis=1)) if d0 is None else np.array(d0, dtype=np.float64)
    iterations = 0
    residual = float("inf")
    while True:
        r = d * (a @ d)
        if not np.all(np.isfinite(r)) or np.any(r <= 0):
            return d, residual, iterations, False
        residual = float(np.max(np.abs(r - 1.0)))
        if residual <= residual_target:
            return d, residual, iterations, True
        if iterations >= max_iterations:
            return d, residual, iterations, False
        d_new = d / np.sqrt(r)
        if np.max(d_new) > 1e200 * np.min(d_new):
            return d, residual, iterations, False
        d = d_new
        iterations += 1


def _philox(seed: int, key: int):
    """Freshly keyed numpy generator on stream (seed, key).

    The key is a uint64 array, since numpy turns a list such as
    [0, 2**64 - 4] into float64.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def support_edges(a: np.ndarray) -> list:
    """Edges (i, j), i < j, of the support of ``a`` (a[i, j] > 0), in row-major order."""
    iu, ju = np.nonzero(np.triu(a > 0, 1))
    return list(zip(iu.tolist(), ju.tolist()))


def sample_edges(a: np.ndarray) -> list:
    """Edges a sample draws one normal for, in row-major order.

    The edges of ``brute_total_support`` when the support of ``a`` has a
    perfect matching (``memo_matchings``), and none when it has not.
    """
    n = a.shape[0]
    edges = support_edges(a)
    if n % 2 or memo_matchings(n, edges) == 0:
        return []
    return sorted(brute_total_support(n, edges))


def counterexample_edges(n_center: int, m_pairs: int) -> list:
    """``sample_edges`` of the center-clique counterexample, in closed form.

    Every plain peripheral needs a center partner, so a perfect matching
    gives the whole center to them and pairs each paired vertex with its
    partner: the total support is the center-plain K_{n,n} and the pair
    edges, n^2 + m edges.
    """
    n = n_center
    edges = [(c, n + p) for c in range(n) for p in range(n)]
    return edges + [(2 * n + 2 * t, 2 * n + 2 * t + 1) for t in range(m_pairs)]


def _entrywise_w(a: np.ndarray, gen, edges) -> np.ndarray:
    """W from the next normals of ``gen``, assembled one entry at a time.

    One standard normal per edge (i, j) of ``edges``, in the order given;
    the normal times sqrt(a[i, j]) goes to W[i, j] and its negative to
    W[j, i].  Every other entry is +0.0.
    """
    n = a.shape[0]
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = gen.standard_normal() * math.sqrt(a[i, j])
        w[j, i] = -w[i, j]
    return w


def support_stream_w(a: np.ndarray, seed: int, index: int) -> np.ndarray:
    """W of spectral trial ``index``: stream (seed, index) gives every support edge a normal."""
    return _entrywise_w(a, _philox(seed, index), support_edges(a))


def support_chunk_w(a: np.ndarray, seed: int, index: int, chunk: int, edges=None) -> np.ndarray:
    """W of sample ``index`` when each ``chunk`` samples share one stream.

    The normals go to ``edges``, by default ``sample_edges(a)``, m of
    them.  Stream (seed, index // chunk) draws and discards (index % chunk)
    * m normals, in pieces that ignore row boundaries; W then takes the
    next m normals.
    """
    edges = sample_edges(a) if edges is None else edges
    gen = _philox(seed, index // chunk)
    skip = (index % chunk) * len(edges)
    while skip:
        piece = min(skip, 1 << 16)
        gen.standard_normal(piece)
        skip -= piece
    return _entrywise_w(a, gen, edges)


def _stream_ws(a: np.ndarray, seed: int, num: int, chunk: int, edges) -> np.ndarray:
    n = a.shape[0]
    iu = np.array([i for i, _ in edges], dtype=np.intp)
    ju = np.array([j for _, j in edges], dtype=np.intp)
    scale = np.sqrt(a[iu, ju])
    ws = np.zeros((num, n, n))
    for first in range(0, num, chunk):
        g = _philox(seed, first // chunk).standard_normal((chunk, iu.size))
        rows = min(chunk, num - first)
        ws[first : first + rows, iu, ju] = g[:rows] * scale
    ws -= ws.transpose(0, 2, 1)
    return ws


def chunk_stream_ws(a: np.ndarray, seed: int, num: int, chunk: int, edges=None) -> np.ndarray:
    """W of samples 0..num-1 as one (num, n, n) stack, ``chunk`` samples per stream.

    For each chunk c a freshly keyed numpy Philox generator on stream
    (seed, c) draws a whole (chunk, m) array; row r gives sample c * chunk +
    r its normals, one per edge of ``edges`` (by default
    ``sample_edges(a)``), placed as ``support_chunk_w`` places them one at
    a time.
    """
    return _stream_ws(a, seed, num, chunk, sample_edges(a) if edges is None else edges)


def trial_stream_ws(a: np.ndarray, seed: int, num: int) -> np.ndarray:
    """W of spectral trials 0..num-1: trial t is stream (seed, t), one normal per support edge."""
    return _stream_ws(a, seed, num, 1, support_edges(a))


def random_symmetric01(rng, n, p=0.5) -> np.ndarray:
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    vals = (rng.random(iu[0].size) < p).astype(float)
    a[iu] = vals
    a += a.T
    return a


def random_graph_with_matching(rng, n, extra_p=0.3):
    """Random graph guaranteed to contain a perfect matching in its support."""
    perm = rng.permutation(n)
    edges = {(min(int(perm[2 * t]), int(perm[2 * t + 1])), max(int(perm[2 * t]), int(perm[2 * t + 1]))) for t in range(n // 2)}
    iu = np.triu_indices(n, 1)
    for i, j in zip(iu[0], iu[1]):
        if rng.random() < extra_p:
            edges.add((int(i), int(j)))
    return edges


def scalable_graph(rng, n, extra_p=0.4):
    """Random graph in which every edge lies in some perfect matching.

    Start from a perfect matching plus random edges, then drop any edge
    whose removal of its endpoints leaves a graph with no perfect matching
    (checked by pairing enumeration).  Dropping such edges does not change
    the matching set, so one pass suffices.
    """
    edges = random_graph_with_matching(rng, n, extra_p)
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    kept = set()
    for u, v in edges:
        rest = [k for k in range(n) if k not in (u, v)]
        minor = a[np.ix_(rest, rest)]
        if n == 2 or naive_hafnian(minor) > 0:
            kept.add((u, v))
    return kept


def random_skew(rng, n, zero_frac=0.0) -> np.ndarray:
    w = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    vals = rng.normal(size=iu[0].size)
    if zero_frac > 0:
        vals[rng.random(vals.size) < zero_frac] = 0.0
    w[iu] = vals
    w -= w.T
    return w


def tutte_barrier_support(rng, n, s, p=0.7) -> np.ndarray:
    """Weighted support with no perfect matching, certified by a Tutte barrier.

    Vertices are split into a barrier of s vertices and s + 2 parts of odd
    size with no edge between two parts.  Removing the barrier leaves at
    least s + 2 odd components, more than s, so by Tutte's theorem the graph
    has no perfect matching whatever the other edges are.  Every allowed
    pair is an edge with probability p and gets a weight in [0.1, 2).
    """
    assert n % 2 == 0 and n >= 2 * s + 2
    sizes = [1] * (s + 2)
    for _ in range((n - 2 * s - 2) // 2):
        sizes[int(rng.integers(s + 2))] += 2
    perm = [int(v) for v in rng.permutation(n)]
    barrier = perm[:s]
    part_of = {}
    pos = s
    for k, size in enumerate(sizes):
        for v in perm[pos:pos + size]:
            part_of[v] = k
        pos += size
    a = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        allowed = i in barrier or j in barrier or part_of[i] == part_of[j]
        if allowed and rng.random() < p:
            a[i, j] = a[j, i] = rng.uniform(0.1, 2.0)
    return a


def _has_permutation(rows, cols, support) -> bool:
    """True iff rows can be matched one-to-one into cols through support."""
    masks = {0}
    for r in rows:
        masks = {m | 1 << k for m in masks for k in cols if not m >> k & 1 and (r, k) in support}
        if not masks:
            return False
    return True


def brute_total_support(n, edges) -> set:
    """Edges (i, j), i < j, that lie on some cycle cover of the graph.

    Entry (i, j) of the 0/1 matrix lies on a positive diagonal iff the
    bipartite support minus row i and column j has a perfect matching;
    checked over subsets of used columns, row by row (n <= 10 or so).
    """
    support = set()
    for u, v in edges:
        support |= {(u, v), (v, u)}
    kept = set()
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in support:
            continue
        rows = [r for r in range(n) if r != i]
        cols = [k for k in range(n) if k != j]
        if _has_permutation(rows, cols, support):
            kept.add((i, j))
    return kept


def brute_blocks(n, edges) -> list:
    """``(rows, cols, power)`` of each connected component of the total support.

    Components of ``brute_total_support``'s edges, in order of their lowest
    vertex, each 2-coloured by its own BFS from that vertex: a bipartite
    component gives (the lowest vertex's side, the other side, 2), any
    other component S gives (S, S, 1).  Rows and columns are sorted.
    """
    nbrs = {v: set() for v in range(n)}
    for u, v in brute_total_support(n, edges):
        nbrs[u].add(v)
        nbrs[v].add(u)
    colour = {}
    blocks = []
    for root in range(n):
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
        comp = sorted(queue)
        sides = [[v for v in comp if colour[v] == c] for c in (0, 1)]
        if any(colour[v] == colour[w] for v in comp for w in nbrs[v]):
            blocks.append((comp, comp, 1))
        else:
            blocks.append((sides[0], sides[1], 2))
    return blocks


def counterexample_log_det_mean(n_center: int, m_pairs: int) -> float:
    """Exact E[log det W] on the center-clique counterexample.

    Only the center-plain and pair edges lie on a cycle cover, so
    det W = det(P)^2 * prod_t r_t^2 with P an n x n standard Gaussian matrix
    and r_t the pair Gaussians.  By Bartlett's decomposition det(P)^2 is a
    product of independent chi^2_k, k = 1..n, and E log chi^2_k =
    psi(k/2) + log 2.
    """
    center = sum(float(digamma(k / 2.0)) + math.log(2.0) for k in range(1, n_center + 1))
    return center + m_pairs * (float(digamma(0.5)) + math.log(2.0))


def counterexample_log_det_law(n_center: int, m_pairs: int, num: int, seed: int) -> np.ndarray:
    """``num`` independent draws from the law of log det W on the counterexample.

    As in ``counterexample_log_det_mean``: log det W is the sum of log
    chi^2_k for k = 1..n and one log chi^2_1 per pair, all independent,
    drawn here by numpy's ``chisquare`` from its own ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    draws = np.zeros(num)
    for k in [*range(1, n_center + 1), *[1] * m_pairs]:
        draws += np.log(rng.chisquare(k, num))
    return draws
