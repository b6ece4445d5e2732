"""The benchmark's workloads: their inputs, the CLI calls of one round, the checks.

A round is a fixed list of ``hafkit`` CLI calls, made in process through
click's test runner.  Every round of a run makes the same calls on the same
inputs, so each report must repeat byte for byte apart from ``timing_ms``,
and a call that shows a known fault shows it in every round.  Inputs come
from the ``--seed`` of the run, except those of the calls that show a known
fault: their inputs are fixed, so the share of failed calls never depends
on the seed.

Checks run after the timed part, on the first round's reports, against
``oracles`` (computations made apart from hafkit) or against properties the
method must have.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

STAR6_EDGES = [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]  # no perfect matching
ZERO_DET = "zero-det"  # a support with no perfect matching still yields nonzero determinants
NO_SCALING = "no-scaling"  # scaling that exists is not found: converged=false


@dataclass(frozen=True)
class Op:
    name: str
    args: list
    fault: str | None = None  # known program fault this call shows; counted as failed


@dataclass(frozen=True)
class Outcome:
    exit_code: int
    stdout: str
    error: str | None  # an exception other than the CLI's own exit

    def report(self) -> dict:
        return json.loads(self.stdout)

    def comparable(self):
        return self.exit_code, self.error, re.sub(r'"timing_ms": \d+', "", self.stdout)


class Cli:
    """Calls ``hafkit`` subcommands in this process, as the console script would."""

    def __init__(self):
        from click.testing import CliRunner

        from hafkit.cli import main

        self._runner = CliRunner()
        self._main = main

    def __call__(self, args) -> Outcome:
        res = self._runner.invoke(self._main, [str(a) for a in args])
        error = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            error = f"{type(res.exception).__name__}: {res.exception}"
        return Outcome(res.exit_code, res.stdout, error)


# ---------------------------------------------------------------- inputs


def write_matrix(path: Path, a: np.ndarray) -> None:
    rows = "\n".join(" ".join(repr(float(x)) for x in row) for row in a)
    path.write_text(f"{a.shape[0]}\n{rows}\n", encoding="utf-8")


def read_matrix(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").split("\n")
    n = int(lines[0])
    return np.array([[float(x) for x in ln.split()] for ln in lines[1 : n + 1]])


def write_edges(path: Path, n: int, edges) -> None:
    edges = sorted(edges)
    body = "".join(f"{u} {v}\n" for u, v in edges)
    path.write_text(f"{n} {len(edges)}\n{body}", encoding="utf-8")


def read_edges(path: Path) -> tuple[int, list]:
    lines = path.read_text(encoding="utf-8").split("\n")
    n, m = (int(x) for x in lines[0].split())
    return n, [tuple(int(x) for x in ln.split()) for ln in lines[1 : m + 1]]


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def complete_edges(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def counterexample_edges(n_center: int, m_pairs: int) -> list:
    """Center clique, n plain peripherals and m peripheral pairs, as the paper builds it."""
    total = 2 * (n_center + m_pairs)
    edges = complete_edges(n_center)
    edges += [(i, p) for p in range(n_center, total) for i in range(n_center)]
    edges += [(2 * n_center + 2 * t, 2 * n_center + 2 * t + 1) for t in range(m_pairs)]
    return edges


def canonical_pairs(n_center: int, delta: float = 0.12) -> int:
    return int(delta * n_center / 2.0)


def random_regular_edges(rng, n: int, d: int, batch: int = 2048) -> list:
    """Uniform simple d-regular graph: pairing model, rejecting loops and repeats.

    At d=5 only about 1 pairing in 400 is simple, so pairings are drawn and
    tested in batches; one at a time, set-up time would vary with the seed.
    """
    stubs = np.tile(np.repeat(np.arange(n), d), (batch, 1))
    while True:
        pairs = rng.permuted(stubs, axis=1).reshape(batch, -1, 2)
        u, v = pairs.min(axis=2), pairs.max(axis=2)
        codes = np.sort(u * n + v, axis=1)
        simple = np.all(u != v, axis=1) & np.all(np.diff(codes, axis=1) != 0, axis=1)
        if simple.any():
            k = int(np.argmax(simple))
            return sorted(zip(u[k].tolist(), v[k].tolist()))


def random_dense_edges(rng, n: int, p: float, min_deg: int) -> list:
    """G(n, p), redrawn until every degree is at least min_deg."""
    iu, ju = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu.size) < p
        deg = np.bincount(iu[keep], minlength=n) + np.bincount(ju[keep], minlength=n)
        if deg.min() >= min_deg:
            return list(zip(iu[keep].tolist(), ju[keep].tolist()))


def barrier_edges(rng, n: int) -> list:
    """Random graph with a Tutte barrier: removing s vertices leaves s + 2 odd parts.

    So it has no perfect matching.  Parts are random trees plus random
    chords, each tied to a random nonempty subset of the barrier.
    """
    s = int(rng.integers(1, 3))
    sizes = [1] * (s + 2)
    for _ in range((n - s - (s + 2)) // 2):
        sizes[int(rng.integers(len(sizes)))] += 2
    edges = set()
    barrier = list(range(s))
    nxt = s
    for size in sizes:
        part = list(range(nxt, nxt + size))
        nxt += size
        for k in range(1, size):
            edges.add((part[int(rng.integers(k))], part[k]))
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.3:
                    edges.add((part[i], part[j]))
        ties = [b for b in barrier if rng.random() < 0.6] or [barrier[0]]
        for b in ties:
            edges.add((b, part[int(rng.integers(size))]))
    if s == 2 and rng.random() < 0.5:
        edges.add((0, 1))
    return sorted(edges)


def _problem(problems: list, cond: bool, msg: str) -> None:
    if not cond:
        problems.append(msg)


def _ran(problems: list, name: str, out: Outcome, code: int = 0) -> bool:
    ok = out.error is None and out.exit_code == code
    _problem(problems, ok, f"{name}: exit {out.exit_code} (want {code}), {out.error}")
    return ok


def _quantiles_sorted(problems: list, name: str, rep: dict) -> None:
    vals = [float(v) for _, v in sorted(rep["logdet_quantiles"].items(), key=lambda kv: float(kv[0]))]
    _problem(problems, vals == sorted(vals), f"{name}: quantiles not nondecreasing {vals}")


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs of one seed, written under ``workdir``, and the calls and checks on them."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.rng = lambda tag: np.random.default_rng([seed, tag])

    def build(self) -> None:
        """Write every input file of the workload."""

    warmup: list = []
    ops: list = []

    def check(self, outs: dict, cli: Cli) -> tuple[set, list]:
        """(names of calls that showed their known fault, problems found)."""
        raise NotImplementedError


class EstimateK8(Workload):
    name = "estimate_k8"
    SAMPLES = 500_000
    NOPM_SAMPLES = 2000
    NOPM_SEED = 3
    NOPM_SIZES = (6, 8, 10, 12)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        brng = np.random.default_rng(0)  # fixed: these supports show a fault on every seed
        self.nopm = {"nopm_star6": (6, STAR6_EDGES)}
        for n in self.NOPM_SIZES:
            self.nopm[f"nopm_{n}"] = (n, barrier_edges(brng, n))
        k8 = str(self.dir / "k8.mat")
        self.warmup = ["estimate", "--matrix", k8, "--samples", 4096, "--seed", seed, "--exact"]
        self.ops = [
            Op("k8", ["estimate", "--matrix", k8, "--samples", self.SAMPLES, "--seed", seed,
                      "--exact", "--threads", 1]),
        ] + [
            Op(name, ["estimate", "--matrix", str(self.dir / f"{name}.mat"), "--samples",
                      self.NOPM_SAMPLES, "--seed", self.NOPM_SEED, "--threads", 1], ZERO_DET)
            for name in self.nopm
        ]

    def build(self):
        write_matrix(self.dir / "k8.mat", adjacency(8, complete_edges(8)))
        for name, (n, edges) in self.nopm.items():
            write_matrix(self.dir / f"{name}.mat", adjacency(n, edges))

    def check(self, outs, cli):
        problems: list = []
        faults: set = set()
        out = outs["k8"]
        if _ran(problems, "k8", out):
            rep = out.report()
            haf = oracles.double_factorial(7)
            _problem(problems, oracles.hafnian_memo(8, complete_edges(8)) == haf, "memo haf(K_8) != 7!!")
            _problem(problems, rep["num_samples"] == self.SAMPLES, "k8: num_samples")
            _problem(problems, rep["num_zero_det"] == 0, f"k8: {rep['num_zero_det']} zero dets")
            _problem(problems, math.isclose(float(rep["exact_log_haf"]), math.log(haf), rel_tol=1e-12),
                     f"k8: exact_log_haf {rep['exact_log_haf']} != log 105")
            sd = oracles.det_sd_complete(8, 200_000, seed=12345)
            se = sd / math.sqrt(self.SAMPLES)
            mean = math.exp(float(rep["mean_det_log"]))
            _problem(problems, abs(mean - haf) <= 4.0 * se,
                     f"k8: mean det {mean:.4f} is {abs(mean - haf) / se:.1f} SE from 105")
            _quantiles_sorted(problems, "k8", rep)
        for name, (n, edges) in self.nopm.items():
            _problem(problems, oracles.hafnian_memo(n, edges) == 0
                     and oracles.hafnian_by_pairings(n, edges) == 0, f"{name}: support has a perfect matching")
            out = outs[name]
            if _ran(problems, name, out):
                rep = out.report()
                if not (rep["num_zero_det"] == self.NOPM_SAMPLES and rep["mean_det_log"] == "-inf"):
                    faults.add(name)
        return faults, problems


class CounterexampleM50(Workload):
    name = "counterexample_m50"
    N_CENTERS = (10, 15, 19, 24)
    SAMPLES = 16384  # four 4096-sample chunks, so two threads share the work evenly
    THREADS = 2
    SMALL = 10  # instance of the thread-count and exact-count checks

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.warmup = self._args(self.SMALL, 8192, self.THREADS)
        self.ops = [Op(f"m{2 * (nc + canonical_pairs(nc))}", self._args(nc, self.SAMPLES, self.THREADS))
                    for nc in self.N_CENTERS]

    def _args(self, nc, samples, threads, *extra):
        return ["counterexample", "--delta", 0.12, "--n-center", nc, "--samples", samples,
                "--seed", self.seed, "--threads", threads, *extra]

    def check(self, outs, cli):
        problems: list = []
        medians = []
        for nc, op in zip(self.N_CENTERS, self.ops):
            out = outs[op.name]
            if not _ran(problems, op.name, out):
                return set(), problems
            rep = out.report()
            m = canonical_pairs(nc)
            total = 2 * (nc + m)
            _problem(problems, (rep["n_center"], rep["m_pairs"], rep["total_vertices"]) == (nc, m, total),
                     f"{op.name}: sizes {rep['n_center']}, {rep['m_pairs']}, {rep['total_vertices']}")
            _problem(problems, math.isclose(float(rep["log_haf"]), math.lgamma(nc + 1), rel_tol=1e-12),
                     f"{op.name}: log_haf != log {nc}!")
            _quantiles_sorted(problems, op.name, rep)
            medians.append(float(rep["median_signed_error"]))
        below = float(outs["m50"].report()["fraction_below"]["0.01"])
        # the expected share is about 0.904, so allow 4 binomial standard errors at 0.9
        floor = 0.9 - 4.0 * math.sqrt(0.9 * 0.1 / self.SAMPLES)
        _problem(problems, below >= floor, f"m50: fraction_below[0.01] = {below} < {floor:.4f}")
        _problem(problems, all(x > y for x, y in zip(medians, medians[1:])),
                 f"median signed errors not strictly decreasing in M: {medians}")
        # same report on one and two threads, and the emitted graph has n! matchings
        graph = self.dir / "cx_small.edges"
        pair = [cli(self._args(self.SMALL, 8192, t, "--emit-graph", graph)) for t in (1, 2)]
        if all(_ran(problems, f"small threads={t}", o) for t, o in zip((1, 2), pair)):
            _problem(problems, pair[0].comparable() == pair[1].comparable(),
                     "counterexample report differs between --threads 1 and 2")
            n, edges = read_edges(graph)
            m = canonical_pairs(self.SMALL)
            _problem(problems, sorted(edges) == sorted(counterexample_edges(self.SMALL, m)),
                     "emitted counterexample graph differs from the construction")
            count = oracles.hafnian_memo(n, edges)
            _problem(problems, count == math.factorial(self.SMALL), f"memo count {count} != {self.SMALL}!")
            _problem(problems, math.isclose(float(pair[0].report()["log_haf"]), math.log(count), rel_tol=1e-12),
                     "small log_haf != log of the memo count")
        return set(), problems


class OraclesConditions(Workload):
    name = "oracles_conditions"
    N_DENSE = 200
    DENSE_GRAPHS = 3
    DENSITY_TRIALS = 100
    CHECK_GRAPHS = 4
    KAPPA = 0.25
    LEVEL = 8
    CX_CENTER = 24

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        d = self.dir
        self.rr24 = random_regular_edges(self.rng(1), 24, 5)
        rng = self.rng(2)
        self.dense = [random_dense_edges(rng, self.N_DENSE, 0.1, 3) for _ in range(self.DENSE_GRAPHS)]
        rng = self.rng(3)
        self.rr16 = [random_regular_edges(rng, 16, 5) for _ in range(self.CHECK_GRAPHS)]
        self.warmup = ["exact", "--graph", d / "k12.edges"]
        self.ops = [
            Op("exact_k24", ["exact", "--graph", d / "k24.edges"]),
            Op("exact_rr24", ["exact", "--graph", d / "rr24.edges"]),
            *(Op(f"scale_dense{i}", ["scale", "--matrix", d / f"dense{i}.mat", "--residual", 1e-10,
                                     "--max-iter", 100_000, "--emit-b", d / f"dense{i}_b.mat"])
              for i in range(self.DENSE_GRAPHS)),
            Op("scale_cx24", ["scale", "--matrix", d / "cx24.mat", "--residual", 1e-6,
                              "--max-iter", 100_000, "--emit-b", d / "cx24_b.mat"], NO_SCALING),
            Op("density_k200", ["experiment", "density", "--config", d / "density.json"]),
            *(Op(f"check_rr16_{i}", ["check", "--graph", d / f"rr16_{i}.edges", "--kappa", self.KAPPA,
                                     "--level", self.LEVEL, "--mode", "exhaustive"])
              for i in range(self.CHECK_GRAPHS)),
        ]

    def build(self):
        d = self.dir
        write_edges(d / "k12.edges", 12, complete_edges(12))
        write_edges(d / "k24.edges", 24, complete_edges(24))
        write_edges(d / "rr24.edges", 24, self.rr24)
        for i, edges in enumerate(self.dense):
            write_matrix(d / f"dense{i}.mat", adjacency(self.N_DENSE, edges))
        nc = self.CX_CENTER
        write_matrix(d / "cx24.mat", adjacency(2 * (nc + canonical_pairs(nc)),
                                               counterexample_edges(nc, canonical_pairs(nc))))
        config = {"matrix": {"kind": "complete", "n": self.N_DENSE, "scaled": True},
                  "trials": self.DENSITY_TRIALS, "seed": self.seed}
        (d / "density.json").write_text(json.dumps(config), encoding="utf-8")
        for i, edges in enumerate(self.rr16):
            write_edges(d / f"rr16_{i}.edges", 16, edges)

    def _check_exact(self, problems, name, out, count):
        if _ran(problems, name, out):
            value = out.report()["value"]
            _problem(problems, value == float(count) and int(value) == count,
                     f"{name}: value {value} != {count}")

    def _check_scaling(self, problems, name, out, a, target, b_path):
        rep = out.report()
        if not rep["converged"]:
            return False
        _problem(problems, out.exit_code == 0 and float(rep["residual"]) <= target,
                 f"{name}: converged with exit {out.exit_code}, residual {rep['residual']}")
        b = read_matrix(b_path)
        n = a.shape[0]
        _problem(problems, np.array_equal(b, b.T), f"{name}: B is not exactly symmetric")
        _problem(problems, np.array_equal(b > 0, a > 0), f"{name}: B and A differ in support")
        dev = max(abs(math.fsum(row) - 1.0) for row in b)
        _problem(problems, dev <= target + n * 2.0**-52, f"{name}: row sum off by {dev:.3g} > {target}")
        dvec = np.array([float(x) for x in rep["d"]])
        _problem(problems, np.allclose(b, np.outer(dvec, dvec) * a, rtol=1e-13, atol=0.0),
                 f"{name}: B != D A D")
        return True

    def _check_density(self, problems, out):
        if not _ran(problems, "density_k200", out):
            return
        rep = out.report()["report"]
        n = self.N_DENSE
        _problem(problems, (rep["n"], rep["trials"]) == (n, self.DENSITY_TRIALS), "density: n or trials")
        _problem(problems, math.isclose(float(rep["max_entry"]), 1.0 / (n - 1), rel_tol=1e-12),
                 f"density: max_entry {rep['max_entry']} != 1/{n - 1}")
        etas = [float(r["eta"]) for r in rep["rows"]]
        b = adjacency(n, complete_edges(n)) / (n - 1)  # K_n scales to A/(n-1) exactly
        counts = np.array([oracles.eig_counts(oracles.skew_sample(b, self.seed, t), etas)
                           for t in range(self.DENSITY_TRIALS)])
        _problem(problems, all(list(c) == sorted(c) for c in counts), "density: counts not monotone in eta")
        for k, row in enumerate(rep["rows"]):
            want = (float(np.mean(counts[:, k])), int(np.max(counts[:, k])))
            got = (float(row["mean_count"]), int(row["max_count"]))
            _problem(problems, got == want, f"density: eta={etas[k]:.4g} counts {got} != numpy {want}")

    def _check_expansion(self, problems, name, out, edges):
        if not _ran(problems, name, out):
            return
        rep = out.report()
        holds, _, _ = oracles.expansion_scan(16, edges, self.KAPPA, self.LEVEL)
        _problem(problems, rep["holds"] == holds, f"{name}: holds={rep['holds']}, subset scan says {holds}")
        if rep["holds"]:
            want = oracles.subsets_up_to(16, self.LEVEL)
            _problem(problems, rep["sets_checked"] == want, f"{name}: checked {rep['sets_checked']} of {want}")
        else:
            js = rep["witness"]
            lhs = oracles.expansion_lhs(oracles.adjacency_sets(16, edges), js)
            _problem(problems, 1 <= len(js) <= self.LEVEL and lhs < self.KAPPA * len(js),
                     f"{name}: witness {js} does not violate the inequality")

    def check(self, outs, cli):
        problems: list = []
        faults: set = set()
        self._check_exact(problems, "exact_k24", outs["exact_k24"], oracles.double_factorial(23))
        self._check_exact(problems, "exact_rr24", outs["exact_rr24"], oracles.hafnian_memo(24, self.rr24))
        for i, edges in enumerate(self.dense):
            name = f"scale_dense{i}"
            out = outs[name]
            if _ran(problems, name, out):
                a = adjacency(self.N_DENSE, edges)
                ok = self._check_scaling(problems, name, out, a, 1e-10, self.dir / f"dense{i}_b.mat")
                _problem(problems, ok, f"{name}: did not converge")
        out = outs["scale_cx24"]
        nc = self.CX_CENTER
        a = adjacency(2 * (nc + canonical_pairs(nc)), counterexample_edges(nc, canonical_pairs(nc)))
        if out.error is None and out.exit_code in (0, 3):
            if not self._check_scaling(problems, "scale_cx24", out, a, 1e-6, self.dir / "cx24_b.mat"):
                faults.add("scale_cx24")
        else:
            _ran(problems, "scale_cx24", out)
        self._check_density(problems, outs["density_k200"])
        for i, edges in enumerate(self.rr16):
            self._check_expansion(problems, f"check_rr16_{i}", outs[f"check_rr16_{i}"], edges)
        return faults, problems


WORKLOADS = {w.name: w for w in (EstimateK8, CounterexampleM50, OraclesConditions)}
