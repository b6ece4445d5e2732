"""Spans around hafkit's public functions, recorded from outside the package.

``Tracer.install`` rebinds each public function of the layer modules to a
wrapper that records a span (name, start, end, parent span, thread).  It
rebinds the function under every name a hafkit module holds it by, since
callers such as ``estimator`` import ``gaussian_blocks`` and
``pfaffian_log_stack`` by name.  Two private names are wrapped as well:
``estimator._logdet_chunk``, so that assembly done in pool threads is
attributed to the estimator, and ``estimator.ThreadPoolExecutor``, so that
spans in pool threads know the span that submitted them.

A span's self time is its length minus the union of its children's
intervals, so children that overlap on two threads are not subtracted
twice.  ``layer_metrics`` turns one round's spans into the per-layer
metrics listed in the benchmark's README.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

LAYER_MODULES = ("rng", "linalg", "estimator", "exact", "scaling", "graphs",
                 "counterexample", "experiments", "io", "jsonout")
EXTRA = {"estimator": ("_logdet_chunk",)}

_current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds, recorded for sample_log_dets only
    peak_bytes: int = 0  # traced peak allocation, recorded for hafnian_exact only
    items: int = 0  # work done: normals, matrices, iterations or subsets


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context, so pool spans get a parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _items(name: str, result) -> int:
    if name in ("rng.gaussian_block", "rng.gaussian_blocks"):
        return int(result.size)
    if name == "linalg.pfaffian_log_stack":
        return int(result[0].size)
    if name == "scaling.scale_symmetric":
        return int(result.iterations)
    if name in ("graphs.check_strong_expansion", "graphs.check_weak_expansion"):
        return int(result.sets_checked)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._restore: list = []

    def _wrap(self, fn, name: str):
        cpu = name == "estimator.sample_log_dets"
        alloc = name == "exact.hafnian_exact"
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            span = Span(next(ids), name, parent.id if parent else None, threading.get_ident(), 0.0)
            token = _current.set(span)
            if alloc:
                tracemalloc.start()
            c0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                if alloc:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                _current.reset(token)
                spans.append(span)
            span.items = _items(name, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions wherever hafkit holds them; ``uninstall`` undoes it."""
        import hafkit

        targets = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"hafkit.{short}")
            for attr in (*mod.__all__, *EXTRA.get(short, ())):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(fn, f"{short}.{attr}")
        mods = [hafkit] + [importlib.import_module(f"hafkit.{m}") for m in (*LAYER_MODULES, "cli")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is ThreadPoolExecutor:
                    self._set(mod, attr, _ContextPool)
                elif inspect.isfunction(val) and val in targets:
                    self._set(mod, attr, targets[val])

    def _set(self, mod, attr, new) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._restore):
            setattr(mod, attr, old)
        self._restore.clear()

    def take(self) -> list[Span]:
        out = list(self.spans)
        self.spans.clear()
        return out


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.id, ())]
        out[sp.id] = (sp.end - sp.start) - _union((s, e) for s, e in kids if e > s)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round (seconds are summed over threads)."""
    own = self_times(spans)

    def self_s(*names) -> float:
        return sum(own[sp.id] for sp in spans if sp.name in names)

    def module_s(prefix) -> float:
        return sum(own[sp.id] for sp in spans if sp.name.startswith(prefix))

    def total(name, field) -> float:
        return sum(getattr(sp, field) for sp in spans if sp.name == name)

    def calls(name) -> int:
        return sum(1 for sp in spans if sp.name == name)

    sample_wall = sum(sp.end - sp.start for sp in spans if sp.name == "estimator.sample_log_dets")
    rng_s = module_s("rng.")
    pf_s = self_s("linalg.pfaffian_log_stack", "linalg.pfaffian_log", "linalg.log_det_skew",
                  "linalg.log_det_skew_stack")
    spectrum_s = self_s("linalg.spectrum")
    expansion_s = self_s("graphs.check_strong_expansion", "graphs.check_weak_expansion")
    sets = total("graphs.check_strong_expansion", "items") + total("graphs.check_weak_expansion", "items")
    return {
        "rng.busy_s": rng_s,
        "rng.normals_per_s": _ratio(total("rng.gaussian_blocks", "items") + total("rng.gaussian_block", "items"), rng_s),
        "linalg.pfaffian_s": pf_s,
        "linalg.matrices_per_s": _ratio(total("linalg.pfaffian_log_stack", "items"), pf_s),
        "estimator.sample_s": sample_wall,
        "estimator.assembly_s": self_s("estimator.sample_log_dets", "estimator._logdet_chunk", "estimator.sample_w"),
        "estimator.cpu_per_wall": _ratio(total("estimator.sample_log_dets", "cpu"), sample_wall),
        "estimator.aggregate_s": self_s("estimator.estimate", "counterexample.run_bias_experiment"),
        "exact.hafnian_s": self_s("exact.hafnian_exact", "exact.count_perfect_matchings"),
        "exact.peak_alloc_mb": max((sp.peak_bytes for sp in spans if sp.name == "exact.hafnian_exact"), default=0) / 2**20,
        "exact.matching_s": self_s("exact.matching_exists"),
        "exact.matching_calls": calls("exact.matching_exists"),
        "scaling.busy_s": module_s("scaling."),
        "scaling.iterations": total("scaling.scale_symmetric", "items"),
        "linalg.spectrum_s": spectrum_s,
        "linalg.spectrum_calls": calls("linalg.spectrum"),
        "graphs.expansion_s": expansion_s,
        "graphs.sets_checked": sets,
        "graphs.sets_per_s": _ratio(sets, expansion_s),
        "counterexample.structural_s": self_s("counterexample.build_counterexample",
                                              "counterexample.check_weak_expansion_structural"),
        "cli.report_s": module_s("jsonout."),
        "io.read_s": self_s("io.read_symmetric_matrix", "io.read_edge_list", "io.read_skew_matrix"),
    }


UNITS = {
    "rng.busy_s": "s", "rng.normals_per_s": "1/s", "linalg.pfaffian_s": "s",
    "linalg.matrices_per_s": "1/s", "estimator.sample_s": "s", "estimator.assembly_s": "s",
    "estimator.cpu_per_wall": "ratio", "estimator.aggregate_s": "s", "exact.hafnian_s": "s",
    "exact.peak_alloc_mb": "MB", "exact.matching_s": "s", "exact.matching_calls": "count",
    "scaling.busy_s": "s", "scaling.iterations": "count", "linalg.spectrum_s": "s",
    "linalg.spectrum_calls": "count", "graphs.expansion_s": "s", "graphs.sets_checked": "count",
    "graphs.sets_per_s": "1/s", "counterexample.structural_s": "s", "cli.report_s": "s",
    "io.read_s": "s", "trace.overhead_s": "s",
}
