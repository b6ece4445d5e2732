"""Command-line entry point wiring all modules together.

Every subcommand prints a single JSON report to stdout whose first key is a
run manifest (tool version, subcommand, resolved configuration, seed,
timing).  The configuration is every option as parsed, in declaration
order, except --threads, with defaults resolved: ``scale``'s residual,
``check``'s level, ``counterexample``'s pair count, ``estimate``'s
quantiles.  ``exact`` lists only its given source, ``experiment`` its kind
and resolved JSON config.  Every report but ``exact``'s prints the fields
of its result type, and the schema's required keys of all but ``exact``
and ``experiment`` are that type's report fields without a default; only
``estimate``'s --exact trio and ``scale``'s ``audit`` are optional.
``experiment --threads`` only affects ``concentration``: ``density`` and
``sv-tail`` run their trials serially.  Diagnostics go to stderr.  Exit
codes: 0 success, 2 bad input, 3 numerical non-convergence, 4 a
hypothesis/expansion check came back false under --strict.  Reports are
byte-identical across reruns and thread counts, except for the timing_ms
field.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

import click

from . import __version__
from . import counterexample as cx
from . import estimator, experiments, graphs, io, jsonout, scaling
from .errors import InputError, NumericalError
from .exact import count_perfect_matchings, hafnian_exact

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


def _required(result_type) -> list:
    """The report fields of dataclass ``result_type`` without a default, which its report always prints."""
    return [
        f.name
        for f in dataclasses.fields(result_type)
        if f.repr and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hafkit report",
    "type": "object",
    "required": ["manifest"],
    "properties": {
        "manifest": {
            "type": "object",
            "required": ["tool_version", "subcommand", "full_config", "seed", "timing_ms"],
            "properties": {
                "tool_version": {"type": "string"},
                "subcommand": {"type": "string"},
                "full_config": {"type": "object"},
                "seed": {"type": ["integer", "null"]},
                "timing_ms": {"type": "integer"},
            },
        },
    },
    "$defs": {
        "number_or_string": {
            "description": "floats are 17-significant-digit decimals; "
            "non-finite values are the strings 'inf', '-inf', 'nan'",
            "type": ["number", "string"],
        },
        "exact": {"required": ["n", "log_haf", "value"]},
        "estimate": {"required": _required(estimator.EstimatorSummary)},
        "scale": {"required": _required(scaling.ScalingResult)},
        "check": {"required": _required(graphs.ExpansionReport)},
        "hypotheses": {"required": _required(graphs.HypothesisReport)},
        "counterexample": {"required": _required(cx.BiasReport)},
        "experiment": {"required": ["kind", "report"]},
    },
}

_STARTED = "hafkit.started"


def _manifest(config: dict | None, resolved: dict) -> dict:
    """The running subcommand's manifest.

    ``full_config`` is ``config`` if given, else every option in declaration
    order (``ctx.params`` follows the command line's), except --threads,
    with ``resolved`` values in place of parsed ones.
    """
    ctx = click.get_current_context()
    if config is None:
        config = {
            p.name: resolved.get(p.name, ctx.params[p.name])
            for p in ctx.command.params
            if p.name != "threads"
        }
    return {
        "tool_version": __version__,
        "subcommand": ctx.info_name,
        "full_config": config,
        "seed": config.get("seed"),
        "timing_ms": int((time.monotonic() - ctx.meta[_STARTED]) * 1000),
    }


def _emit(body: dict, code: int = EXIT_OK, config: dict | None = None, **resolved):
    """Print the manifest followed by ``body``, and exit with ``code``."""
    click.echo(jsonout.dumps({"manifest": _manifest(config, resolved), **body}))
    sys.exit(code)


def _subcommand(fn):
    """Start the run's clock, and map input and numerical errors to their exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        click.get_current_context().meta[_STARTED] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


def _print_schema(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(jsonout.dumps(SCHEMA))
    ctx.exit(EXIT_OK)


@click.group()
@click.version_option(version=__version__, prog_name="hafkit")
@click.option(
    "--schema",
    is_flag=True,
    callback=_print_schema,
    expose_value=False,
    is_eager=True,
    help="Print the JSON schema all reports follow and exit.",
)
def main():
    """Hafnian estimation, exact matching counts, scaling and expansion checks."""


_threads_option = click.option(
    "--threads",
    type=int,
    default=1,
    show_default=True,
    envvar="HAFKIT_THREADS",
    help="Worker threads for sampling; results do not depend on this.",
)


@main.command("exact")
@click.option("--graph", type=click.Path(), default=None, help="Edge-list file.")
@click.option("--matrix", type=click.Path(), default=None, help="Matrix file.")
@_subcommand
def exact_cmd(graph, matrix):
    """Exact hafnian / perfect matching count (small n)."""
    if (graph is None) == (matrix is None):
        raise InputError("provide exactly one of --graph or --matrix")
    if graph is not None:
        value = count_perfect_matchings(io.read_edge_list(graph))
        config = {"graph": graph}
    else:
        value = hafnian_exact(io.read_symmetric_matrix(matrix))
        config = {"matrix": matrix}
    _emit({"n": value.n, "log_haf": value.log_value, "value": value.value_if_small}, config=config)


@main.command("estimate")
@click.option("--matrix", type=click.Path(), required=True)
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--quantiles", default="0.05,0.25,0.5,0.75,0.95", show_default=True)
@click.option("--exact", is_flag=True, help="Also compute the exact hafnian.")
@_threads_option
@_subcommand
def estimate_cmd(matrix, samples, seed, quantiles, exact, threads):
    """Monte Carlo hafnian estimate via Gaussian determinants."""
    try:
        qs = tuple(float(q) for q in quantiles.split(","))
    except ValueError as exc:
        raise InputError(f"bad quantile list {quantiles!r}: {exc}") from exc
    a = io.read_symmetric_matrix(matrix)
    estimator.check_arguments(samples, seed, threads, qs)  # before the exact DP, which can take seconds
    exact_log = hafnian_exact(a).log_value if exact else None
    summary = estimator.estimate(
        a, samples, seed, quantiles=qs, exact_log_haf=exact_log, threads=threads
    )
    report = jsonout.fields(summary)
    if not exact:
        for key in ("exact_log_haf", "error_median", "error_max"):
            del report[key]
    _emit(report, quantiles=list(qs))


@main.command("scale")
@click.option("--matrix", type=click.Path(), required=True)
@click.option("--residual", type=float, default=None, help="Target residual [default: 1/n].")
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.option("--theta", type=float, default=None, help="Audit bound max B_ij <= n^-theta.")
@click.option("--nu", type=float, default=None, help="Audit bound min B_ij >= n^-2nu.")
@click.option("--emit-b", type=click.Path(), default=None, help="Write B in matrix format.")
@_subcommand
def scale_cmd(matrix, residual, max_iter, theta, nu, emit_b):
    """Symmetric doubly stochastic scaling B = D A D."""
    scaling.check_audit_bounds(theta, nu)  # before scaling, which can take seconds
    a = io.read_symmetric_matrix(matrix)
    result = scaling.scale_symmetric(a, residual_target=residual, max_iterations=max_iter)
    if emit_b is not None:
        io.write_matrix(emit_b, result.b)
    report = jsonout.fields(result)
    if result.converged and (theta is not None or nu is not None):
        audit = scaling.audit_entry_bounds(result, theta, nu)
        report["audit"] = {"max_ok": audit.max_ok, "min_ok": audit.min_ok, "theta": theta, "nu": nu}
    _emit(
        report,
        EXIT_OK if result.converged else EXIT_NUMERICAL,
        residual=residual if residual is not None else 1.0 / a.n,
    )


@main.command("check")
@click.option("--graph", type=click.Path(), required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--level", type=int, default=None, help="Max |J| [default: n/2 for --weak].")
@click.option("--weak", is_flag=True, help="Check the weakened inequality instead.")
@click.option("--delta", type=float, default=None, help="Weakening parameter (with --weak).")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="exhaustive")
@click.option("--budget", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--strict", is_flag=True, help="Exit 4 when the condition fails.")
@_subcommand
def check_cmd(graph, kappa, level, weak, delta, mode, budget, seed, strict):
    """Strong (or weak) expansion check of an edge-list graph."""
    if weak and delta is None:
        raise InputError("--weak requires --delta")
    if delta is not None and not weak:
        raise InputError("--delta requires --weak")
    g = io.read_edge_list(graph)
    if weak:
        rep = graphs.check_weak_expansion(
            g, kappa, delta, mode=mode, budget=budget, seed=seed, level=level
        )
    else:
        if level is None:
            raise InputError("--level is required for the strong check")
        rep = graphs.check_strong_expansion(g, kappa, level, mode=mode, budget=budget, seed=seed)
    _emit(jsonout.fields(rep), EXIT_CHECK_FAILED if (strict and not rep.holds) else EXIT_OK, level=rep.level)


@main.command("hypotheses")
@click.option("--matrix", type=click.Path(), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--theta", type=float, required=True)
@click.option("--scale", is_flag=True, help="Scale the matrix first.")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="sampled")
@click.option("--budget", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--strict", is_flag=True, help="Exit 4 when any hypothesis fails.")
@_subcommand
def hypotheses_cmd(matrix, alpha, kappa, beta, theta, scale, mode, budget, seed, strict):
    """Evaluate the concentration theorem's three hypotheses on a matrix."""
    a = io.read_symmetric_matrix(matrix)
    rep = graphs.check_theorem_hypotheses(
        a, alpha, kappa, beta, theta, scale=scale, mode=mode, budget=budget, seed=seed
    )
    _emit(jsonout.fields(rep), EXIT_CHECK_FAILED if (strict and not rep.all_ok) else EXIT_OK)


@main.command("counterexample")
@click.option("--delta", type=float, default=0.12, show_default=True)
@click.option("--n-center", type=int, required=True)
@click.option("--m-pairs", type=int, default=None, help="Override floor(delta*n/2).")
@click.option("--samples", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--emit-graph", type=click.Path(), default=None)
@_threads_option
@_subcommand
def counterexample_cmd(delta, n_center, m_pairs, samples, seed, emit_graph, threads):
    """Build the biased-estimator graph and run the bias experiment."""
    spec = cx.CounterexampleSpec(delta=delta, n_center=n_center, m_pairs=m_pairs)
    if emit_graph is not None:
        io.write_edge_list(emit_graph, cx.build_counterexample(spec))
    rep = cx.run_bias_experiment(spec, samples, seed, threads=threads)
    _emit(jsonout.fields(rep), m_pairs=spec.m_pairs)


@main.command("experiment")
@click.argument("kind", type=click.Choice(["sv-tail", "density", "concentration"]))
@click.option("--config", "config_path", type=click.Path(), required=True)
@_threads_option
@_subcommand
def experiment_cmd(kind, config_path, threads):
    """Run a harness experiment from a JSON config file."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{config_path}: invalid JSON: {exc}") from exc
    config = experiments.resolve(kind, config)
    report = experiments.run(kind, config, threads)
    _emit({"kind": kind, "report": report}, config={"kind": kind, **config})


if __name__ == "__main__":
    main()
