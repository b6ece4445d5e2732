"""Command-line entry point wiring all modules together.

Every subcommand prints a single JSON report to stdout whose first key is a
run manifest (tool version, subcommand, resolved configuration, seed,
timing).  Diagnostics go to stderr.  Exit codes: 0 success, 2 bad input,
3 numerical non-convergence, 4 a hypothesis/expansion check came back
false under --strict.  Reports are byte-identical across reruns and thread
counts, except for the timing_ms field.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import click

from . import __version__
from . import counterexample as cx
from . import estimator, exact, experiments, graphs, io, jsonout, scaling
from .errors import InputError, NumericalError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

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
        "estimate": {
            "required": [
                "n",
                "num_samples",
                "seed",
                "mean_det_log",
                "logdet_mean",
                "logdet_std",
                "logdet_quantiles",
                "num_zero_det",
            ]
        },
        "scale": {
            "required": [
                "converged",
                "iterations",
                "residual",
                "max_entry",
                "min_positive_entry",
                "observed_exponents",
                "d",
            ]
        },
        "check": {
            "required": ["kappa", "level", "holds", "witness", "checked_mode", "sets_checked"]
        },
        "hypotheses": {
            "required": ["n", "conditions", "all_ok"],
        },
        "counterexample": {
            "required": [
                "total_vertices",
                "n_center",
                "m_pairs",
                "delta",
                "log_haf",
                "logdet_quantiles",
                "median_signed_error",
                "fraction_below",
            ]
        },
        "experiment": {"required": ["kind", "report"]},
    },
}


def _manifest(subcommand: str, config: dict, seed, started: float) -> dict:
    return {
        "tool_version": __version__,
        "subcommand": subcommand,
        "full_config": config,
        "seed": seed,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }


def _emit(report: dict, code: int = EXIT_OK):
    click.echo(jsonout.dumps(report))
    sys.exit(code)


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
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
@click.option("--graph", "graph_path", type=click.Path(), default=None, help="Edge-list file.")
@click.option("--matrix", "matrix_path", type=click.Path(), default=None, help="Matrix file.")
@click.option("--cap", type=int, default=exact.DEFAULT_CAP, show_default=True)
@_mapped_errors
def exact_cmd(graph_path, matrix_path, cap):
    """Exact hafnian / perfect matching count (small n)."""
    started = time.monotonic()
    if (graph_path is None) == (matrix_path is None):
        raise InputError("provide exactly one of --graph or --matrix")
    if graph_path is not None:
        g = io.read_edge_list(graph_path)
        value = exact.count_perfect_matchings(g, cap=cap)
        source = {"graph": str(graph_path)}
    else:
        a = io.read_symmetric_matrix(matrix_path)
        value = exact.hafnian_exact(a, cap=cap)
        source = {"matrix": str(matrix_path)}
    config = {**source, "cap": cap}
    _emit(
        {
            "manifest": _manifest("exact", config, None, started),
            "n": value.n,
            "log_haf": value.log_value,
            "value": value.value_if_small,
        }
    )


@main.command("estimate")
@click.option("--matrix", "matrix_path", type=click.Path(), required=True)
@click.option("--samples", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--quantiles", default="0.05,0.25,0.5,0.75,0.95", show_default=True)
@click.option("--exact", "with_exact", is_flag=True, help="Also compute the exact hafnian.")
@_threads_option
@_mapped_errors
def estimate_cmd(matrix_path, samples, seed, quantiles, with_exact, threads):
    """Monte Carlo hafnian estimate via Gaussian determinants."""
    started = time.monotonic()
    try:
        qs = tuple(float(q) for q in quantiles.split(","))
    except ValueError as exc:
        raise InputError(f"bad quantile list {quantiles!r}: {exc}") from exc
    a = io.read_symmetric_matrix(matrix_path)
    exact_log = exact.hafnian_exact(a).log_value if with_exact else None
    summary = estimator.estimate(
        a, samples, seed, quantiles=qs, exact_log_haf=exact_log, threads=threads
    )
    config = {
        "matrix": str(matrix_path),
        "samples": samples,
        "seed": seed,
        "quantiles": list(qs),
        "exact": with_exact,
    }
    report = {
        "manifest": _manifest("estimate", config, seed, started),
        "n": summary.n,
        "num_samples": summary.num_samples,
        "seed": summary.seed,
        "mean_det_log": summary.mean_det_log,
        "logdet_mean": summary.logdet_mean,
        "logdet_std": summary.logdet_std,
        "logdet_quantiles": summary.logdet_quantiles,
        "num_zero_det": summary.num_zero_det,
    }
    if with_exact:
        report["exact_log_haf"] = summary.exact_log_haf
        report["error_median"] = summary.error_stats.median_abs_error
        report["error_max"] = summary.error_stats.max_abs_error
    _emit(report)


@main.command("scale")
@click.option("--matrix", "matrix_path", type=click.Path(), required=True)
@click.option("--residual", type=float, default=None, help="Target residual [default: 1/n].")
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@click.option("--theta", type=float, default=None, help="Audit bound max B_ij <= n^-theta.")
@click.option("--nu", type=float, default=None, help="Audit bound min B_ij >= n^-2nu.")
@click.option("--emit-b", type=click.Path(), default=None, help="Write B in matrix format.")
@_mapped_errors
def scale_cmd(matrix_path, residual, max_iter, theta, nu, emit_b):
    """Symmetric doubly stochastic scaling B = D A D."""
    started = time.monotonic()
    a = io.read_symmetric_matrix(matrix_path)
    result = scaling.scale_symmetric(a, residual_target=residual, max_iterations=max_iter)
    if emit_b is not None:
        io.write_matrix(emit_b, result.b)
    audit = None
    if result.converged and (theta is not None or nu is not None):
        audit = scaling.audit_entry_bounds(
            result, theta if theta is not None else 1.0, nu if nu is not None else 1.0
        )
    config = {
        "matrix": str(matrix_path),
        "residual": residual if residual is not None else 1.0 / a.n,
        "max_iter": max_iter,
        "theta": theta,
        "nu": nu,
        "emit_b": str(emit_b) if emit_b else None,
    }
    report = {
        "manifest": _manifest("scale", config, None, started),
        "n": a.n,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "max_entry": result.max_entry,
        "min_positive_entry": result.min_positive_entry,
        "observed_exponents": list(result.observed_exponents),
        "d": result.d,
    }
    if audit is not None:
        report["audit"] = {
            "max_ok": audit.max_ok,
            "min_ok": audit.min_ok,
            "theta": theta,
            "nu": nu,
        }
    _emit(report, EXIT_OK if result.converged else EXIT_NUMERICAL)


def _expansion_json(rep: graphs.ExpansionReport) -> dict:
    return {
        "kappa": rep.kappa,
        "level": rep.level,
        "holds": rep.holds,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "checked_mode": rep.checked_mode,
        "sets_checked": rep.sets_checked,
        "delta": rep.delta,
    }


@main.command("check")
@click.option("--graph", "graph_path", type=click.Path(), required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--level", type=int, default=None, help="Max |J| [default: n/2 for --weak].")
@click.option("--weak", is_flag=True, help="Check the weakened inequality instead.")
@click.option("--delta", type=float, default=None, help="Weakening parameter (with --weak).")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="exhaustive")
@click.option("--budget", type=int, default=1_000_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--strict", is_flag=True, help="Exit 4 when the condition fails.")
@_mapped_errors
def check_cmd(graph_path, kappa, level, weak, delta, mode, budget, seed, strict):
    """Strong (or weak) expansion check of an edge-list graph."""
    started = time.monotonic()
    g = io.read_edge_list(graph_path)
    if weak:
        if delta is None:
            raise InputError("--weak requires --delta")
        rep = graphs.check_weak_expansion(
            g, kappa, delta, mode=mode, budget=budget, seed=seed, level=level
        )
    else:
        if level is None:
            raise InputError("--level is required for the strong check")
        rep = graphs.check_strong_expansion(g, kappa, level, mode=mode, budget=budget, seed=seed)
    config = {
        "graph": str(graph_path),
        "kappa": kappa,
        "level": rep.level,
        "weak": weak,
        "delta": delta,
        "mode": mode,
        "budget": budget,
        "seed": seed,
        "strict": strict,
    }
    report = {"manifest": _manifest("check", config, seed, started)}
    report.update(_expansion_json(rep))
    _emit(report, EXIT_CHECK_FAILED if (strict and not rep.holds) else EXIT_OK)


@main.command("hypotheses")
@click.option("--matrix", "matrix_path", type=click.Path(), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--theta", type=float, required=True)
@click.option("--scale", "do_scale", is_flag=True, help="Scale the matrix first.")
@click.option("--mode", type=click.Choice(["exhaustive", "sampled"]), default="sampled")
@click.option("--budget", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--strict", is_flag=True, help="Exit 4 when any hypothesis fails.")
@_mapped_errors
def hypotheses_cmd(matrix_path, alpha, kappa, beta, theta, do_scale, mode, budget, seed, strict):
    """Evaluate the concentration theorem's three hypotheses on a matrix."""
    started = time.monotonic()
    a = io.read_symmetric_matrix(matrix_path)
    rep = graphs.check_theorem_hypotheses(
        a, alpha, kappa, beta, theta, scale=do_scale, mode=mode, budget=budget, seed=seed
    )
    config = {
        "matrix": str(matrix_path),
        "alpha": alpha,
        "kappa": kappa,
        "beta": beta,
        "theta": theta,
        "scale": do_scale,
        "mode": mode,
        "budget": budget,
        "seed": seed,
        "strict": strict,
    }
    report = {
        "manifest": _manifest("hypotheses", config, seed, started),
        "n": rep.n,
        "level": rep.level,
        "conditions": {
            "min_degree": {
                "ok": rep.min_degree_ok,
                "observed": rep.observed_min_degree,
                "required": rep.required_min_degree,
            },
            "strong_expansion": _expansion_json(rep.expansion),
            "max_entry": {
                "ok": rep.max_entry_ok,
                "observed": rep.max_entry,
                "bound": rep.max_entry_bound,
            },
        },
        "all_ok": rep.all_ok,
    }
    _emit(report, EXIT_CHECK_FAILED if (strict and not rep.all_ok) else EXIT_OK)


@main.command("counterexample")
@click.option("--delta", type=float, default=0.12, show_default=True)
@click.option("--n-center", type=int, required=True)
@click.option("--m-pairs", type=int, default=None, help="Override floor(delta*n/2).")
@click.option("--samples", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--emit-graph", type=click.Path(), default=None)
@_threads_option
@_mapped_errors
def counterexample_cmd(delta, n_center, m_pairs, samples, seed, emit_graph, threads):
    """Build the biased-estimator graph and run the bias experiment."""
    started = time.monotonic()
    spec = cx.CounterexampleSpec(delta=delta, n_center=n_center, m_pairs=m_pairs)
    if emit_graph is not None:
        io.write_edge_list(emit_graph, cx.build_counterexample(spec))
    rep = cx.run_bias_experiment(spec, samples, seed, threads=threads)
    config = {
        "delta": delta,
        "n_center": n_center,
        "m_pairs": spec.m_pairs,
        "samples": samples,
        "seed": seed,
        "emit_graph": str(emit_graph) if emit_graph else None,
    }
    _emit(
        {
            "manifest": _manifest("counterexample", config, seed, started),
            "total_vertices": rep.total_vertices,
            "n_center": rep.n_center,
            "m_pairs": rep.m_pairs,
            "delta": rep.delta,
            "log_haf": rep.log_haf,
            "mean_det_log": rep.mean_det_log,
            "logdet_quantiles": rep.logdet_quantiles,
            "median_signed_error": rep.median_signed_error,
            "fraction_below": rep.fraction_below,
        }
    )


@main.command("experiment")
@click.argument("kind", type=click.Choice(["sv-tail", "density", "concentration"]))
@click.option("--config", "config_path", type=click.Path(), required=True)
@_threads_option
@_mapped_errors
def experiment_cmd(kind, config_path, threads):
    """Run a harness experiment from a JSON config file."""
    started = time.monotonic()
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{config_path}: invalid JSON: {exc}") from exc
    defaults = {
        "sv-tail": {"trials": 200, "seed": 0, "thresholds": [1e-8, 1e-4, 1e-2, 0.1, 0.5]},
        "density": {"trials": 50, "seed": 0, "eta_grid": None},
        "concentration": {"samples_per_n": 200, "seed": 0},
    }
    config = {**defaults[kind], **config}
    if kind == "sv-tail":
        body = experiments.run_sv_tail(config)
    elif kind == "density":
        body = experiments.run_density(config)
    else:
        body = experiments.run_concentration(config, threads=threads)
    seed = config.get("seed", 0)
    _emit(
        {
            "manifest": _manifest("experiment", {"kind": kind, **config}, seed, started),
            "kind": kind,
            "report": body,
        }
    )


if __name__ == "__main__":
    main()
