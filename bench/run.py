"""End-to-end benchmark of the hafkit CLI, one workload per run.

    python3 bench/run.py --workload estimate_k8 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

A run sets up several times in child processes (imports, inputs built and
written, one warm-up call) and reports the median as ``setup_s``.  It then
sets up once more in process and repeats whole rounds of its workload's CLI
calls for about ``--seconds``, at least two rounds.  With ``--trace 0`` it
reports the median round's ``wall_s`` and ``cpu_s`` and the run's
``peak_rss_mb``; with ``--trace 1`` it alternates plain and traced rounds
and reports the per-layer metrics of ``spans.layer_metrics`` plus
``trace.overhead_s``.  Reports are checked after the timed part.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The full result, with the machine it ran on, goes to ``bench/results/``.

BLAS is pinned to one thread before numpy loads, so the only parallelism
is hafkit's own ``--threads``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("estimate_k8", "counterexample_m50", "oracles_conditions")


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Put the checkout's ``src`` first on the path and import hafkit from there only."""
    sys.path.insert(0, str(SRC))
    import hafkit

    if not Path(hafkit.__file__).resolve().is_relative_to(SRC):
        fail(f"hafkit was imported from {hafkit.__file__}, not from {SRC}")


def machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_effective": threads,
        "platform": platform.platform(),
    }


def steal_s():
    """CPU time the hypervisor gave to other guests since boot, or None off Linux."""
    try:
        return int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def setup_in_process(workload_cls, seed: int, workdir: Path):
    """Imports, inputs built and written, one warm-up call; returns (workload, cli)."""
    import_program()
    from workloads import Cli

    workload = workload_cls(seed, workdir)
    workload.build()
    cli = Cli()
    out = cli(workload.warmup)
    if out.error is not None or out.exit_code != 0:
        fail(f"warm-up call failed: exit {out.exit_code}, {out.error}")
    return workload, cli


def setup_times(args, workdir: Path) -> list:
    """Wall time from spawning a child to its 'ready' line, SETUP_REPEATS times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            try:
                child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                fail("set-up child did not exit")
        if child.returncode != 0 or line.strip() != "ready":
            fail(f"set-up child failed with exit code {child.returncode}")
        times.append(t1 - t0)
    return times


def run_rounds(workload, cli, seconds: float, tracer):
    """Whole rounds for about `seconds`; with a tracer, plain and traced rounds alternate."""
    plan = (False, True) if tracer is not None else (False,)
    rounds = []
    start = time.perf_counter()
    iterations = 0
    while True:
        for traced in plan:
            if traced:
                tracer.install()
            try:
                c0 = time.process_time()
                t0 = time.perf_counter()
                outs = {op.name: cli(op.args) for op in workload.ops}
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "outs": outs,
                           "spans": tracer.take() if traced else None})
        iterations += 1
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / iterations > seconds:
            return rounds


def check_rounds(workload, cli, rounds) -> tuple:
    """(failed calls over all rounds, problems): first round checked, the rest must repeat it."""
    first = rounds[0]["outs"]
    faults, problems = workload.check(first, cli)
    for k, rnd in enumerate(rounds[1:], start=2):
        for name, out in rnd["outs"].items():
            if out.comparable() != first[name].comparable():
                problems.append(f"round {k}: {name} differs from round 1")
    return len(faults) * len(rounds), problems


def measure(args) -> dict:
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    workdir = BENCH / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = setup_times(args, workdir)
        workload, cli = setup_in_process(workload_cls, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        steal0 = steal_s()
        rounds = run_rounds(workload, cli, args.seconds, tracer)
        steal1 = steal_s()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = check_rounds(workload, cli, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    metrics = {}
    if args.trace:
        import spans

        traced = [r for r in rounds if r["traced"]]
        per_round = [spans.layer_metrics(r["spans"]) for r in traced]
        for name in per_round[0]:
            metrics[name] = {"value": statistics.median(m[name] for m in per_round), "unit": spans.UNITS[name]}
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {"correct": not problems, "attempted": len(rounds) * len(workload.ops), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine(),
        "setup_samples_s": setups,
        "steal_s_during_rounds": None if steal0 is None or steal1 is None else steal1 - steal0,
        "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"]} for r in rounds],
        "calls_per_round": [{"name": op.name, "args": [str(a) for a in op.args], "known_fault": op.fault}
                            for op in workload.ops],
        "problems": problems,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for k, r in enumerate(rounds):
                for sp in r["spans"] or ():
                    fh.write(json.dumps({"round": k, **dataclasses.asdict(sp)}) + "\n")
    for p in problems:
        print(f"bench: {args.workload}: {p}", file=sys.stderr)
    return result


def print_summary(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own process, one after another, with a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            fail(f"{name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        print_summary(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        fail("--seed must lie in [0, 2^63)")
    if not (SRC / "hafkit" / "__init__.py").is_file():
        fail(f"no hafkit sources under {SRC}")
    if args.setup_child:
        from workloads import WORKLOADS

        setup_in_process(WORKLOADS[args.workload], args.seed, args.workdir)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print_summary(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
