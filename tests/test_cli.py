import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hafkit
from hafkit import CounterexampleSpec, build_counterexample, complete_graph, experiments, io
from hafkit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    k8 = complete_graph(8)
    io.write_edge_list(tmp_path / "k8.edges", k8)
    io.write_matrix(tmp_path / "k8.mat", k8.sym_matrix())
    star = np.zeros((4, 4))
    star[0, 1:] = 1
    star[1:, 0] = 1
    io.write_matrix(tmp_path / "star.mat", star)
    pm = np.zeros((6, 6))
    for t in range(3):
        pm[2 * t, 2 * t + 1] = pm[2 * t + 1, 2 * t] = 1.0
    io.write_matrix(tmp_path / "pm.mat", pm)
    io.write_edge_list(
        tmp_path / "pm.edges",
        hafkit.GraphEdgeList.from_pairs(6, [(0, 1), (2, 3), (4, 5)]),
    )
    return tmp_path


# small configs of each experiment, as the CLI reads them
EXPERIMENT_CONFIGS = {
    "sv-tail": {
        "matrix": {"kind": "complete", "n": 8, "scaled": True},
        "trials": 20,
        "seed": 3,
        "thresholds": [1e-6, 0.1],
    },
    "density": {"matrix": {"kind": "complete", "n": 10, "scaled": True}, "trials": 5, "seed": 4},
    "concentration": {"family": {"kind": "complete", "ns": [6, 8]}, "samples_per_n": 50, "seed": 5},
}


def run_experiment(runner, tmp_path, kind, config):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(config))
    return runner.invoke(main, ["experiment", kind, "--config", str(path)])


def strip_timing(text: str) -> str:
    return re.sub(r'"timing_ms": \d+', '"timing_ms": 0', text)


def test_exact_k8(runner, files):
    res = runner.invoke(main, ["exact", "--graph", str(files / "k8.edges")])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["value"] == 105
    assert math.isclose(doc["log_haf"], math.log(105))
    assert doc["manifest"]["subcommand"] == "exact"
    assert doc["manifest"]["tool_version"] == hafkit.__version__
    assert doc["manifest"]["full_config"] == {"graph": str(files / "k8.edges")}


def test_exact_matrix_source(runner, files):
    res = runner.invoke(main, ["exact", "--matrix", str(files / "k8.mat")])
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == 105


def test_threads_env_var_respected_and_harmless(runner, files):
    args = ["estimate", "--matrix", str(files / "k8.mat"), "--samples", "512", "--seed", "4"]
    plain = runner.invoke(main, args).output
    with_env = runner.invoke(main, args, env={"HAFKIT_THREADS": "3"}).output
    assert strip_timing(plain) == strip_timing(with_env)


def test_exact_and_estimate_at_a_tiny_unit(runner, tmp_path):
    # haf(K_8 1e-100) = 105e-400, below every float64 but with a finite log
    io.write_matrix(tmp_path / "tiny.mat", complete_graph(8).sym_matrix().entries * 1e-100)
    res = runner.invoke(main, ["exact", "--matrix", str(tmp_path / "tiny.mat")])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["value"] is None
    assert math.isclose(doc["log_haf"], math.log(105) - 400 * math.log(10), rel_tol=1e-13)
    res = runner.invoke(main, ["estimate", "--matrix", str(tmp_path / "tiny.mat"), "--samples", "2000", "--exact"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["exact_log_haf"] == pytest.approx(math.log(105) - 400 * math.log(10), rel=1e-13)
    assert doc["num_zero_det"] == 0
    assert math.isfinite(doc["error_median"]) and math.isfinite(doc["error_max"])


def test_exact_prints_counts_past_2_53_as_ints(runner, tmp_path):
    pairs = [(12 * c + i, 12 * c + j) for c in range(4) for i in range(12) for j in range(i + 1, 12)]
    io.write_edge_list(tmp_path / "k12x4.edges", hafkit.GraphEdgeList.from_pairs(48, pairs))
    res = runner.invoke(main, ["exact", "--graph", str(tmp_path / "k12x4.edges")])
    assert res.exit_code == 0
    assert f'"value": {10395**4}\n' in res.output
    x = 2**40 + 1
    io.write_matrix(tmp_path / "big4.mat", np.full((4, 4), float(x)) - np.diag([float(x)] * 4))
    res = runner.invoke(main, ["exact", "--matrix", str(tmp_path / "big4.mat")])
    assert res.exit_code == 0
    assert '"value": 3626777458850484593885187\n' in res.output
    io.write_edge_list(tmp_path / "k64.edges", complete_graph(64))
    res = runner.invoke(main, ["exact", "--graph", str(tmp_path / "k64.edges")])
    assert res.exit_code == 2


def test_exact_refuses_k40_and_has_no_cap_option(runner, files, tmp_path):
    io.write_edge_list(tmp_path / "k40.edges", complete_graph(40))
    res = runner.invoke(main, ["exact", "--graph", str(tmp_path / "k40.edges")])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "input error: exact hafnian needs more than 8388608 DP moves at n=40\n"
    res = runner.invoke(main, ["exact", "--graph", str(files / "k8.edges"), "--cap", "24"])
    assert res.exit_code == 2
    assert "No such option '--cap'" in res.output


def test_exact_requires_one_source(runner, files):
    res = runner.invoke(main, ["exact"])
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["exact", "--graph", str(files / "k8.edges"), "--matrix", str(files / "k8.mat")],
    )
    assert res.exit_code == 2


def test_exact_bad_file(runner, tmp_path):
    res = runner.invoke(main, ["exact", "--graph", str(tmp_path / "nope.edges")])
    assert res.exit_code == 2


def test_unknown_flag_is_usage_error(runner, files):
    res = runner.invoke(main, ["exact", "--does-not-exist", "5"])
    assert res.exit_code == 2


def test_estimate_with_exact(runner, files):
    res = runner.invoke(
        main,
        ["estimate", "--matrix", str(files / "k8.mat"), "--samples", "500", "--seed", "1", "--exact"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["n"] == 8
    assert doc["num_samples"] == 500
    assert math.isclose(doc["exact_log_haf"], math.log(105))
    assert "error_median" in doc
    assert "0.5" in doc["logdet_quantiles"]


THREADS_CALLS = [
    ["estimate", "--matrix", "k8.mat", "--samples", "10"],
    ["counterexample", "--n-center", "4", "--samples", "10"],
    ["experiment", "sv-tail", "--config", "sv-tail.json"],
    ["experiment", "density", "--config", "density.json"],
    ["experiment", "concentration", "--config", "concentration.json"],
]


@pytest.mark.parametrize("call", THREADS_CALLS, ids=lambda call: call[1] if call[0] == "experiment" else call[0])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_1_exit_2_from_flag_and_environment(runner, files, call, threads):
    for kind, config in EXPERIMENT_CONFIGS.items():
        (files / f"{kind}.json").write_text(json.dumps(config))
    args = [str(files / a) if a.endswith((".mat", ".json")) else a for a in call]
    for res in (runner.invoke(main, args + ["--threads", threads]),
                runner.invoke(main, args, env={"HAFKIT_THREADS": threads})):
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "input error: threads must be >= 1\n"


def test_estimate_threads_do_not_change_bytes(runner, files):
    args = ["estimate", "--matrix", str(files / "k8.mat"), "--samples", "2048", "--seed", "9"]
    out1 = runner.invoke(main, args + ["--threads", "1"]).output
    out4 = runner.invoke(main, args + ["--threads", "4"]).output
    assert strip_timing(out1) == strip_timing(out4)


def test_estimate_star_prints_minus_inf(runner, files):
    res = runner.invoke(
        main, ["estimate", "--matrix", str(files / "star.mat"), "--samples", "300", "--seed", "3"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["mean_det_log"] == "-inf"
    assert doc["logdet_mean"] == "-inf"
    assert doc["num_zero_det"] == 300
    assert all(v == "-inf" for v in doc["logdet_quantiles"].values())


def test_estimate_bad_quantiles(runner, files):
    res = runner.invoke(
        main,
        ["estimate", "--matrix", str(files / "k8.mat"), "--quantiles", "0.5,oops"],
    )
    assert res.exit_code == 2


def test_estimate_negative_seed_rejected(runner, files):
    res = runner.invoke(
        main, ["estimate", "--matrix", str(files / "k8.mat"), "--samples", "10", "--seed", "-3"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "bad",
    [["--samples", "0"], ["--threads", "0"], ["--quantiles", "1.5"], ["--seed", "-1"]],
    ids=["samples", "threads", "quantiles", "seed"],
)
def test_estimate_exact_checks_arguments_before_the_dp(runner, files, monkeypatch, bad):
    def refuse(a):
        raise AssertionError("hafnian_exact ran before the arguments were checked")

    monkeypatch.setattr(hafkit.exact, "hafnian_exact", refuse)
    res = runner.invoke(main, ["estimate", "--matrix", str(files / "k8.mat"), "--exact", *bad])
    assert res.exit_code == 2
    assert "input error" in res.output


def test_scale_star_exits_3(runner, files):
    res = runner.invoke(main, ["scale", "--matrix", str(files / "star.mat"), "--max-iter", "200"])
    assert res.exit_code == 3
    doc = json.loads(res.output)
    assert doc["converged"] is False
    assert doc["iterations"] == 200


def test_scale_converges_whatever_the_units(runner, tmp_path):
    x = np.triu(np.random.default_rng(48).uniform(0.1, 3.0, size=(6, 6)), 1)
    io.write_matrix(tmp_path / "tiny.mat", (x + x.T) * 1e-250)
    res = runner.invoke(main, ["scale", "--matrix", str(tmp_path / "tiny.mat")])
    assert res.exit_code == 0
    assert json.loads(res.output)["converged"] is True


def test_scale_subnormal_blocks_converge(runner, tmp_path):
    # two K_4 blocks at 4.0 and 1e-320: d d^T overflows before it meets A,
    # (d_i A_ij) d_j does not
    a = np.zeros((8, 8))
    a[:4, :4] = 4.0
    a[4:, 4:] = 1e-320
    np.fill_diagonal(a, 0.0)
    io.write_matrix(tmp_path / "subnormal.mat", a)
    res = runner.invoke(main, ["scale", "--matrix", str(tmp_path / "subnormal.mat")])
    assert res.exit_code == 0
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert doc["converged"] is True and doc["iterations"] == 0
    assert math.isclose(doc["max_entry"], 1 / 3) and math.isclose(doc["min_positive_entry"], 1 / 3)


def test_scale_k8_and_emit_b(runner, files, tmp_path):
    out = tmp_path / "b.mat"
    res = runner.invoke(
        main,
        ["scale", "--matrix", str(files / "k8.mat"), "--residual", "1e-10", "--theta", "0.5",
         "--nu", "1.0", "--emit-b", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["converged"] is True
    assert math.isclose(doc["max_entry"], 1.0 / 7.0, rel_tol=1e-9)
    assert doc["audit"]["max_ok"] is True
    assert len(doc["d"]) == 8
    b = io.read_symmetric_matrix(out)
    assert np.allclose(b.entries.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("given, verdict, unasked, bound", [
    (["--theta", "0.5"], "max_ok", "min_ok", "nu"),
    (["--nu", "1.0"], "min_ok", "max_ok", "theta"),
])
def test_scale_audits_only_the_bounds_given(runner, files, given, verdict, unasked, bound):
    res = runner.invoke(main, ["scale", "--matrix", str(files / "k8.mat")] + given)
    assert res.exit_code == 0
    audit = json.loads(res.output)["audit"]
    assert audit[verdict] is True
    assert audit[unasked] is None and audit[bound] is None


def test_check_strong_failure_strict_exit_4(runner, files):
    res = runner.invoke(
        main,
        ["check", "--graph", str(files / "pm.edges"), "--kappa", "0.1", "--level", "2", "--strict"],
    )
    assert res.exit_code == 4
    doc = json.loads(res.output)
    assert doc["holds"] is False
    assert doc["witness"] is not None
    # without --strict the same failure exits 0
    res = runner.invoke(
        main,
        ["check", "--graph", str(files / "pm.edges"), "--kappa", "0.1", "--level", "2"],
    )
    assert res.exit_code == 0


def test_check_weak_needs_delta(runner, files):
    res = runner.invoke(
        main, ["check", "--graph", str(files / "k8.edges"), "--kappa", "0.1", "--weak"]
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["check", "--graph", str(files / "k8.edges"), "--kappa", "0.1", "--weak", "--delta", "0.1"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["holds"] is True and doc["level"] == 4


def test_check_weak_decides_a_zero_deficit_exactly(runner, tmp_path):
    # J = {0} has deficit 1 - 0.9 - 0.1 = 0 exactly; {0, 1} violates
    io.write_edge_list(tmp_path / "path.edges", hafkit.GraphEdgeList.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
    res = runner.invoke(
        main,
        ["check", "--graph", str(tmp_path / "path.edges"), "--kappa", "0.1", "--weak", "--delta", "0.1"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert (doc["holds"], doc["witness"], doc["sets_checked"]) == (False, [0, 1], 5)


def test_check_strong_needs_level(runner, files):
    res = runner.invoke(main, ["check", "--graph", str(files / "k8.edges"), "--kappa", "0.1"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--graph", "k8.edges", "--kappa", "0.1", "--level", "3", "--mode", "sampled",
         "--seed", "-1"],
        ["check", "--graph", "k8.edges", "--kappa", "0.1", "--level", "3", "--budget", "-1"],
        ["hypotheses", "--matrix", "k8.mat", "--alpha", "0.5", "--kappa", "0.25", "--beta", "2",
         "--theta", "0.5", "--seed", "-1"],
    ],
    ids=["check-sampled-seed", "check-budget", "hypotheses-seed"],
)
def test_expansion_seed_and_budget_exit_2(runner, files, args):
    res = runner.invoke(main, [str(files / a) if a.endswith((".edges", ".mat")) else a for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert re.match(r"input error: (seed must fit|budget must be >= 0)", res.stderr)


def test_check_refuses_an_uncountable_exhaustive_scan_fast(runner, tmp_path):
    # the default weak level 7,500 of a 15,000-cycle has a 4516-digit subset count
    n = 15000
    io.write_edge_list(tmp_path / "cycle.edges",
                       hafkit.GraphEdgeList.from_pairs(n, [(i, (i + 1) % n) for i in range(n)]))
    started = time.perf_counter()
    res = runner.invoke(main, ["check", "--graph", str(tmp_path / "cycle.edges"), "--kappa", "0.1",
                               "--weak", "--delta", "0.1"])
    assert time.perf_counter() - started < 1.0
    assert res.exit_code == 2
    assert res.stderr == "input error: exhaustive check needs about 10^4515 subsets, over budget 1000000\n"


@pytest.mark.parametrize(
    "args",
    [
        ["scale", "--residual", "nan"],
        ["scale", "--residual", "inf"],
        ["hypotheses", "--alpha", "nan", "--kappa", "0.25", "--beta", "2", "--theta", "0.5"],
        ["hypotheses", "--alpha", "0.5", "--kappa", "0.25", "--beta", "nan", "--theta", "0.5"],
        ["hypotheses", "--alpha", "0.5", "--kappa", "0.25", "--beta", "2", "--theta", "nan"],
        ["scale", "--theta", "nan"],
        ["scale", "--nu", "nan"],
        ["scale", "--theta", "inf"],
        ["scale", "--nu", "-inf"],
    ],
    ids=["residual-nan", "residual-inf", "alpha-nan", "beta-nan", "theta-nan",
         "audit-theta-nan", "audit-nu-nan", "audit-theta-inf", "audit-nu-minus-inf"],
)
def test_non_finite_parameters_exit_2(runner, files, args):
    res = runner.invoke(main, [args[0], "--matrix", str(files / "k8.mat"), *args[1:]])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert re.search(r"must be (positive and )?finite", res.stderr)


def test_hypotheses_k16(runner, tmp_path):
    io.write_matrix(tmp_path / "k16.mat", complete_graph(16).sym_matrix())
    res = runner.invoke(
        main,
        ["hypotheses", "--matrix", str(tmp_path / "k16.mat"), "--alpha", "0.5", "--kappa", "0.25",
         "--beta", "2", "--theta", "0.5", "--scale", "--strict"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["all_ok"] is True
    assert doc["conditions"]["min_degree"]["observed"] == 15
    assert doc["conditions"]["strong_expansion"]["holds"] is True
    assert doc["conditions"]["max_entry"]["ok"] is True


def test_hypotheses_matching_only_strict_exit_4(runner, files):
    res = runner.invoke(
        main,
        ["hypotheses", "--matrix", str(files / "pm.mat"), "--alpha", "0.1", "--kappa", "0.2",
         "--beta", "2", "--theta", "0.1", "--strict"],
    )
    assert res.exit_code == 4
    doc = json.loads(res.output)
    assert doc["conditions"]["strong_expansion"]["holds"] is False
    assert doc["conditions"]["strong_expansion"]["witness"] is not None


# report bytes, timing aside, that scale and hypotheses keep whatever types
# build them; {dir} stands for the input directory
PINNED_REPORTS = {
    "scale-k8-audit": (
        ["scale", "--matrix", "k8.mat", "--theta", "0.5", "--nu", "1"],
        0,
        """\
{
  "manifest": {
    "tool_version": "0.1.0",
    "subcommand": "scale",
    "full_config": {
      "matrix": "{dir}/k8.mat",
      "residual": 0.125,
      "max_iter": 10000,
      "theta": 0.5,
      "nu": 1,
      "emit_b": null
    },
    "seed": null,
    "timing_ms": 0
  },
  "n": 8,
  "converged": true,
  "iterations": 0,
  "residual": 2.2204460492503131e-16,
  "max_entry": 0.14285714285714282,
  "min_positive_entry": 0.14285714285714282,
  "observed_exponents": [
    0.93578497401920158,
    0.46789248700960079
  ],
  "d": [
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272
  ],
  "audit": {
    "max_ok": true,
    "min_ok": true,
    "theta": 0.5,
    "nu": 1
  }
}
""",
    ),
    "scale-k8": (
        ["scale", "--matrix", "k8.mat"],
        0,
        """\
{
  "manifest": {
    "tool_version": "0.1.0",
    "subcommand": "scale",
    "full_config": {
      "matrix": "{dir}/k8.mat",
      "residual": 0.125,
      "max_iter": 10000,
      "theta": null,
      "nu": null,
      "emit_b": null
    },
    "seed": null,
    "timing_ms": 0
  },
  "n": 8,
  "converged": true,
  "iterations": 0,
  "residual": 2.2204460492503131e-16,
  "max_entry": 0.14285714285714282,
  "min_positive_entry": 0.14285714285714282,
  "observed_exponents": [
    0.93578497401920158,
    0.46789248700960079
  ],
  "d": [
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272,
    0.3779644730092272
  ]
}
""",
    ),
    "scale-star": (
        ["scale", "--matrix", "star.mat"],
        3,
        """\
{
  "manifest": {
    "tool_version": "0.1.0",
    "subcommand": "scale",
    "full_config": {
      "matrix": "{dir}/star.mat",
      "residual": 0.25,
      "max_iter": 10000,
      "theta": null,
      "nu": null,
      "emit_b": null
    },
    "seed": null,
    "timing_ms": 0
  },
  "n": 4,
  "converged": false,
  "iterations": 837,
  "residual": 0.73205080756887742,
  "max_entry": 0.57735026918962573,
  "min_positive_entry": 0.57735026918962573,
  "observed_exponents": [
    0.39624062518028907,
    0.19812031259014454
  ],
  "d": [
    8.391059923488921e-101,
    6.880540413892899e+99,
    6.880540413892899e+99,
    6.880540413892899e+99
  ]
}
""",
    ),
    "hypotheses-k16": (
        ["hypotheses", "--matrix", "k16.mat", "--alpha", "0.5", "--kappa", "0.25", "--beta", "2", "--theta", "0.5", "--scale", "--strict"],
        0,
        """\
{
  "manifest": {
    "tool_version": "0.1.0",
    "subcommand": "hypotheses",
    "full_config": {
      "matrix": "{dir}/k16.mat",
      "alpha": 0.5,
      "kappa": 0.25,
      "beta": 2,
      "theta": 0.5,
      "scale": true,
      "mode": "sampled",
      "budget": 2000,
      "seed": 0,
      "strict": true
    },
    "seed": 0,
    "timing_ms": 0
  },
  "n": 16,
  "level": 7,
  "conditions": {
    "min_degree": {
      "ok": true,
      "observed": 15,
      "required": 10
    },
    "strong_expansion": {
      "kappa": 0.25,
      "level": 7,
      "holds": true,
      "witness": null,
      "checked_mode": "sampled",
      "sets_checked": 2017,
      "delta": null
    },
    "max_entry": {
      "ok": true,
      "observed": 0.066666666666666652,
      "bound": 0.25
    }
  },
  "all_ok": true
}
""",
    ),
    "hypotheses-matching": (
        ["hypotheses", "--matrix", "pm.mat", "--alpha", "0.1", "--kappa", "0.2", "--beta", "2", "--theta", "0.1", "--strict"],
        4,
        """\
{
  "manifest": {
    "tool_version": "0.1.0",
    "subcommand": "hypotheses",
    "full_config": {
      "matrix": "{dir}/pm.mat",
      "alpha": 0.10000000000000001,
      "kappa": 0.20000000000000001,
      "beta": 2,
      "theta": 0.10000000000000001,
      "scale": false,
      "mode": "sampled",
      "budget": 2000,
      "seed": 0,
      "strict": true
    },
    "seed": 0,
    "timing_ms": 0
  },
  "n": 6,
  "level": 5,
  "conditions": {
    "min_degree": {
      "ok": false,
      "observed": 1,
      "required": 2.6000000000000001
    },
    "strong_expansion": {
      "kappa": 0.20000000000000001,
      "level": 5,
      "holds": false,
      "witness": [
        0
      ],
      "checked_mode": "sampled",
      "sets_checked": 1,
      "delta": null
    },
    "max_entry": {
      "ok": false,
      "observed": 1,
      "bound": 0.83595880207793682
    }
  },
  "all_ok": false
}
""",
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_scale_and_hypotheses_reports_keep_their_bytes(runner, files, name):
    io.write_matrix(files / "k16.mat", complete_graph(16).sym_matrix())
    args, code, text = PINNED_REPORTS[name]
    res = runner.invoke(main, [str(files / a) if a.endswith(".mat") else a for a in args])
    assert res.exit_code == code
    assert strip_timing(res.stdout).replace(str(files), "{dir}") == text


def hypotheses_on_k4(runner, tmp_path, alpha="0.5", kappa="0.25", beta="2", theta="0.5"):
    io.write_matrix(tmp_path / "k4.mat", complete_graph(4).sym_matrix())
    return runner.invoke(main, ["hypotheses", "--matrix", str(tmp_path / "k4.mat"), "--alpha", alpha,
                                "--kappa", kappa, "--beta", beta, "--theta", theta])


@pytest.mark.parametrize("kappa", ["-4", "-1e308"])
def test_hypotheses_kappa_at_most_minus_4_exits_2(runner, tmp_path, kappa):
    # 1 + kappa/4 <= 0: the level n(1-alpha)/(1+kappa/4) is undefined or negative
    res = hypotheses_on_k4(runner, tmp_path, kappa=kappa)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("input error: kappa must be > -4")


@pytest.mark.parametrize("alpha, level", [("-1e308", 3), ("1e308", 1)])
def test_hypotheses_level_is_clamped_before_it_is_an_int(runner, tmp_path, alpha, level):
    res = hypotheses_on_k4(runner, tmp_path, alpha=alpha)
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["level"] == doc["conditions"]["strong_expansion"]["level"] == level


@pytest.mark.parametrize("bound", ["beta", "theta"])
def test_hypotheses_bound_past_float64_is_inf(runner, tmp_path, bound):
    res = hypotheses_on_k4(runner, tmp_path, **{bound: "-1e300"})
    assert res.exit_code == 0
    conditions = json.loads(res.stdout)["conditions"]
    if bound == "theta":
        assert conditions["max_entry"] == {"ok": True, "observed": 1, "bound": "inf"}
    else:
        # no entry exceeds the threshold n^-beta = inf: Gamma_B has no edges
        assert conditions["min_degree"] == {"ok": False, "observed": 0, "required": 4.0}
        assert conditions["strong_expansion"]["holds"] is False


@pytest.mark.parametrize("given, verdict", [
    (["--theta", "-1e300"], {"max_ok": True, "min_ok": None}),
    (["--nu", "-1e300"], {"max_ok": None, "min_ok": False}),
])
def test_scale_audit_bound_past_float64_is_inf(runner, files, given, verdict):
    res = runner.invoke(main, ["scale", "--matrix", str(files / "k8.mat"), *given])
    assert res.exit_code == 0
    audit = json.loads(res.stdout)["audit"]
    assert {k: audit[k] for k in verdict} == verdict


EXTREME_FLOATS = ["1e308", "-1e308", "1e300", "-1e300", "0", "-4"]
EXTREME_INTS = ["0", "-4", str(2**64)]
HUGE = [str(10**30)]
SIZES = [10**12, 10**30]  # numpy refuses an n x n float64 array of these at once
K4_HYPOTHESES = ["hypotheses", "--matrix", "k4.mat", "--alpha", "0.5", "--kappa", "0.25", "--beta", "2",
                 "--theta", "0.5"]
# (call, {option: values}): the call is run once with each value of each option appended
EXTREME_CALLS = [
    (["estimate", "--matrix", "k4.mat", "--samples", "10"],
     {"--samples": EXTREME_INTS[:2] + HUGE + [str(2**62), str(10**18)], "--seed": EXTREME_INTS + HUGE, "--threads": EXTREME_INTS[:2],
      "--quantiles": EXTREME_FLOATS}),
    (["scale", "--matrix", "k4.mat"],
     {"--residual": EXTREME_FLOATS, "--max-iter": EXTREME_INTS + HUGE, "--theta": EXTREME_FLOATS,
      "--nu": EXTREME_FLOATS}),
    (["check", "--graph", "k4.edges", "--kappa", "0.1", "--level", "1"],
     {"--kappa": EXTREME_FLOATS, "--level": EXTREME_INTS + HUGE, "--budget": EXTREME_INTS + HUGE,
      "--seed": EXTREME_INTS + HUGE}),
    (["check", "--graph", "k4.edges", "--kappa", "0.1", "--weak", "--delta", "0.1", "--mode", "sampled"],
     {"--kappa": EXTREME_FLOATS, "--delta": EXTREME_FLOATS, "--level": EXTREME_INTS + HUGE,
      "--budget": EXTREME_INTS + HUGE}),
    (K4_HYPOTHESES,
     {"--alpha": EXTREME_FLOATS, "--kappa": EXTREME_FLOATS, "--beta": EXTREME_FLOATS,
      "--theta": EXTREME_FLOATS, "--budget": EXTREME_INTS + HUGE, "--seed": EXTREME_INTS + HUGE}),
    (K4_HYPOTHESES + ["--scale", "--mode", "exhaustive"],
     {"--alpha": EXTREME_FLOATS, "--kappa": EXTREME_FLOATS, "--beta": EXTREME_FLOATS,
      "--theta": EXTREME_FLOATS, "--budget": EXTREME_INTS + HUGE}),
    (["counterexample", "--n-center", "4", "--m-pairs", "1", "--samples", "10"],
     {"--delta": EXTREME_FLOATS, "--n-center": EXTREME_INTS[:2] + [str(n) for n in SIZES],
      "--m-pairs": EXTREME_INTS[:2] + [str(n) for n in SIZES],
      "--samples": EXTREME_INTS[:2] + HUGE + [str(2**62), str(10**18)], "--seed": EXTREME_INTS + HUGE}),
]
K4_SOURCE = {"kind": "complete", "n": 4, "scaled": True}
# (kind, config, key, values): the config is run once with each value under key
EXTREME_CONFIGS = [
    ("sv-tail", {"matrix": K4_SOURCE, "trials": 3, "thresholds": [0.1, 0.5]}, "thresholds",
     [[float(x)] for x in EXTREME_FLOATS]),
    ("density", {"matrix": K4_SOURCE, "trials": 3}, "eta_grid", [[float(x)] for x in EXTREME_FLOATS]),
    ("density", {"matrix": K4_SOURCE, "trials": 3}, "trials", [0, -4]),
    ("density", {"matrix": K4_SOURCE, "trials": 3}, "seed", [-4, 2**64, 10**30]),
    ("density", {"trials": 3}, "matrix", [{"kind": "complete", "n": n} for n in (0, -4, *SIZES)]
     + [{"kind": "random_regular", "n": n, "d": 3} for n in SIZES]
     + [{"kind": "counterexample", "delta": 0.12, "n_center": 4, "m_pairs": n} for n in SIZES]
     + [{"kind": "counterexample", "delta": float(x), "n_center": 4} for x in EXTREME_FLOATS]
     + [{"kind": "counterexample", "delta": 0.12, "n_center": n} for n in SIZES]),
    ("concentration", {"family": {"kind": "complete", "ns": [4]}, "samples_per_n": 10}, "samples_per_n",
     [0, -4]),
    ("concentration", {"samples_per_n": 10}, "family", [{"kind": "complete", "ns": [n]} for n in (0, -4, *SIZES)]
     + [{"kind": "counterexample", "n_centers": [4], "delta": float(x)} for x in EXTREME_FLOATS]
     + [{"kind": "counterexample", "n_centers": [n]} for n in SIZES]),
]


def test_extreme_finite_values_never_exit_1(runner, tmp_path):
    # every call prints a report or refuses its input; none leaves an uncaught exception
    k4 = complete_graph(4)
    io.write_edge_list(tmp_path / "k4.edges", k4)
    calls = []
    for name, scale in (("k4", 1.0), ("huge", 1e308), ("tiny", 5e-324)):
        io.write_matrix(tmp_path / f"{name}.mat", k4.sym_matrix().entries * scale)
        hypotheses = [name + ".mat" if a == "k4.mat" else a for a in K4_HYPOTHESES]
        calls += [["exact", "--matrix", f"{name}.mat"], hypotheses, hypotheses + ["--scale"],
                  ["estimate", "--matrix", f"{name}.mat", "--samples", "10", "--exact"],
                  ["scale", "--matrix", f"{name}.mat", "--theta", "1e308", "--nu", "-1e308"]]
    calls += [call + [option, v] for call, options in EXTREME_CALLS for option, values in options.items()
              for v in values]
    for i, (kind, config, key, values) in enumerate(EXTREME_CONFIGS):
        for j, v in enumerate(values):
            (tmp_path / f"{i}-{j}.json").write_text(json.dumps({**config, key: v}))
            calls.append(["experiment", kind, "--config", f"{i}-{j}.json"])
    failed = []
    for call in calls:
        res = runner.invoke(main, [str(tmp_path / a) if a.endswith((".mat", ".edges", ".json")) else a
                                   for a in call])
        if res.exit_code == 1 or not isinstance(res.exception, (SystemExit, type(None))):
            failed.append((call, res.exit_code, repr(res.exception)))
    assert failed == []


def test_counterexample_command(runner, tmp_path):
    out = tmp_path / "cx.edges"
    res = runner.invoke(
        main,
        ["counterexample", "--delta", "0.12", "--n-center", "6", "--m-pairs", "1",
         "--samples", "300", "--seed", "2", "--emit-graph", str(out)],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["total_vertices"] == 14
    assert math.isclose(doc["log_haf"], math.log(720))
    assert doc["fraction_below"]
    g = io.read_edge_list(out)
    spec = CounterexampleSpec(delta=0.12, n_center=6, m_pairs=1)
    assert g.edges == build_counterexample(spec).edges


@pytest.mark.parametrize(
    "family",
    [{"kind": "complete", "ns": [8, 8]}, {"kind": "counterexample", "n_centers": [10, 10]}],
    ids=["complete", "counterexample"],
)
def test_concentration_fits_no_line_through_one_size(runner, tmp_path, family):
    res = run_experiment(runner, tmp_path, "concentration", {"family": family, "samples_per_n": 50, "seed": 5})
    assert res.exit_code == 0, res.stderr
    assert res.stderr == ""
    report = json.loads(res.output)["report"]
    assert len(report["rows"]) == 2 and all(row["median_abs_error"] > 0 for row in report["rows"])
    assert report["fitted_exponent"] is None and report["r_squared"] is None


def test_numerical_errors_print_the_residual(runner, files, tmp_path):
    res = run_experiment(runner, tmp_path, "density",
                         {"matrix": {"kind": "file", "path": str(files / "star.mat"), "scaled": True}, "trials": 3})
    assert res.exit_code == 3
    assert re.fullmatch(r"numerical error: matrix source did not scale \(residual \S+\)\n", res.stderr)
    res = runner.invoke(main, ["hypotheses", "--matrix", str(files / "star.mat"), "--alpha", "0.5", "--kappa",
                               "0.25", "--beta", "2", "--theta", "0.5", "--scale"])
    assert res.exit_code == 3
    assert re.fullmatch(r"numerical error: doubly stochastic scaling did not converge \(residual \S+\); "
                        r"hypotheses undefined\n", res.stderr)


def test_experiment_commands(runner, tmp_path):
    res = run_experiment(runner, tmp_path, "sv-tail", EXPERIMENT_CONFIGS["sv-tail"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["kind"] == "sv-tail"
    assert doc["report"]["trials"] == 20

    res = run_experiment(runner, tmp_path, "density", EXPERIMENT_CONFIGS["density"])
    assert res.exit_code == 0
    rows = json.loads(res.output)["report"]["rows"]
    means = [r["mean_count"] for r in rows]
    assert means == sorted(means)

    res = run_experiment(runner, tmp_path, "concentration", EXPERIMENT_CONFIGS["concentration"])
    assert res.exit_code == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["experiment", "density", "--config", str(bad)])
    assert res.exit_code == 2

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"family": {"kind": "nope"}}))
    res = runner.invoke(main, ["experiment", "concentration", "--config", str(wrong)])
    assert res.exit_code == 2


K8_SOURCE = {"kind": "complete", "n": 8, "scaled": True}


@pytest.mark.parametrize(
    "kind, config",
    [
        ("sv-tail", [1, 2]),
        ("sv-tail", {"trials": 5, "seed": 0}),
        ("sv-tail", {"matrix": {"kind": "complete", "n": 8}, "trials": "x"}),
        ("sv-tail", {"matrix": {"kind": "complete", "n": 8}, "seed": None}),
        ("sv-tail", {"matrix": {"kind": "complete", "n": "abc"}}),
        ("sv-tail", {"matrix": {"kind": "random_regular", "n": 8, "d": 3, "graph_seed": -1}}),
        # json reads NaN and Infinity, which no threshold or eta may be
        ("sv-tail", {"matrix": K8_SOURCE, "trials": 5, "thresholds": [math.nan, 0.5]}),
        ("sv-tail", {"matrix": K8_SOURCE, "trials": 5, "thresholds": [0.1, math.inf]}),
        ("density", {"matrix": K8_SOURCE, "trials": 5, "eta_grid": [math.nan, 0.5]}),
        ("density", {"matrix": K8_SOURCE, "trials": 5, "eta_grid": [math.inf]}),
    ],
    ids=["list", "no-matrix", "string-trials", "null-seed", "string-n", "negative-graph-seed",
         "nan-threshold", "infinite-threshold", "nan-eta", "infinite-eta"],
)
def test_malformed_experiment_config_exits_2(runner, tmp_path, kind, config):
    res = run_experiment(runner, tmp_path, kind, config)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("input error:")
    key = {"sv-tail": "thresholds", "density": "eta_grid"}[kind]
    if key in config:
        assert res.stderr.startswith(f"input error: {key!r} must be a list of finite numbers")


COMPLETE_FAMILY = {"kind": "complete", "ns": [4]}


@pytest.mark.parametrize(
    "kind, config, key",
    [
        ("sv-tail", {"matrix": K8_SOURCE, "trials": 5, "tresholds": [0.1]}, "tresholds"),
        ("sv-tail", {"matrix": K8_SOURCE, "trials": 5, "eta_grid": [0.1]}, "eta_grid"),
        ("density", {"matrix": K8_SOURCE, "trials": 5, "thresholds": [0.1]}, "thresholds"),
        ("density", {"matrix": K8_SOURCE, "family": COMPLETE_FAMILY}, "family"),
        ("concentration", {"family": COMPLETE_FAMILY, "trials": 5}, "trials"),
        ("concentration", {"family": COMPLETE_FAMILY, "matrix": K8_SOURCE}, "matrix"),
        ("density", {"matrix": {"kind": "file", "path": "k4.mat", "n": 4}}, "n"),
        ("density", {"matrix": {"kind": "complete", "n": 4, "graph_seed": 1}}, "graph_seed"),
        ("density", {"matrix": {"kind": "random_regular", "n": 8, "d": 3, "n_center": 3}}, "n_center"),
        ("density", {"matrix": {"kind": "counterexample", "delta": 0.1, "n_center": 3, "path": "x"}}, "path"),
        ("concentration", {"family": {**COMPLETE_FAMILY, "delta": 0.1}}, "delta"),
        ("concentration", {"family": {"kind": "counterexample", "n_centers": [4], "ns": [4]}}, "ns"),
    ],
    ids=["sv-tail-misspelt", "sv-tail-eta-grid", "density-thresholds", "density-family",
         "concentration-trials", "concentration-matrix", "file-source", "complete-source",
         "random-regular-source", "counterexample-source", "complete-family", "counterexample-family"],
)
def test_experiment_config_refuses_keys_it_does_not_read(runner, tmp_path, kind, config, key):
    res = run_experiment(runner, tmp_path, kind, config)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"input error: unknown key {key!r} in ")


@pytest.mark.parametrize("scaled", ["false", "true", 0, 1, None, [True]])
def test_matrix_source_scaled_must_be_a_boolean(runner, tmp_path, scaled):
    config = {"matrix": {"kind": "complete", "n": 4, "scaled": scaled}, "trials": 3, "eta_grid": [0.5]}
    res = run_experiment(runner, tmp_path, "density", config)
    assert res.exit_code == 2
    assert res.stderr == f"input error: 'scaled' must be true or false, got {scaled!r}\n"


def test_matrix_source_scaled_on_every_kind(runner, tmp_path):
    io.write_matrix(tmp_path / "k4.mat", complete_graph(4).sym_matrix())
    sources = [{"kind": "file", "path": str(tmp_path / "k4.mat")}, {"kind": "complete", "n": 4},
               {"kind": "random_regular", "n": 4, "d": 3}]
    for source in sources:
        for scaled, max_entry in ((False, 1.0), (True, 1 / 3)):
            config = {"matrix": {**source, "scaled": scaled}, "trials": 3, "eta_grid": [0.5]}
            res = run_experiment(runner, tmp_path, "density", config)
            assert res.exit_code == 0, res.stderr
            assert json.loads(res.output)["report"]["max_entry"] == pytest.approx(max_entry, rel=1e-9)
    cx = {"kind": "counterexample", "delta": 0.1, "n_center": 3, "m_pairs": 1, "scaled": False}
    assert run_experiment(runner, tmp_path, "density", {"matrix": cx, "trials": 3}).exit_code == 0


def test_check_delta_needs_weak(runner, files):
    res = runner.invoke(
        main,
        ["check", "--graph", str(files / "k8.edges"), "--kappa", "0.1", "--level", "2", "--delta", "0.1"],
    )
    assert res.exit_code == 2
    assert res.stderr == "input error: --delta requires --weak\n"


ESTIMATE_KEYS = [
    "manifest", "n", "num_samples", "seed", "mean_det_log", "logdet_mean", "logdet_std",
    "logdet_quantiles", "num_zero_det",
]


def test_report_key_order(runner, files, tmp_path):
    args = ["estimate", "--matrix", str(files / "k8.mat"), "--samples", "50", "--seed", "1"]
    assert list(json.loads(runner.invoke(main, args).output)) == ESTIMATE_KEYS
    assert list(json.loads(runner.invoke(main, args + ["--exact"]).output)) == ESTIMATE_KEYS + [
        "exact_log_haf", "error_median", "error_max",
    ]
    res = runner.invoke(main, ["counterexample", "--n-center", "4", "--m-pairs", "1", "--samples", "50"])
    assert list(json.loads(res.output)) == [
        "manifest", "total_vertices", "n_center", "m_pairs", "delta", "log_haf", "mean_det_log",
        "logdet_quantiles", "median_signed_error", "fraction_below",
    ]
    reports = {
        kind: json.loads(run_experiment(runner, tmp_path, kind, config).output)["report"]
        for kind, config in EXPERIMENT_CONFIGS.items()
    }
    assert list(reports["sv-tail"]) == [
        "n", "trials", "seed", "cdf", "median_smallest_singular", "fitted_exponent",
    ]
    assert list(reports["density"]) == ["n", "trials", "seed", "max_entry", "rows"]
    assert all(list(row) == ["eta", "mean_count", "max_count", "ratio"] for row in reports["density"]["rows"])
    assert list(reports["concentration"]) == [
        "family", "samples_per_member", "seed", "rows", "fitted_exponent", "r_squared",
    ]
    assert all(
        list(row) == ["size", "median_abs_error", "q90_abs_error", "median_signed_error"]
        for row in reports["concentration"]["rows"]
    )


def test_schema_and_version(runner):
    res = runner.invoke(main, ["--schema"])
    assert res.exit_code == 0
    schema = json.loads(res.output)
    assert "manifest" in schema["properties"]
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert hafkit.__version__ in res.output


def test_readme_examples_use_only_existing_options():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").replace("\\\n", " ")
    examples = [ln.split("#")[0].split() for ln in text.splitlines() if ln.startswith("hafkit ")]
    assert len(examples) >= 12
    for words in examples:
        command = main.commands.get(words[1], main)
        known = {opt for p in command.params for opt in p.opts + p.secondary_opts}
        used = {w for w in words if w.startswith("--")}
        assert used <= known, f"{' '.join(words)}: {sorted(used - known)}"


def _validate(doc, schema):
    """Minimal structural validation against the published schema subset."""
    assert isinstance(doc, dict)
    for key in schema["required"]:
        assert key in doc, f"missing {key}"
    man = doc["manifest"]
    man_schema = schema["properties"]["manifest"]
    for key in man_schema["required"]:
        assert key in man, f"manifest missing {key}"
    assert isinstance(man["tool_version"], str)
    assert isinstance(man["subcommand"], str)
    assert isinstance(man["full_config"], dict)
    assert man["seed"] is None or isinstance(man["seed"], int)
    assert isinstance(man["timing_ms"], int)


def _every_report(runner, files):
    """(arguments, report) of each subcommand, for each set of optional keys it prints."""
    k8m, k8e = str(files / "k8.mat"), str(files / "k8.edges")
    estimate = ["estimate", "--matrix", k8m, "--samples", "50", "--seed", "1"]
    calls = [
        ["exact", "--graph", k8e],
        ["exact", "--matrix", k8m],
        estimate,
        estimate + ["--exact", "--threads", "2"],
        ["estimate", "--exact", "--seed", "2", "--samples", "20", "--matrix", k8m],
        ["scale", "--matrix", k8m],
        ["scale", "--nu", "1", "--matrix", k8m, "--theta", "0.5"],
        ["check", "--graph", k8e, "--kappa", "0.2", "--level", "3"],
        ["check", "--graph", k8e, "--kappa", "0.1", "--weak", "--delta", "0.2", "--mode", "sampled"],
        ["hypotheses", "--matrix", k8m, "--alpha", "0.3", "--kappa", "0.1", "--beta", "2",
         "--theta", "0.2", "--scale"],
        ["counterexample", "--n-center", "4", "--m-pairs", "1", "--samples", "50"],
        ["counterexample", "--samples", "50", "--n-center", "20", "--threads", "2"],
    ]
    reports = [(args, json.loads(runner.invoke(main, args).output)) for args in calls]
    for kind, config in EXPERIMENT_CONFIGS.items():
        args = ["experiment", kind, "--config", str(files / f"{kind}.json")]
        reports.append((args, json.loads(run_experiment(runner, files, kind, config).output)))
    return reports


def test_all_reports_validate_against_schema(runner, files):
    schema = json.loads(runner.invoke(main, ["--schema"]).output)
    defs = schema["$defs"]
    for args, doc in _every_report(runner, files):
        _validate(doc, schema)
        for key in defs[args[0]]["required"]:
            assert key in doc, f"{args[0]} report missing {key}"


# keys a report may print past its schema's required ones: estimate's under
# --exact and scale's with an audit bound
OPTIONAL_KEYS = {
    "estimate": ["exact_log_haf", "error_median", "error_max"],
    "scale": ["audit"],
}


def test_reports_print_exactly_their_schema_keys(runner, files):
    defs = json.loads(runner.invoke(main, ["--schema"]).output)["$defs"]
    for args, doc in _every_report(runner, files):
        name = args[0]
        keys = list(doc)
        assert keys[0] == "manifest"
        assert [k for k in keys[1:] if k not in OPTIONAL_KEYS.get(name, ())] == defs[name]["required"], name
    assert defs["counterexample"]["required"][5] == "mean_det_log"
    assert defs["scale"]["required"][0] == "n"
    assert defs["hypotheses"]["required"][:2] == ["n", "level"]


def test_full_config_is_every_declared_option_but_threads(runner, files):
    reports = _every_report(runner, files)
    for args, doc in reports:
        name = args[0]
        manifest = doc["manifest"]
        config = manifest["full_config"]
        assert manifest["subcommand"] == name
        assert manifest["seed"] == config.get("seed")
        if name == "exact":
            assert config == {args[1][2:]: args[2]}
        elif name == "experiment":
            resolved = experiments.resolve(args[1], EXPERIMENT_CONFIGS[args[1]])
            assert list(config.items()) == [("kind", args[1]), *resolved.items()]
        else:
            declared = [p.name for p in main.commands[name].params if p.name != "threads"]
            assert list(config) == declared, args
    # declaration order whatever the command line's, with resolved defaults
    by_args = {tuple(args): doc["manifest"]["full_config"] for args, doc in reports}
    k8m = str(files / "k8.mat")
    assert by_args[("estimate", "--exact", "--seed", "2", "--samples", "20", "--matrix", k8m)] == {
        "matrix": k8m, "samples": 20, "seed": 2, "quantiles": [0.05, 0.25, 0.5, 0.75, 0.95], "exact": True,
    }
    assert by_args[("scale", "--nu", "1", "--matrix", k8m, "--theta", "0.5")] == {
        "matrix": k8m, "residual": 1 / 8, "max_iter": 10_000, "theta": 0.5, "nu": 1.0, "emit_b": None,
    }
    assert by_args[("counterexample", "--samples", "50", "--n-center", "20", "--threads", "2")] == {
        "delta": 0.12, "n_center": 20, "m_pairs": 1, "samples": 50, "seed": 0, "emit_graph": None,
    }
