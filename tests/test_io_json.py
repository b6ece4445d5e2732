import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

from hafkit import CounterexampleSpec, GraphEdgeList, InputError, SymMatrix, build_counterexample, complete_graph
from hafkit import io, jsonout


def test_matrix_roundtrip(tmp_path):
    a = complete_graph(6).sym_matrix()
    path = tmp_path / "m.mat"
    io.write_matrix(path, a)
    back = io.read_symmetric_matrix(path)
    assert np.array_equal(back.entries, a.entries)


def test_matrix_roundtrip_preserves_floats(tmp_path):
    rng = np.random.default_rng(1)
    n = 5
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = rng.random(iu[0].size)
    a += a.T
    path = tmp_path / "w.mat"
    io.write_matrix(path, SymMatrix(a))
    back = io.read_symmetric_matrix(path)
    assert np.array_equal(back.entries, a)  # 17 significant digits round-trip


def test_matrix_writes_each_entry_as_format_17g(tmp_path):
    # the text is that of one format(x, ".17g") per entry, signed zeros,
    # subnormals and huge values included
    rng = np.random.default_rng(19)
    special = np.array([[0.0, -0.0, 0.1], [1e-320, 1e300, -2.5], [math.pi, 3.0, -1e-300]])
    for k, arr in enumerate((special, rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7)))):
        path = tmp_path / f"m{k}.mat"
        io.write_matrix(path, arr)
        want = f"{arr.shape[0]}\n" + "".join(" ".join(format(x, ".17g") for x in row) + "\n" for row in arr)
        assert path.read_bytes() == want.encode("utf-8")


def test_matrix_parse_errors(tmp_path):
    cases = [
        "",  # empty
        "x\n",  # bad dimension
        "2\n0 1\n",  # missing row
        "2\n0 1 2\n1 0\n",  # wrong row length
        "2\n0 q\n1 0\n",  # bad number
        "2\n0 1\n2 0\n",  # asymmetric (for symmetric reader)
        "2\n1 0\n0 1\n",  # nonzero diagonal
    ]
    for k, text in enumerate(cases):
        path = tmp_path / f"bad{k}.mat"
        path.write_text(text)
        with pytest.raises(InputError):
            io.read_symmetric_matrix(path)
    with pytest.raises(InputError):
        io.read_symmetric_matrix(tmp_path / "missing.mat")


def test_edge_list_roundtrip(tmp_path):
    g = GraphEdgeList.from_pairs(5, [(0, 1), (1, 2), (3, 4)])
    path = tmp_path / "g.edges"
    io.write_edge_list(path, g)
    back = io.read_edge_list(path)
    assert back.n == 5 and back.edges == g.edges


def test_counterexample_edge_list_roundtrips_byte_for_byte(tmp_path):
    spec = CounterexampleSpec(delta=0.12, n_center=3, m_pairs=1)
    io.write_edge_list(tmp_path / "cx.edges", build_counterexample(spec))
    text = (tmp_path / "cx.edges").read_text()
    # the center clique, every center vertex to every outer one, the pair
    want = ["8 19", "0 1", "0 2"] + [f"0 {p}" for p in range(3, 8)] + ["1 2"] + [f"1 {p}" for p in range(3, 8)]
    assert text == "\n".join(want + [f"2 {p}" for p in range(3, 8)] + ["6 7"]) + "\n"
    io.write_edge_list(tmp_path / "again.edges", io.read_edge_list(tmp_path / "cx.edges"))
    assert (tmp_path / "again.edges").read_text() == text


def test_edge_list_errors_name_the_first_bad_line(tmp_path):
    cases = [
        ("3 3\n0 1\n1 1\n1 0\n", "edge line 1 is a self-loop"),
        ("3 3\n0 2\n1 2\n2 0\n", r"duplicate edge \(0, 2\)"),
        ("3 3\n0 1\n1 0\nx y\n", r"duplicate edge \(0, 1\)"),
        ("3 3\n0 1\nx y\n1 1\n", "edge line 1 must be 'u v'"),
        ("3 2\n7 0\n1 2\n", r"edge \(0, 7\) out of range for n=3"),
        (f"3 2\n5 {10**20}\n{10**20} 5\n", rf"duplicate edge \(5, {10**20}\)"),
        (f"3 1\n0 {2**63}\n", rf"edge \(0, {2**63}\) out of range"),
    ]
    for k, (text, message) in enumerate(cases):
        path = tmp_path / f"bad{k}.edges"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            io.read_edge_list(path)


def test_edge_list_parse_errors(tmp_path):
    cases = [
        "",  # empty
        "3\n",  # missing m
        "3 2\n0 1\n",  # wrong edge count
        "3 1\n0 0\n",  # self-loop
        "3 2\n0 1\n1 0\n",  # duplicate (reversed)
        "3 1\n0 7\n",  # out of range
        "3 1\n0\n",  # malformed edge
    ]
    for k, text in enumerate(cases):
        path = tmp_path / f"bad{k}.edges"
        path.write_text(text)
        with pytest.raises(InputError):
            io.read_edge_list(path)


def test_jsonout_floats():
    assert jsonout.format_float(-math.inf) == '"-inf"'
    assert jsonout.format_float(math.inf) == '"inf"'
    assert jsonout.format_float(math.nan) == '"nan"'
    assert jsonout.format_float(0.5) == "0.5"
    assert jsonout.format_float(0.1) == "0.10000000000000001"


def test_jsonout_roundtrips_through_json():
    doc = {
        "a": 1,
        "b": [1.5, -math.inf, "text"],
        "c": {"nested": True, "none": None},
        "q": {0.5: 2.0},
        "arr": np.array([1.0, 2.0]),
    }
    text = jsonout.dumps(doc)
    parsed = json.loads(text)
    assert parsed["a"] == 1
    assert parsed["b"] == [1.5, "-inf", "text"]
    assert parsed["c"] == {"nested": True, "none": None}
    assert parsed["q"] == {"0.5": 2.0}
    assert parsed["arr"] == [1.0, 2.0]


def test_jsonout_precision_is_full():
    x = 1.0 / 3.0
    assert float(json.loads(jsonout.dumps({"x": x}))["x"]) == x


def test_jsonout_deterministic():
    doc = {"z": 1, "a": [2.0, {"k": -0.0}]}
    assert jsonout.dumps(doc) == jsonout.dumps(doc)


def test_jsonout_string_escapes():
    s = 'quote " backslash \\ newline \n tab \t backspace \b form feed \f unit sep \x1f delta \u03b4'
    text = jsonout.dumps({"s": s})
    assert json.loads(text)["s"] == s
    # short escapes where JSON has them, \u00XX for other controls, non-ASCII as is
    assert jsonout.dumps("\b\f\x1f\u03b4") == '"\\b\\f\\u001f\u03b4"'


class _Row(NamedTuple):
    eta: float
    count: int


@dataclass(frozen=True)
class _Inner:
    ok: bool
    scratch: object = field(default=None, repr=False)  # not part of the report


@dataclass(frozen=True)
class _Outer:
    zeta: int
    quantiles: dict
    inner: _Inner
    rows: tuple
    pair: tuple


def test_jsonout_prints_records_as_objects_in_field_order():
    rep = _Outer(
        zeta=3,
        quantiles={0.5: -math.inf, 0.25: 1.5},
        inner=_Inner(ok=True, scratch=object()),
        rows=(_Row(0.1, 2), _Row(1.0, 5)),
        pair=(1, 2.5),
    )
    text = jsonout.dumps(rep)
    assert text == jsonout.dumps(
        {
            "zeta": 3,
            "quantiles": {0.5: -math.inf, 0.25: 1.5},
            "inner": {"ok": True},
            "rows": [{"eta": 0.1, "count": 2}, {"eta": 1.0, "count": 5}],
            "pair": [1, 2.5],
        }
    )
    parsed = json.loads(text)
    assert list(parsed) == ["zeta", "quantiles", "inner", "rows", "pair"]
    assert list(parsed["quantiles"].items()) == [("0.5", "-inf"), ("0.25", 1.5)]
    assert parsed["inner"] == {"ok": True}
    assert [list(r) for r in parsed["rows"]] == [["eta", "count"]] * 2
    assert parsed["pair"] == [1, 2.5]
    assert jsonout.dumps((1, 2.5)) == "[\n  1,\n  2.5\n]"
    assert jsonout.fields(_Row(0.1, 2)) == {"eta": 0.1, "count": 2}
    assert jsonout.fields(_Inner(ok=False, scratch=object())) == {"ok": False}
