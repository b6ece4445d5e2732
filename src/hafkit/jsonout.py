"""Deterministic JSON emission for CLI reports.

Floats are printed with 17 significant digits (full round-trip precision);
non-finite values become the strings "-inf", "inf", "nan" since bare JSON
has no spelling for them.  Dict insertion order is preserved, so identical
report structures serialize to identical bytes.  A dataclass instance or a
NamedTuple prints as the object of its fields, in declaration order, so a
result type is its own report.  A dataclass field declared with
``repr=False`` is not part of the report.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

__all__ = ["dumps", "fields", "format_float"]


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(x, ".17g")


def fields(record) -> dict:
    """The report fields of a dataclass instance or a NamedTuple, in declaration order."""
    if isinstance(record, tuple):
        return record._asdict()
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.repr}


def _escape(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _key(k) -> str:
    if isinstance(k, str):
        return _escape(k)
    if isinstance(k, (float, np.floating)):
        return _escape(repr(float(k)))
    raise TypeError(f"unsupported JSON key type {type(k)!r}")


def _emit(obj, indent: int, pieces: list):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(_escape(obj))
    elif (isinstance(obj, tuple) and hasattr(obj, "_fields")) or (
        dataclasses.is_dataclass(obj) and not isinstance(obj, type)
    ):
        _emit(fields(obj), indent, pieces)
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        keyed = isinstance(obj, dict)
        opening, closing = "{}" if keyed else "[]"
        items = list(obj.items() if keyed else enumerate(obj))
        if not items:
            pieces.append(opening + closing)
            return
        pieces.append(opening + "\n")
        for i, (k, v) in enumerate(items):
            pieces.append(inner + (_key(k) + ": " if keyed else ""))
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i < len(items) - 1 else "\n")
        pieces.append(pad + closing)
    else:
        raise TypeError(f"unsupported JSON value type {type(obj)!r}")


def dumps(obj) -> str:
    pieces: list = []
    _emit(obj, 0, pieces)
    return "".join(pieces)
