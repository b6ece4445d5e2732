"""Text formats shared by the CLI and tests.

Matrix format: first line is the dimension n, followed by n lines of n
whitespace-separated decimal entries.  Graph format: first line is "n m",
followed by m lines "u v" with 0-based endpoints.  Structural invariants
(symmetry, zero diagonal, no duplicate edges) are enforced on read.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graphs import GraphEdgeList
from .linalg import SymMatrix

__all__ = [
    "read_symmetric_matrix",
    "write_matrix",
    "read_edge_list",
    "write_edge_list",
]


def _read_matrix_array(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise InputError(f"{path}: first line must be the dimension, got {lines[0]!r}")
    if n < 1:
        raise InputError(f"{path}: dimension must be >= 1")
    if len(lines) != n + 1:
        raise InputError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise InputError(f"{path}: row {k} has {len(parts)} entries, expected {n}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"{path}: row {k}: {exc}") from exc
    return np.array(rows)


def read_symmetric_matrix(path) -> SymMatrix:
    return SymMatrix(_read_matrix_array(path))


def write_matrix(path, matrix) -> None:
    arr = matrix.entries if hasattr(matrix, "entries") else np.asarray(matrix)
    # "%.17g" of a Python float is format(x, ".17g"); one format per row
    line = " ".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{arr.shape[0]}\n")
        for row in arr.tolist():
            fh.write(line % tuple(row))


def read_edge_list(path) -> GraphEdgeList:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"{path}: first line must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(f"{path}: first line must be 'n m', got {lines[0]!r}")
    if len(lines) != m + 1:
        raise InputError(f"{path}: expected {m} edges, found {len(lines) - 1}")
    seen = set()
    pairs = []
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"{path}: edge line {k} must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}: edge line {k} must be 'u v', got {ln!r}")
        if u == v:
            raise InputError(f"{path}: edge line {k} is a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"{path}: duplicate edge {key}")
        seen.add(key)
        pairs.append(key)
    return GraphEdgeList.from_pairs(n, pairs)


def write_edge_list(path, g: GraphEdgeList) -> None:
    edges = sorted(g.edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")
