"""Edge-list ingestion for real-world directed weighted networks.

Files are plain text with 2 or 3 columns per line (source, target, optional
weight; a 2-column line weighs 1); comment lines starting with '%' or '#'
are skipped.  Node ids are arbitrary tokens, interned in first-appearance
order.  An ``EdgeList`` holds each (source, target) pair once, so
duplicates are resolved only at load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DUPLICATE_POLICIES = ("error", "sum")


class EdgeListError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class EdgeList:
    """Weighted edges over a declared node universe.

    ``nodes`` may list ids beyond those referenced by edges (declared but
    isolated nodes).  Each node and each (source, target) pair appears at
    most once; a repeat raises ``EdgeListError`` when the list is built.
    """

    edges: tuple = field(default_factory=tuple)
    nodes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        pairs = [(src, tgt) for src, tgt, _ in self.edges]
        if len(set(pairs)) < len(pairs):
            src, tgt = _first_repeat(pairs)
            raise EdgeListError(f"duplicate edge {src!r} -> {tgt!r}")
        if len(set(self.nodes)) < len(self.nodes):
            raise EdgeListError(f"duplicate node {_first_repeat(self.nodes)!r}")


def _first_repeat(items):
    seen = set()
    return next(item for item in items if item in seen or seen.add(item))  # add() gives None


def _parse_token(token: str):
    try:
        value = int(token)
    except ValueError:
        return token
    return value if str(value) == token else token


def _fields(path, format: str, columns: tuple, header: str = ""):
    """Yield ``(line number, fields)`` for each data line of an edge-list file.

    Blank lines and comments (starting with '%' or '#') are skipped, except a
    comment starting with ``header``, which yields ``header`` followed by the
    rest of its line split on whitespace.  A data line splits on whitespace
    (``format='tsv'``) or commas (``'csv'``) and must have a field count in
    ``columns``.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if header and line.startswith(header):
                yield lineno, [header, *line[len(header) :].split()]
            elif line and not line.startswith(("%", "#")):
                parts = [p.strip() for p in line.split(",")] if format == "csv" else line.split()
                if len(parts) not in columns:
                    raise EdgeListError(
                        f"line {lineno}: expected {' or '.join(map(str, columns))} columns, "
                        f"got {len(parts)}: {line!r}"
                    )
                yield lineno, parts


def _weight(lineno: int, token) -> float:
    try:
        weight = float(token)
    except ValueError:
        raise EdgeListError(f"line {lineno}: unparsable weight {token!r}") from None
    if not math.isfinite(weight):
        raise EdgeListError(f"line {lineno}: non-finite weight {weight!r}")
    return weight


def load_edge_list(path, format: str = "tsv", duplicates: str = "error") -> EdgeList:
    """Parse an edge-list file; a 2-column line is an edge of weight 1.

    ``format='tsv'`` splits on whitespace, ``'csv'`` on commas.  Duplicate
    (source, target) pairs are resolved here per the declared policy.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"format must be 'tsv' or 'csv', got {format!r}")
    if duplicates not in DUPLICATE_POLICIES:
        raise ValueError(f"duplicates must be one of {DUPLICATE_POLICIES}")
    nodes: dict = {}  # token -> node id by first appearance; distinct tokens, distinct ids
    weights: dict = {}
    for lineno, parts in _fields(path, format, (2, 3)):
        for token in parts[:2]:
            if token not in nodes:
                nodes[token] = _parse_token(token)
        src, tgt = nodes[parts[0]], nodes[parts[1]]
        weight = _weight(lineno, parts[2] if len(parts) == 3 else 1.0)
        if (src, tgt) in weights:
            if duplicates == "error":
                raise EdgeListError(f"line {lineno}: duplicate edge {src!r} -> {tgt!r}")
            weight += weights[src, tgt]
        weights[src, tgt] = weight
    edges = tuple((s, t, w) for (s, t), w in weights.items())
    return EdgeList(edges=edges, nodes=tuple(nodes.values()))


def drop_isolated(edge_list: EdgeList) -> EdgeList:
    """Remove declared nodes that no edge touches as either endpoint.

    Idempotent; the surviving nodes keep their original relative order, so
    the next densification uses contiguous indices.
    """
    touched = {node for src, tgt, _ in edge_list.edges for node in (src, tgt)}
    nodes = tuple(n for n in edge_list.nodes if n in touched)
    return EdgeList(edges=edge_list.edges, nodes=nodes)


def _cells(edge_list: EdgeList, square: bool):
    """Row and column index of each edge and the shape, numbered as ``to_dense`` says."""
    if square:
        row_index = col_index = {node: i for i, node in enumerate(edge_list.nodes)}
        shape = (len(edge_list.nodes), len(edge_list.nodes))
    else:
        row_index, col_index = {}, {}
        for src, tgt, _ in edge_list.edges:
            row_index.setdefault(src, len(row_index))
            col_index.setdefault(tgt, len(col_index))
        shape = (len(row_index), len(col_index))
    rows, cols = [], []
    for src, tgt, _ in edge_list.edges:
        if src not in row_index or tgt not in col_index:
            raise EdgeListError(f"edge {src!r} -> {tgt!r} references an undeclared node")
        rows.append(row_index[src])
        cols.append(col_index[tgt])
    return rows, cols, shape


def to_dense(edge_list: EdgeList, square: bool = True):
    """Dense adjacency matrix with A[i, j] = weight of edge i -> j, else 0.

    With ``square=True`` rows and columns share the declared node universe.
    Otherwise sources and targets are interned separately, in first
    appearance order, and only referenced ids get an index.
    """
    rows, cols, shape = _cells(edge_list, square)
    A = np.zeros(shape)
    A[rows, cols] = [w for _, _, w in edge_list.edges]
    return A


def summarize(edge_list: EdgeList, square: bool = True) -> dict:
    """Node count, edge count, matrix-wide weight range, share of positive edges.

    The range is that of ``to_dense``'s matrix, read from the edge weights
    (plus 0 if a cell is empty) without building it; a zero end reads 0.0.
    """
    _, _, (n_rows, n_cols) = _cells(edge_list, square)
    n_edges = len(edge_list.edges)
    positive = sum(1 for _, _, w in edge_list.edges if w > 0)
    weights = [w for _, _, w in edge_list.edges] + ([0.0] if n_edges < n_rows * n_cols else [])
    return {
        "n": len(edge_list.nodes) if square else None,
        "n_rows": n_rows,
        "n_cols": n_cols,
        "edges": n_edges,
        "min_weight": float(np.min(weights)) + 0.0 if weights else 0.0,
        "max_weight": float(np.max(weights)) + 0.0 if weights else 0.0,
        "pct_positive_edges": 100.0 * positive / n_edges if n_edges else 0.0,
    }
