"""Edge-list ingestion for real-world directed weighted networks.

Files are plain text with 2 or 3 columns per line (source, target, optional
weight); comment lines starting with '%' or '#' are skipped.  Node ids are
arbitrary tokens, interned in first-appearance order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DUPLICATE_POLICIES = ("error", "sum")


class EdgeListError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class EdgeList:
    """Weighted edges over a declared node universe.

    ``nodes`` may list ids beyond those referenced by edges (declared but
    isolated nodes); ``duplicate_policy`` says whether repeated (source,
    target) pairs are an error or summed.
    """

    edges: tuple = field(default_factory=tuple)
    nodes: tuple = field(default_factory=tuple)
    duplicate_policy: str = "error"

    def __post_init__(self):
        if self.duplicate_policy not in DUPLICATE_POLICIES:
            raise ValueError(f"duplicate policy must be one of {DUPLICATE_POLICIES}")
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "nodes", tuple(self.nodes))


def _parse_token(token: str):
    try:
        return int(token)
    except ValueError:
        return token


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


def load_edge_list(
    path, format: str = "tsv", weight_default: float = 1.0, duplicates: str = "error"
) -> EdgeList:
    """Parse an edge-list file; 2-column lines take ``weight_default``.

    ``format='tsv'`` splits on whitespace, ``'csv'`` on commas.  Duplicate
    (source, target) pairs are resolved here per the declared policy.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"format must be 'tsv' or 'csv', got {format!r}")
    if duplicates not in DUPLICATE_POLICIES:
        raise ValueError(f"duplicates must be one of {DUPLICATE_POLICIES}")
    nodes: dict = {}  # insertion-ordered set: first appearance as either endpoint
    weights: dict = {}
    for lineno, parts in _fields(path, format, (2, 3)):
        src, tgt = _parse_token(parts[0]), _parse_token(parts[1])
        weight = _weight(lineno, parts[2] if len(parts) == 3 else weight_default)
        nodes[src] = None
        nodes[tgt] = None
        key = (src, tgt)
        if key in weights:
            if duplicates == "error":
                raise EdgeListError(f"line {lineno}: duplicate edge {src!r} -> {tgt!r}")
            weights[key] += weight
        else:
            weights[key] = weight
    edges = tuple((s, t, w) for (s, t), w in weights.items())
    return EdgeList(edges=edges, nodes=tuple(nodes), duplicate_policy=duplicates)


def drop_isolated(edge_list: EdgeList) -> EdgeList:
    """Remove declared nodes that no edge touches as either endpoint.

    Idempotent; the surviving nodes keep their original relative order, so
    the next densification uses contiguous indices.
    """
    touched = set()
    for src, tgt, _ in edge_list.edges:
        touched.add(src)
        touched.add(tgt)
    nodes = tuple(n for n in edge_list.nodes if n in touched)
    return EdgeList(edges=edge_list.edges, nodes=nodes, duplicate_policy=edge_list.duplicate_policy)


def to_dense(edge_list: EdgeList, square: bool = True):
    """Dense adjacency matrix with A[i, j] = weight of edge i -> j, else 0.

    With ``square=True`` rows and columns share the declared node universe.
    Otherwise sources and targets are interned separately, in first
    appearance order, and only referenced ids get an index.
    """
    import numpy as np

    if square:
        index = {node: i for i, node in enumerate(edge_list.nodes)}
        row_index = col_index = index
        shape = (len(edge_list.nodes), len(edge_list.nodes))
    else:
        row_index, col_index = {}, {}
        for src, tgt, _ in edge_list.edges:
            if src not in row_index:
                row_index[src] = len(row_index)
            if tgt not in col_index:
                col_index[tgt] = len(col_index)
        shape = (len(row_index), len(col_index))
    A = np.zeros(shape)
    filled = set()
    for src, tgt, weight in edge_list.edges:
        if square and (src not in row_index or tgt not in col_index):
            raise EdgeListError(f"edge {src!r} -> {tgt!r} references an undeclared node")
        i, j = row_index[src], col_index[tgt]
        if (i, j) in filled:
            if edge_list.duplicate_policy == "error":
                raise EdgeListError(f"duplicate edge {src!r} -> {tgt!r}")
            A[i, j] += weight
        else:
            filled.add((i, j))
            A[i, j] = weight
    return A


def summarize(edge_list: EdgeList, square: bool = True) -> dict:
    """Node count, edge count, matrix-wide weight range, share of positive edges."""
    A = to_dense(edge_list, square=square)
    n_edges = len(edge_list.edges)
    positive = sum(1 for _, _, w in edge_list.edges if w > 0)
    return {
        "n": len(edge_list.nodes) if square else None,
        "n_rows": int(A.shape[0]),
        "n_cols": int(A.shape[1]),
        "edges": n_edges,
        "min_weight": float(A.min()) if A.size else 0.0,
        "max_weight": float(A.max()) if A.size else 0.0,
        "pct_positive_edges": 100.0 * positive / n_edges if n_edges else 0.0,
    }
