"""Edge-list ingestion for real-world directed weighted networks.

Files are plain text with 2 or 3 columns per line (source, target, optional
weight; a 2-column line weighs 1); comment lines starting with '%' or '#'
are skipped.  Node ids are arbitrary tokens.  An ``EdgeList`` holds each
(source, target) pair once, so duplicates are resolved only at load.  Its
nodes are its edges' endpoints in first-appearance order, so no node is
isolated and rows and columns share one numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DUPLICATE_POLICIES = ("error", "sum")


class EdgeListError(ValueError):
    """Malformed edge-list input."""


@dataclass(frozen=True)
class EdgeList:
    """Weighted (source, target, weight) edges; the nodes are their endpoints.

    Each (source, target) pair appears at most once; a repeat raises
    ``EdgeListError`` when the list is built.
    """

    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        pairs = [(src, tgt) for src, tgt, _ in self.edges]
        if len(set(pairs)) < len(pairs):
            src, tgt = _first_repeat(pairs)
            raise EdgeListError(f"duplicate edge {src!r} -> {tgt!r}")

    @cached_property
    def nodes(self) -> tuple:
        """Every endpoint once, source before target, in edge order; computed once per list."""
        return tuple(dict.fromkeys(node for src, tgt, _ in self.edges for node in (src, tgt)))


def _first_repeat(items):
    seen = set()
    return next(item for item in items if item in seen or seen.add(item))  # add() gives None


def _parse_token(token: str):
    try:
        value = int(token)
    except ValueError:
        return token
    return value if str(value) == token else token


def _fields(path, format: str):
    """Yield ``(line number, fields)`` for each data line of an edge-list file.

    Blank lines and comments (starting with '%' or '#') are skipped.  A data
    line splits on whitespace (``format='tsv'``) or commas (``'csv'``) and
    must have 2 or 3 fields.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith(("%", "#")):
                parts = [p.strip() for p in line.split(",")] if format == "csv" else line.split()
                if len(parts) not in (2, 3):
                    raise EdgeListError(
                        f"line {lineno}: expected 2 or 3 columns, got {len(parts)}: {line!r}"
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
    ids: dict = {}  # token -> node id; distinct tokens, distinct ids
    weights: dict = {}
    for lineno, parts in _fields(path, format):
        for token in parts[:2]:
            if token not in ids:
                if not token:
                    raise EdgeListError(f"line {lineno}: empty node id")
                ids[token] = _parse_token(token)
        src, tgt = ids[parts[0]], ids[parts[1]]
        weight = _weight(lineno, parts[2] if len(parts) == 3 else 1.0)
        if (src, tgt) in weights:
            if duplicates == "error":
                raise EdgeListError(f"line {lineno}: duplicate edge {src!r} -> {tgt!r}")
            weight += weights[src, tgt]
        weights[src, tgt] = weight
    edges = tuple((s, t, w) for (s, t), w in weights.items())
    return EdgeList(edges)


def to_dense(edge_list: EdgeList):
    """Dense adjacency matrix with A[i, j] = weight of edge i -> j, else 0.

    Rows and columns are both numbered in ``edge_list.nodes`` order.
    """
    index = {node: i for i, node in enumerate(edge_list.nodes)}
    A = np.zeros((len(index), len(index)))
    rows = [index[src] for src, _, _ in edge_list.edges]
    cols = [index[tgt] for _, tgt, _ in edge_list.edges]
    A[rows, cols] = [w for _, _, w in edge_list.edges]
    return A


def summarize(edge_list: EdgeList) -> dict:
    """Node count, edge count, matrix-wide weight range, share of positive edges.

    The range is that of ``to_dense``'s matrix, read from the edge weights
    (plus 0 if a cell is empty) without building it; a zero end reads 0.0.
    """
    n, n_edges = len(edge_list.nodes), len(edge_list.edges)
    positive = sum(1 for _, _, w in edge_list.edges if w > 0)
    weights = [w for _, _, w in edge_list.edges] + ([0.0] if n_edges < n * n else [])
    return {
        "n": n,
        "n_rows": n,
        "n_cols": n,
        "edges": n_edges,
        "min_weight": float(np.min(weights)) + 0.0 if weights else 0.0,
        "max_weight": float(np.max(weights)) + 0.0 if weights else 0.0,
        "pct_positive_edges": 100.0 * positive / n_edges if n_edges else 0.0,
    }
