"""Edge-list ingestion for real-world directed weighted networks.

Files are plain text with 2 or 3 columns per line (source, target, optional
weight; a 2-column line weighs 1); comment lines starting with '%' or '#'
are skipped.  Node ids are arbitrary tokens, numbered by first appearance,
source before target, so no node is isolated and rows and columns share one
numbering.  Each (source, target) pair is one cell of the dense matrix, so
duplicates are resolved while the file is read.
"""

from __future__ import annotations

import math

import numpy as np

DUPLICATE_POLICIES = ("error", "sum")


class EdgeListError(ValueError):
    """Malformed edge-list input."""


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


def _weight(lineno: int, token: str) -> float:
    try:
        if "_" in token:  # float() reads 1_0 as 10; the dense CSV reader rejects it
            raise ValueError(token)
        return float(token)
    except ValueError:
        raise EdgeListError(f"line {lineno}: unparsable weight {token!r}") from None


def load_edge_list(path, format: str = "tsv", duplicates: str = "error") -> tuple[np.ndarray, int]:
    """Parse an edge-list file into ``(A, edges)``; a 2-column line is an edge of weight 1.

    ``A`` is the square dense matrix with ``A[i, j]`` the weight of edge
    i -> j, else 0, its rows and columns both numbered in the order the node
    tokens first appear; ``edges`` is the number of distinct (source, target)
    pairs.  ``format='tsv'`` splits on whitespace, ``'csv'`` on commas.
    Duplicate pairs are resolved per the declared policy.  A weight that is
    not finite, a sum of repeats among them, and a file with no edge lines
    are errors.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"format must be 'tsv' or 'csv', got {format!r}")
    if duplicates not in DUPLICATE_POLICIES:
        raise ValueError(f"duplicates must be one of {DUPLICATE_POLICIES}")
    ids: dict = {}  # token -> row and column index
    weights: dict = {}  # (row, column) -> weight
    for lineno, parts in _fields(path, format):
        for token in parts[:2]:
            if token not in ids:
                if not token:
                    raise EdgeListError(f"line {lineno}: empty node id")
                ids[token] = len(ids)
        cell = ids[parts[0]], ids[parts[1]]
        weight = _weight(lineno, parts[2] if len(parts) == 3 else "1")
        if cell in weights:
            if duplicates == "error":
                raise EdgeListError(f"line {lineno}: duplicate edge {parts[0]} -> {parts[1]}")
            weight += weights[cell]
        if not math.isfinite(weight):  # two finite weights can sum past the float range
            raise EdgeListError(f"line {lineno}: non-finite weight {weight!r}")
        weights[cell] = weight
    if not weights:
        raise EdgeListError(f"{path} holds no edges")
    A = np.zeros((len(ids), len(ids)))
    rows, cols = zip(*weights)
    A[rows, cols] = list(weights.values())
    return A, len(weights)


def summarize(A: np.ndarray, edges: int) -> dict:
    """Node count, edge count, weight range of ``A``, share of positive edges.

    ``A`` and ``edges`` are what ``load_edge_list`` returns: each edge is one
    cell, so the positive cells are the positive edges.  The range takes in
    the empty cells' 0, and a zero end reads 0.0, never -0.0.
    """
    n = len(A)
    return {
        "n": n,
        "n_rows": n,
        "n_cols": n,
        "edges": edges,
        "min_weight": float(A.min()) + 0.0,
        "max_weight": float(A.max()) + 0.0,
        "pct_positive_edges": 100.0 * np.count_nonzero(A > 0) / edges,
    }
