"""Serialization: dense CSV matrices, sparse TSV edge lists, model dicts.

Matrices round-trip through 17-significant-digit decimals; edge lists store
1-indexed (row, col, weight) triples with zeros omitted and a shape header
so empty trailing rows or columns survive the round trip.
"""

from __future__ import annotations

import numpy as np

from .ingest import EdgeListError, _fields, _weight
from .model import ModelSpec
from .sampler import EdgeDistribution

SHAPE_HEADER = "% shape:"


def save_matrix_csv(M: np.ndarray, path) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    np.savetxt(path, M, fmt="%.17g", delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_edges_tsv(A: np.ndarray, path) -> None:
    """Write a dense matrix as ``row<TAB>col<TAB>weight`` lines, 1-indexed.

    A non-finite entry raises ``ValueError`` before the file is opened.
    """
    A = np.asarray(A, dtype=float)
    bad = np.argwhere(~np.isfinite(A))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"A[{i}, {j}] = {float(A[i, j])!r}: edge weights must be finite")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{SHAPE_HEADER} {A.shape[0]} {A.shape[1]}\n")
        for i, j in zip(*np.nonzero(A)):
            fh.write(f"{i + 1}\t{j + 1}\t{float(A[i, j])!r}\n")


def _int_pair(lineno: int, tokens: list, what: str, minimum: int) -> tuple[int, int]:
    try:
        i, j = map(int, tokens)
    except ValueError:  # not two integers
        pass
    else:
        if i >= minimum and j >= minimum:
            return i, j
    raise EdgeListError(
        f"line {lineno}: {what} must be two integers >= {minimum}, got {' '.join(tokens)!r}"
    )


def load_edges_tsv(path) -> np.ndarray:
    """Read a TSV edge list back into a dense matrix.

    The shape header is honored when present; otherwise the matrix is sized
    by the largest indices encountered.  A position below 1 or outside the
    shape, a repeated position, and a malformed header or weight each raise
    ``EdgeListError`` naming the line.
    """
    shape = None
    cells = {}
    for lineno, fields in _fields(path, "tsv", (3,), header=SHAPE_HEADER):
        if fields[0] == SHAPE_HEADER:
            shape = _int_pair(lineno, fields[1:], "shape", minimum=0)
            continue
        position = _int_pair(lineno, fields[:2], "position", minimum=1)
        if position in cells:
            raise EdgeListError(f"line {lineno}: duplicate position {position}")
        cells[position] = (lineno, _weight(lineno, fields[2]))
    if shape is None:
        if not cells:
            raise EdgeListError("edge list is empty and carries no shape header")
        shape = tuple(max(position[axis] for position in cells) for axis in (0, 1))
    A = np.zeros(shape)
    for (i, j), (lineno, weight) in cells.items():
        if i > shape[0] or j > shape[1]:
            raise EdgeListError(f"line {lineno}: position ({i}, {j}) outside the shape {shape}")
        A[i - 1, j - 1] = weight
    return A


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "n_r": spec.n_r,
        "n_c": spec.n_c,
        "K": spec.K,
        "rho": spec.rho,
        "P": spec.P.tolist(),
        "Pi_r": spec.Pi_r.tolist(),
        "Pi_c": spec.Pi_c.tolist(),
        "dist": spec.dist.to_dict(),
    }


def spec_from_dict(data: dict) -> ModelSpec:
    return ModelSpec(
        P=np.asarray(data["P"], dtype=float),
        rho=float(data["rho"]),
        Pi_r=np.asarray(data["Pi_r"], dtype=float),
        Pi_c=np.asarray(data["Pi_c"], dtype=float),
        dist=EdgeDistribution.from_dict(data["dist"]),
    )
