"""Serialization: dense CSV matrices, sparse TSV edge lists, model dicts.

Matrices round-trip through 17-significant-digit decimals: the CSV bytes
equal ``np.savetxt``'s with ``fmt="%.17g"``, but only the nonzero cells are
formatted and the file is written one row at a time.  Edge lists store
1-indexed (row, col, weight) triples with zeros omitted and a shape header
so empty trailing rows or columns survive the round trip.
"""

from __future__ import annotations

import warnings

import numpy as np

from .ingest import EdgeListError, _fields, _weight
from .model import ModelSpec
from .sampler import PARAM_KINDS, EdgeDistribution

SHAPE_HEADER = "% shape:"


def save_matrix_csv(M: np.ndarray, path) -> None:
    """Write ``M`` (1-D as one row) as comma-separated ``"%.17g"`` decimals.

    The bytes equal ``np.savetxt(path, M, fmt="%.17g", delimiter=",")``'s.
    Only the nonzero cells are formatted (``nan`` and ``inf`` among them); a
    zero is written ``0`` and a negative zero ``-0``.  The file is written
    one row at a time, so the whole text is never held in memory.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="\n") as fh:
        for row in M:
            cells = ["0"] * len(row)
            for j in np.flatnonzero(np.signbit(row)).tolist():
                cells[j] = "-0"  # a nonzero negative cell is overwritten below
            nonzero = np.flatnonzero(row)
            for j, value in zip(nonzero.tolist(), row[nonzero].tolist()):
                cells[j] = "%.17g" % value
            fh.write(",".join(cells) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense CSV matrix; a file with no data rows raises ``ValueError`` naming it."""
    with warnings.catch_warnings():  # numpy warns on an empty file; the error below says more
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    if M.shape[0] == 0:
        raise ValueError(f"{path} holds no matrix rows")
    return M


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
    shape, a repeated position, a second header, and a malformed header or
    weight each raise ``EdgeListError`` naming the line.
    """
    shape = None
    cells = {}
    for lineno, fields in _fields(path, "tsv", (3,), header=SHAPE_HEADER):
        if fields[0] == SHAPE_HEADER:
            if shape is not None:
                raise EdgeListError(f"line {lineno}: a second shape header")
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


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def json_value(value, kind: type, what: str):
    """``value`` if its JSON type is that of ``kind``; else ``ValueError`` naming both types."""
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    if got != _JSON_TYPES[kind]:
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, got {got}")
    return value


def json_field(data: dict, key: str, kind: type, where: str):
    """``data[key]``, checked by ``json_value``; a missing key raises ``ValueError`` naming it."""
    if key not in data:
        raise ValueError(f"{where} has no key {key!r}")
    return json_value(data[key], kind, f"{where}'s {key!r}")


def json_keys(data: dict, known, where: str) -> None:
    """Raise ``ValueError`` naming every key of ``data`` outside ``known``."""
    unknown = ", ".join(repr(key) for key in data if key not in known)
    if unknown:
        raise ValueError(f"{where} takes only the keys {', '.join(known)}; got {unknown}")


def _json_numbers(value, what: str):
    """``value``, nested lists whose every entry is a JSON number; else ``ValueError``."""
    for item in value:
        if isinstance(item, list):
            _json_numbers(item, what)
        else:
            json_value(item, float, f"an entry of {what}")
    return value


def spec_from_dict(data: dict) -> ModelSpec:
    """Model spec from ``spec_to_dict``'s layout; ``n_r``, ``n_c`` and ``K`` may be left out.

    A key outside that layout, at the top or in ``dist``, a missing key, a
    value of the wrong JSON type (every matrix entry and shape parameter
    must be a number), and an ``n_r``, ``n_c`` or ``K`` that contradicts
    ``P``, ``Pi_r`` and ``Pi_c`` raise ``ValueError``.
    """
    where = "the model spec"
    json_keys(data, ("n_r", "n_c", "K", "rho", "P", "Pi_r", "Pi_c", "dist"), where)
    dist = json_field(data, "dist", dict, where)
    json_keys(dist, ("kind", *PARAM_KINDS), f"{where}'s 'dist'")
    json_field(dist, "kind", str, f"{where}'s 'dist'")
    for param in PARAM_KINDS:
        if param in dist:
            json_field(dist, param, float, f"{where}'s 'dist'")
    matrices = {key: _json_numbers(json_field(data, key, list, where), f"{where}'s {key!r}")
                for key in ("P", "Pi_r", "Pi_c")}
    spec = ModelSpec(
        rho=json_field(data, "rho", float, where),
        dist=EdgeDistribution.from_dict(dist),
        **matrices,
    )
    for key, size in (("n_r", spec.n_r), ("n_c", spec.n_c), ("K", spec.K)):
        if key in data and data[key] != size:
            raise ValueError(f"{where}'s {key}={data[key]!r} contradicts its matrices' {size}")
    return spec
