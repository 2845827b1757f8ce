"""Serialization: dense CSV matrices; the one reader of model and sweep-plan JSON documents.

Dense CSV matrices are mostly zeros, so both directions touch only the
cells that are not the single character ``0``.  The writer splices each
row's nonzero cells into one cached all-zero row, and its bytes equal
``np.savetxt``'s with ``fmt="%.17g"``.  The reader takes the file in chunks
of whole lines, finds every cell's delimiters in one vectorized pass per
chunk and parses only the cells that are not ``0``; its result equals
``np.loadtxt(path, delimiter=",", ndmin=2)``'s bit for bit, and on a
sparse matrix it holds little more than that result and one chunk.  This
is the one adjacency format ``bimix fit`` and ``bimix estimate-k`` read,
whatever the file's name; an edge list of node tokens becomes one through
``bimix ingest``.

The JSON readers check only keys and objects: a document's keys, unknown
ones first, then missing ones, and that each object they read keys from is
one.  Every value is checked by the constructor that owns it: ``ModelSpec``
rho and each matrix, ``EdgeDistribution`` the kind and a shape parameter,
and ``SweepPlan`` the axis, grid, replicate count, seed and name.
"""

from __future__ import annotations

import json

import numpy as np

from .harness import SweepPlan
from .model import ModelSpec
from .sampler import PARAM_KINDS, EdgeDistribution

CHUNK_BYTES = 1 << 16  # the size hint for each readlines() of a dense CSV
_COMMA, _NEWLINE, _ZERO = b",\n0"


def save_matrix_csv(M: np.ndarray, path) -> None:
    """Write ``M`` (1-D as one row) as comma-separated ``"%.17g"`` decimals.

    The bytes equal ``np.savetxt(path, M, fmt="%.17g", delimiter=",")``'s.
    One ``np.flatnonzero`` over the whole matrix finds the cells that are
    not a plain ``0`` (``-0``, ``nan`` and ``inf`` among them), and only
    those are formatted.  Every zero cell of a row starts at character 2j
    of one cached all-zero row, so each row is that string with its other
    cells spliced in, and the file is written one row at a time.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    zero_row = ",".join(["0"] * M.shape[1]) + "\n"
    # +0.0 is the one float whose bits are all zero
    rows, cols = np.divmod(np.flatnonzero(M.view(np.int64) != 0), M.shape[1])
    cells = ["%.17g" % value for value in M[rows, cols].tolist()]
    starts = (2 * cols).tolist()  # where each cell's 0 sits in the zero row
    bounds = [0, *np.searchsorted(rows, np.arange(1, len(M) + 1)).tolist()]
    with open(path, "w", newline="\n") as fh:
        for first, last in zip(bounds, bounds[1:]):
            parts, at = [], 0
            for start, cell in zip(starts[first:last], cells[first:last]):
                parts += (zero_row[at:start], cell)
                at = start + 1
            parts.append(zero_row[at:])
            fh.write("".join(parts))


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense CSV matrix bit-equal to ``np.loadtxt(path, delimiter=",", ndmin=2)``.

    ``#`` starts a comment, blank lines are skipped, and ``\\r\\n`` or
    ``\\r`` ends a line as ``\\n`` does.  A cell is a decimal that ``float``
    reads, whitespace around it allowed, with no ``_``.  The file is read in
    chunks of whole lines of about ``CHUNK_BYTES`` each, and only the cells
    that are not ``0`` are parsed.  A read holds one chunk and the (index,
    value) pairs of those cells, 16 bytes each, and allocates the matrix
    once at the end.  A ragged row, an unreadable cell and a file with no
    data rows raise ``ValueError`` naming the file, and the first two also
    its 1-based line.
    """
    width, n_cells, first_line = None, 0, 1
    flat, values = [], []
    with open(path, "rb") as fh:
        while lines := fh.readlines(CHUNK_BYTES):
            try:
                width, kept, n_lines, index, chunk_values = _read_chunk(
                    b"".join(lines), width, first_line
                )
            except ValueError as exc:
                raise ValueError(f"{path}, {exc}") from None
            flat.append(index + n_cells)
            values.append(chunk_values)
            n_cells += kept
            first_line += n_lines
    if not n_cells:
        raise ValueError(f"{path} holds no matrix rows")
    M = np.zeros(n_cells)
    for index, chunk_values in zip(flat, values):
        M[index] = chunk_values
    return M.reshape(-1, width)


def _read_chunk(text: bytes, width, first_line: int):
    """Cells of whole CSV lines: ``(width, cells, lines, index, values)``.

    ``width`` is the row width set by an earlier chunk, or None.  ``cells``
    counts the data cells, blank lines left out; ``index`` numbers the
    cells that are not ``0`` among them, and ``values`` holds theirs.  A
    ragged row or an unreadable cell raises ``ValueError`` naming the first
    such line, counted from ``first_line``.
    """
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in text:
        text = b"\n".join(line.partition(b"#")[0] for line in text.split(b"\n"))
    if not text.endswith(b"\n"):
        text += b"\n"  # the file's last line
    data = np.frombuffer(text, np.uint8)
    newline = data == _NEWLINE
    delimiter = newline | (data == _COMMA)
    ends = np.flatnonzero(delimiter)  # each cell ends at one
    newlines = np.flatnonzero(newline)
    line_start = np.concatenate(([True], newline[:-1]))
    cell_start = np.concatenate(([True], delimiter[:-1]))
    line_ends = np.searchsorted(ends, newlines)  # each line's last cell
    n_fields = np.diff(line_ends, prepend=-1)
    blank = line_start[newlines]
    rows = np.flatnonzero(~blank)
    if width is None and len(rows):
        width = int(n_fields[rows[0]])
    # the cells to parse end at a delimiter that closes neither a blank line nor a lone 0
    parse_end = delimiter & ~(newline & line_start)
    parse_end[1:] &= ~((data[:-1] == _ZERO) & cell_start[:-1])
    parse_at = np.flatnonzero(parse_end)
    parse = np.searchsorted(ends, parse_at)
    starts = np.where(parse > 0, ends[parse - 1] + 1, 0)
    cells = [text[a:b] for a, b in zip(starts.tolist(), parse_at.tolist())]
    problems = []  # (line in the chunk, message)
    ragged = rows[n_fields[rows] != width]
    if len(ragged):
        line = ragged[0]
        problems.append((line, f"{n_fields[line]} cells where the first row has {width}"))
    try:
        if b"_" in text:  # float() reads 1_0 as 10; loadtxt rejects it
            raise ValueError
        values = np.array(list(map(float, cells)))
    except ValueError:
        k, cell = next((k, cell) for k, cell in zip(parse, cells) if not _is_number(cell))
        shown = cell.decode(errors="replace")
        problems.append((np.searchsorted(line_ends, k), f"cannot read {shown!r} as a number"))
    if problems:
        line, message = min(problems)
        raise ValueError(f"line {first_line + line}: {message}")
    index = parse - np.searchsorted(line_ends[blank], parse)
    return width, len(ends) - int(blank.sum()), len(newlines), index, values


def _is_number(cell: bytes) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return b"_" not in cell


_JSON_TYPES = {list: "a list", str: "a string", int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object; else ``ValueError`` naming the JSON type it has."""
    if not isinstance(value, dict):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be an object, got {got}")
    return value


def json_keys(data: dict, known, required, where: str) -> None:
    """``ValueError`` naming every key of ``data`` outside ``known``, else the first of ``required`` it lacks."""
    unknown = ", ".join(repr(key) for key in data if key not in known)
    if unknown:
        raise ValueError(f"{where} takes only the keys {', '.join(known)}; got {unknown}")
    for key in required:
        if key not in data:
            raise ValueError(f"{where} has no key {key!r}")


def spec_from_dict(data: dict) -> ModelSpec:
    """Model spec from a JSON model document.

    It holds ``ModelSpec``'s five fields: ``rho``, the nested lists ``P``,
    ``Pi_r`` and ``Pi_c``, and ``dist``: the law's ``kind`` and its shape
    parameter by name, if any.  A key outside that layout, at the top or in
    ``dist``, a missing key, a ``dist`` that is not an object and a null in
    it raise ``ValueError``; ``ModelSpec`` checks rho and each matrix, and
    ``EdgeDistribution`` the kind and the shape parameter.
    """
    where, fields = "the model spec", ("rho", "P", "Pi_r", "Pi_c", "dist")
    json_keys(data, fields, fields, where)
    dist = json_object(data["dist"], f"{where}'s 'dist'")
    json_keys(dist, ("kind", *PARAM_KINDS), ("kind",), f"{where}'s 'dist'")
    if None in dist.values():  # EdgeDistribution reads None as a parameter left out
        raise ValueError(f"{where}'s 'dist' may not hold null")
    return ModelSpec(dist=EdgeDistribution(**dist), **{key: data[key] for key in fields[:4]})


def plan_from_json(data: dict) -> SweepPlan:
    """Sweep plan from a JSON plan document.

    It holds ``base`` (a model document), ``axis`` and ``grid``, and may
    hold ``replicates``, ``master_seed`` and ``name``.  An unknown key, checked
    before any value, a missing key and a document or ``base`` that is not an
    object raise ``ValueError``; ``SweepPlan`` checks every other value.
    """
    where, known = "a plan", ("base", "axis", "grid", "replicates", "master_seed", "name")
    json_keys(json_object(data, "a plan document"), known, known[:3], where)
    given = {key: data[key] for key in ("replicates", "master_seed") if key in data}
    base = spec_from_dict(json_object(data["base"], f"{where}'s 'base'"))
    return SweepPlan(base, data["axis"], data["grid"], scenario=data.get("name", "custom"), **given)


def load_plan(path) -> SweepPlan:
    with open(path) as fh:
        return plan_from_json(json.load(fh))
