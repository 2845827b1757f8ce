"""How far two catalogue sweeps drifted apart, scenario by scenario.

Run from the root of a bimix checkout, on two files that
``tools/catalogue_digest.py --dump PATH`` wrote:

    python3 tools/catalogue_drift.py OLD.json NEW.json

For each scenario it prints the number of rows whose text changed, out of
all rows, and the largest absolute change in ``mean_error`` and in
``std_error`` over those rows; the last line sums the rows and takes the
largest changes over the whole catalogue.  A change that moves only these
two numbers is drift in a fit's rounding.  A grid value, a skip reason, a
replicate count or a header that differs, or a scenario or row that only
one side has, is not: each is printed, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json


def _rows(text: str) -> tuple[list, list]:
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


ERRORS = ("mean_error", "std_error")


def drift(old: str, new: str) -> tuple[int, int, dict, list]:
    """``(changed rows, rows, {error column: largest |change|}, differences)``.

    ``differences`` lists, as text, each way the two sweep CSVs differ other
    than in the error columns of a point both sides fitted.
    """
    (header, old_rows), (new_header, new_rows) = _rows(old), _rows(new)
    largest = dict.fromkeys(ERRORS, 0.0)
    if header != new_header or len(old_rows) != len(new_rows):
        return 0, len(old_rows), largest, [f"header or row count differs: {len(old_rows)} rows "
                                           f"under {header}, {len(new_rows)} under {new_header}"]
    changed, differences = 0, []
    for line, (a, b) in enumerate(zip(old_rows, new_rows), start=2):
        changed += a != b
        for column, x, y in zip(header, a, b):
            if column in largest and x and y:
                largest[column] = max(largest[column], abs(float(x) - float(y)))
            elif x != y:
                differences.append(f"line {line}: {column} {x!r} -> {y!r}")
    return changed, len(old_rows), largest, differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="JSON {scenario: csv_text} of the tree before the change")
    parser.add_argument("new", help="the same for the tree after it")
    args = parser.parse_args()
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    status = 0
    for name in sorted(set(old) ^ set(new)):
        print(f"{name}: only in {'OLD' if name in old else 'NEW'}")
        status = 1
    print("scenario changed_rows/rows " + " ".join(f"max_abs_d_{column}" for column in ERRORS))
    total_changed, total_rows, total_largest = 0, 0, dict.fromkeys(ERRORS, 0.0)
    for name in [name for name in old if name in new]:
        changed, rows, largest, differences = drift(old[name], new[name])
        print(f"{name} {changed}/{rows} " + " ".join(f"{d:.3g}" for d in largest.values()))
        for difference in differences:
            print(f"  {difference}")
        status |= bool(differences)
        total_changed, total_rows = total_changed + changed, total_rows + rows
        total_largest = {column: max(d, largest[column]) for column, d in total_largest.items()}
    print(f"all {total_changed}/{total_rows} " + " ".join(f"{d:.3g}" for d in total_largest.values()))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
