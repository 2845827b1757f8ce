"""How far two catalogue sweeps drifted apart, scenario by scenario.

Run from the root of a bimix checkout, on two files that
``tools/catalogue_digest.py --dump PATH`` wrote:

    python3 tools/catalogue_drift.py OLD.json NEW.json

For each scenario it prints the number of rows whose text changed, out of
all rows, and the largest absolute change in ``mean_error`` and in
``std_error`` over those rows.  Then, signed, over the points both sides
fitted, with d = new minus old ``mean_error`` (lower is better): how many
points got better, worse or stayed the same; the quartiles of d; and the
mean of d, the change in the scenario's mean error.  The last line does
the same over the whole catalogue.  A change that moves only the error
columns is drift in a fit's rounding, or in the estimator.  A grid value,
a skip reason, a replicate count or a header that differs, or a scenario
or row that only one side has, is not: each is printed, and the exit
status is 1.
"""

from __future__ import annotations

import argparse
import json

import numpy as np


def _rows(text: str) -> tuple[list, list]:
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


ERRORS = ("mean_error", "std_error")


def drift(old: str, new: str) -> tuple[int, int, dict, list, list]:
    """``(changed rows, rows, {error column: largest |change|}, differences, deltas)``.

    ``differences`` lists, as text, each way the two sweep CSVs differ other
    than in the error columns of a point both sides fitted; ``deltas`` holds
    new minus old ``mean_error`` at each such point.
    """
    (header, old_rows), (new_header, new_rows) = _rows(old), _rows(new)
    largest = dict.fromkeys(ERRORS, 0.0)
    if header != new_header or len(old_rows) != len(new_rows):
        return 0, len(old_rows), largest, [f"header or row count differs: {len(old_rows)} rows "
                                           f"under {header}, {len(new_rows)} under {new_header}"], []
    changed, differences, deltas = 0, [], []
    for line, (a, b) in enumerate(zip(old_rows, new_rows), start=2):
        changed += a != b
        for column, x, y in zip(header, a, b):
            if column in largest and x and y:
                d = float(y) - float(x)
                largest[column] = max(largest[column], abs(d))
                if column == "mean_error":
                    deltas.append(d)
            elif x != y:
                differences.append(f"line {line}: {column} {x!r} -> {y!r}")
    return changed, len(old_rows), largest, differences, deltas


def signed(deltas: list) -> str:
    """``better/worse/same q1/median/q3 mean`` of the ``mean_error`` changes ``deltas``."""
    counts = f"{sum(d < 0 for d in deltas)}/{sum(d > 0 for d in deltas)}/{sum(d == 0 for d in deltas)}"
    if not deltas:
        return f"{counts} - -"
    quartiles = "/".join(f"{q:.3g}" for q in np.percentile(deltas, [25, 50, 75]))
    return f"{counts} {quartiles} {np.mean(deltas):.3g}"


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
    print("scenario changed_rows/rows " + " ".join(f"max_abs_d_{column}" for column in ERRORS)
          + " better/worse/same d_mean_error_q1/median/q3 mean_d_mean_error")
    total_changed, total_rows, total_largest, total_deltas = 0, 0, dict.fromkeys(ERRORS, 0.0), []
    for name in [name for name in old if name in new]:
        changed, rows, largest, differences, deltas = drift(old[name], new[name])
        print(f"{name} {changed}/{rows} " + " ".join(f"{d:.3g}" for d in largest.values())
              + f" {signed(deltas)}")
        for difference in differences:
            print(f"  {difference}")
        status |= bool(differences)
        total_changed, total_rows = total_changed + changed, total_rows + rows
        total_largest = {column: max(d, largest[column]) for column, d in total_largest.items()}
        total_deltas += deltas
    print(f"all {total_changed}/{total_rows} " + " ".join(f"{d:.3g}" for d in total_largest.values())
          + f" {signed(total_deltas)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
