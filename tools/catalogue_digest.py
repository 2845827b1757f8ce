"""SHA-256 digests of the scenario catalogue's sweep CSVs.

Run from the root of a bimix checkout:

    PYTHONPATH=src python3 tools/catalogue_digest.py [--jobs N] [--replicates R] [--dump PATH]

For each name in ``SCENARIO_NAMES`` it prints the digest of
``run_sweep(scenario(name, replicates=R, master_seed=0), n_jobs=N).to_csv_text()``,
then the digest of all those texts concatenated in catalogue order.  Two
trees that print the same last line write byte-identical catalogue sweeps.
The digests quoted in the docs are at the default ``R = 1``, where every
``std_error`` is 0; ``R = 2`` gives each point a spread for
``tools/catalogue_drift.py`` to compare, at about twice the time.
The BLAS thread count can move the last digits of a fit, so compare runs
made at the same thread count; ``--jobs`` above 1 runs the points in
worker processes at one BLAS thread.  The whole catalogue takes about
90 s serially on two cores, and about 50 s with ``--jobs 2``.  ``--dump``
also writes the texts as a JSON object ``{scenario: csv_text}``, which
``tools/catalogue_drift.py`` compares between two trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from bimix.harness import SCENARIO_NAMES, run_sweep, scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1, help="run_sweep's n_jobs (default 1)")
    parser.add_argument("--replicates", type=int, default=1,
                        help="replicates per grid point (default 1)")
    parser.add_argument("--dump", metavar="PATH", help="also write {scenario: csv_text} as JSON")
    args = parser.parse_args()
    total = hashlib.sha256()
    texts = {}
    for name in SCENARIO_NAMES:
        plan = scenario(name, replicates=args.replicates, master_seed=0)
        text = texts[name] = run_sweep(plan, n_jobs=args.jobs).to_csv_text()
        total.update(text.encode())
        print(f"{name} {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    print(f"all {total.hexdigest()}")
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(texts, fh, indent=1)


if __name__ == "__main__":
    main()
