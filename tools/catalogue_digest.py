"""SHA-256 digests of the scenario catalogue's sweep CSVs.

Run from the root of a bimix checkout:

    PYTHONPATH=src python3 tools/catalogue_digest.py

For each name in ``SCENARIO_NAMES`` it prints the digest of
``run_sweep(scenario(name, replicates=1, master_seed=0)).to_csv_text()``,
then the digest of all those texts concatenated in catalogue order.  Two
trees that print the same last line write byte-identical catalogue sweeps.
The BLAS thread count can move the last digits of a fit, so compare runs
made at the same thread count.  The whole catalogue takes a few minutes.
"""

from __future__ import annotations

import hashlib

from bimix.harness import SCENARIO_NAMES, run_sweep, scenario


def main() -> None:
    total = hashlib.sha256()
    for name in SCENARIO_NAMES:
        text = run_sweep(scenario(name, replicates=1, master_seed=0)).to_csv_text().encode()
        total.update(text)
        print(f"{name} {hashlib.sha256(text).hexdigest()}", flush=True)
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
