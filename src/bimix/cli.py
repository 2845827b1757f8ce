"""Command-line interface: fit, eval, sweep, ingest, estimate-k."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .disp import disp
from .harness import SCENARIO_NAMES, run_sweep, scenario
from .ingest import load_edge_list, summarize
from .io import load_matrix_csv, load_plan, save_matrix_csv
from .metrics import error_rate, hamm_rc, mixed_proportion
from .sampler import RhoInterval, checked
from .spectral import estimate_k_eigengap, singular_values


# the eigengap rules compare at least two singular values
_K_MAX = RhoInterval(2, math.inf, lo_open=False, hi_open=True)


def _cmd_fit(args) -> int:
    A = load_matrix_csv(args.adjacency)
    result = disp(A, args.k)
    prefix = args.out_prefix
    save_matrix_csv(result.Pi_r_hat, f"{prefix}rows.csv")
    save_matrix_csv(result.Pi_c_hat, f"{prefix}cols.csv")
    diagnostics = {"k": args.k, "n_r": int(A.shape[0]), "n_c": int(A.shape[1])}
    diagnostics.update((f.name, getattr(result, f.name)) for f in fields(result)[2:])  # past Pi_*_hat
    with open(f"{prefix}diagnostics.json", "w") as fh:
        json.dump(diagnostics, fh, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
    print(f"wrote {prefix}rows.csv, {prefix}cols.csv, {prefix}diagnostics.json")
    return 0


def _cmd_eval(args) -> int:
    if (args.true_rows is None) != (args.true_cols is None):  # checked before any file is read
        given, missing = ("rows", "cols") if args.true_cols is None else ("cols", "rows")
        raise ValueError(f"--true-{missing} is required with --true-{given}")
    est_rows = load_matrix_csv(args.est_rows)
    est_cols = load_matrix_csv(args.est_cols)
    out = {
        "eta_r": mixed_proportion(est_rows),
        "eta_c": mixed_proportion(est_cols),
    }
    if est_rows.shape == est_cols.shape:
        out["hamm_rc"] = hamm_rc(est_rows, est_cols)
    if args.true_rows is not None:
        true_rows = load_matrix_csv(args.true_rows)
        true_cols = load_matrix_csv(args.true_cols)
        out["error_rate"] = error_rate(est_rows, true_rows, est_cols, true_cols)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    options = (("replicates", args.replicates), ("master_seed", args.seed))
    given = {key: value for key, value in options if value is not None}
    if args.config:
        if given:  # a plan file sets its own seed and replicate count
            raise ValueError("--seed and --replicates apply to --scenario only, not to --config")
        plan = load_plan(args.config)
    else:
        plan = scenario(args.scenario, **given)
    # --out is checked before the first point runs, not after the last
    folder = os.path.dirname(args.out) or "."
    if os.path.isdir(args.out):
        raise ValueError(f"cannot write {args.out}: it is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write {args.out}: no directory {folder}")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"cannot write {args.out}: directory {folder} is not writable")
    result = run_sweep(plan, n_jobs=args.jobs)
    result.to_csv(args.out)
    ran = sum(1 for pt in result.points if not pt.skipped)
    skipped = len(result.points) - ran
    print(f"wrote {args.out}: {ran} points, {skipped} skipped")
    return 0


def _cmd_ingest(args) -> int:
    A, edges = load_edge_list(
        args.edges, format=args.format, duplicates="sum" if args.sum_duplicates else "error"
    )
    save_matrix_csv(A, args.dense)
    stats = summarize(A, edges)
    with open(args.summary, "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.dense} and {args.summary} (n={stats['n']}, edges={stats['edges']})")
    return 0


def _cmd_estimate_k(args) -> int:
    k_max = checked(args.k_max, "--k-max", _K_MAX, int)  # checked before the file is read
    A = load_matrix_csv(args.adjacency)
    if min(A.shape) < 2:
        raise ValueError(f"estimate-k needs at least 2 rows and 2 columns, got shape {A.shape}")
    sv = singular_values(A, min(k_max, min(A.shape)))
    # every line is computed before any is printed, so a failure prints none
    lines = [",".join(repr(float(s)) for s in sv)]
    lines += [f"{method},{estimate_k_eigengap(sv, method)}" for method in ("difference", "ratio")]
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimix",
        description="Overlapping community estimation for bipartite weighted networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate row/column memberships from an adjacency matrix")
    p.add_argument("adjacency", help="dense CSV matrix; an edge list goes through bimix ingest")
    p.add_argument("--k", type=int, required=True, help="number of communities")
    p.add_argument("--out-prefix", default="fit_", help="prefix for output files")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="score membership estimates")
    p.add_argument("--est-rows", required=True)
    p.add_argument("--est-cols", required=True)
    p.add_argument("--true-rows")
    p.add_argument("--true-cols")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run a replicated parameter sweep")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=list(SCENARIO_NAMES))
    group.add_argument("--config", help="JSON sweep plan")
    p.add_argument("--seed", type=int, help="--scenario master seed (default 0)")
    p.add_argument("--replicates", type=int, help="--scenario replicate count (default 50)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ingest", help="edge list to dense adjacency plus summary")
    p.add_argument("edges", help="edge-list file")
    p.add_argument("--format", choices=["tsv", "csv"], default="tsv")
    p.add_argument("--sum-duplicates", action="store_true")
    p.add_argument("--dense", required=True, help="output dense CSV path")
    p.add_argument("--summary", required=True, help="output summary JSON path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("estimate-k", help="singular values and eigengap community count")
    p.add_argument("adjacency", help="dense CSV matrix; an edge list goes through bimix ingest")
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=_cmd_estimate_k)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
