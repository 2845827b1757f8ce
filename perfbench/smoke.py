"""Smoke test of the bimix benchmark.

Run from the root of a bimix checkout:

    python3 perfbench/smoke.py

It checks that
- a tiny run of every workload, plain and traced, exits 0, passes its
  correctness check and reports every metric BENCHMARK.json names, with its
  unit and nothing else, and a traced run writes well-formed spans;
- deliberately corrupted sweep and pipeline outputs trip the correctness
  checks;
- the benchmark fails, without printing a result, where there is no program.

Prints one line per check and exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_tiny_run(spec: dict, workload: str, trace: int) -> None:
    done = run_bench(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"run not correct: {result['attempted']} attempted, "
                             f"{result['failed']} failed: {done.stderr[-2000:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)) or value != value:
            raise AssertionError(f"{name}: {got[name]} does not match unit {unit!r}")
    if trace:
        check_spans(ROOT / ".perfbench_out" / f"spans-{workload}.jsonl")


def check_spans(path: Path) -> None:
    """Every span closes after it opens, inside a known parent, with a unit id."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    path.unlink()
    ids = {span["id"] for span in spans}
    if not spans:
        raise AssertionError("the traced run wrote no spans")
    for span in spans:
        if span["end"] < span["start"] or span["unit"] is None:
            raise AssertionError(f"malformed span {span}")
        if span["parent"] is not None and span["parent"] not in ids:
            raise AssertionError(f"span {span['id']} has an unknown parent")


def check_corrupted_sweep(workloads) -> None:
    dense = workloads.DenseSweep(seed=3, tiny=True)
    dense.set_up()
    plan = dense.plan(0)
    text = dense.harness.run_sweep(plan).to_csv_text()
    failure = workloads.check_sweep_csv(plan, text)[0]
    if failure:
        raise AssertionError(f"intact CSV rejected: {failure}")
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    i_mean, i_skip = header.index("mean_error"), header.index("skipped")
    n = next(i for i, line in enumerate(lines[1:], start=1) if not line.split(",")[i_skip].strip())
    row = lines[n].rstrip("\n").split(",")

    def with_row(cells):
        return "".join([*lines[:n], ",".join(cells) + "\n", *lines[n + 1 :]])

    nan_row = list(row)
    nan_row[i_mean] = "nan"
    skipped_row = list(row)
    skipped_row[i_skip] = "invalid"
    corruptions = {
        "row dropped": "".join(lines[:-1]),
        "NaN error": with_row(nan_row),
        "valid point skipped": with_row(skipped_row),
        "column dropped": "\n".join(",".join(l.split(",")[:-1]) for l in text.splitlines()) + "\n",
    }
    for what, bad in corruptions.items():
        if workloads.check_sweep_csv(plan, bad)[0] is None:
            raise AssertionError(f"corrupted sweep CSV ({what}) passed the check")


def check_corrupted_pipeline(workloads, workdir: Path) -> None:
    import numpy as np

    large = workloads.LargeFit(seed=3, tiny=True)
    large.make_inputs(workdir, probe=False)
    large.set_up()
    net, out = large.networks[0], workdir / "smoke"
    printed, failure = large.run_commands(net, out)
    if failure:
        raise AssertionError(failure)
    failure = large.check_pipeline(net, out, printed)[0]
    if failure:
        raise AssertionError(f"intact pipeline output rejected: {failure}")

    rows_path = out / "fit_rows.csv"
    rows = np.loadtxt(rows_path, delimiter=",", ndmin=2)
    rows[0] *= 1.5
    np.savetxt(rows_path, rows, fmt="%.17g", delimiter=",")
    if large.check_pipeline(net, out, printed)[0] is None:
        raise AssertionError("non-stochastic memberships passed the check")
    rows[0] /= 1.5
    np.savetxt(rows_path, rows, fmt="%.17g", delimiter=",")

    evaluation = json.loads(printed[3])
    evaluation["error_rate"] = 2 * large.ERROR_CEILING
    if large.check_pipeline(net, out, printed[:3] + [json.dumps(evaluation)])[0] is None:
        raise AssertionError("an error_rate above the ceiling passed the check")


def check_no_program(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench(bare, "dense-sweep", 0)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        raise AssertionError("the benchmark succeeded without a program to measure")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=out_dir))
    checks = [(f"tiny {w['name']} trace {t}", check_tiny_run, (spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks += [
        ("corrupted sweep CSV fails", check_corrupted_sweep, (workloads,)),
        ("corrupted pipeline output fails", check_corrupted_pipeline, (workloads, workdir)),
        ("no program: exits nonzero", check_no_program, (workdir,)),
    ]
    failed = 0
    try:
        for name, check, args in checks:
            try:
                check(*args)
                print(f"ok    {name}")
            except (AssertionError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
