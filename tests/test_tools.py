"""The repository tools: catalogue drift is reported and signed, replicates give spread, sizes count, layers are timed."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bimix

TOOL = Path(__file__).resolve().parents[1] / "tools" / "catalogue_drift.py"
DIGEST = TOOL.with_name("catalogue_digest.py")
SIZES = TOOL.with_name("source_size.py")
LAYERS = TOOL.with_name("layer_times.py")
HEADER = "scenario,rho,mean_error,std_error,replicates,skipped,seed"
OLD = f"{HEADER}\ns,0.5,0.25,0.125,2,,0\ns,0.6,,,0,rho too large,0\n"


def run_drift(tmp_path, old: dict, new: dict):
    paths = []
    for name, texts in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(texts))
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True,
                          text=True, timeout=60)


def test_rounding_drift_is_measured(tmp_path):
    new = OLD.replace("0.25,0.125", "0.25000000000000006,0.125")
    out = run_drift(tmp_path, {"s": OLD, "t": OLD}, {"s": new, "t": OLD})
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[1:] == ["s 1/2 5.55e-17 0 0/1/0 5.55e-17/5.55e-17/5.55e-17 5.55e-17",
                         "t 0/2 0 0 0/0/1 0/0/0 0",
                         "all 1/4 5.55e-17 0 0/1/1 1.39e-17/2.78e-17/4.16e-17 2.78e-17"]


def test_signed_drift_counts_better_and_worse(tmp_path):
    old = OLD.replace("\ns,0.6,", "\ns,0.55,0.5,0.25,2,,0\ns,0.6,")
    new = old.replace("0.5,0.25,0.125", "0.5,0.125,0.125").replace("0.55,0.5,", "0.55,0.75,")
    only_skips = f"{HEADER}\nu,0.6,,,0,rho too large,0\n"
    out = run_drift(tmp_path, {"s": old, "u": only_skips}, {"s": new, "u": only_skips})
    assert out.returncode == 0
    # d = -0.125 (better) and +0.25 (worse): quartiles interpolate between them
    assert out.stdout.splitlines()[1:] == ["s 2/3 0.25 0 1/1/0 -0.0312/0.0625/0.156 0.0625",
                                           "u 0/1 0 0 0/0/0 - -",
                                           "all 2/4 0.25 0 1/1/0 -0.0312/0.0625/0.156 0.0625"]


def test_structural_changes_fail(tmp_path):
    for new in (OLD.replace("0.6,", "0.7,"), OLD.replace("too large", "too small"),
                OLD.replace(",2,,0", ",3,,0"), OLD.replace("0.6,,,0,rho too large", "0.6,0.5,0,2,")):
        out = run_drift(tmp_path, {"s": OLD}, {"s": new})
        assert out.returncode == 1 and "line " in out.stdout, new
    out = run_drift(tmp_path, {"s": OLD}, {"s": OLD, "u": OLD})
    assert out.returncode == 1 and "u: only in NEW" in out.stdout


def dump_catalogue(tmp_path, monkeypatch, *args) -> dict:
    """``catalogue_digest.py``'s ``--dump``, run in-process on three small scenarios."""
    spec = importlib.util.spec_from_file_location("catalogue_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SCENARIO_NAMES", ("setup1", "setup8", "sim7b"))
    dump = tmp_path / "dump.json"
    monkeypatch.setattr(sys, "argv", ["catalogue_digest.py", *args, "--dump", str(dump)])
    tool.main()
    return json.loads(dump.read_text())


def column(texts: dict, name: str) -> list:
    """One column of every point that ran, across the dumped sweep CSVs."""
    return [row[name] for text in texts.values()
            for row in csv.DictReader(text.splitlines()) if not row["skipped"]]


def test_replicates_give_points_a_spread(tmp_path, monkeypatch, capsys):
    one = dump_catalogue(tmp_path, monkeypatch)
    assert set(column(one, "replicates")) == {"1"} and set(column(one, "std_error")) == {"0.0"}
    two = dump_catalogue(tmp_path, monkeypatch, "--replicates", "2")
    assert set(column(two, "replicates")) == {"2"}
    assert max(map(float, column(two, "std_error"))) > 0
    assert dump_catalogue(tmp_path, monkeypatch, "--replicates", "1") == one  # the default


def test_source_size_counts_what_grep_counts():
    src = SIZES.parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, str(SIZES)], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    sizes = dict(line.rsplit(" ", 1) for line in out.stdout.splitlines())
    # cat src/bimix/*.py | grep -cv '^\s*$'
    lines = [line for path in (src / "bimix").glob("*.py") for line in path.read_text().split("\n")]
    assert int(sizes["total"]) == sum(1 for line in lines if not re.fullmatch(r"\s*", line))
    assert int(sizes["total"]) == sum(int(n) for name, n in sizes.items() if name.endswith(".py"))
    assert int(sizes["__all__"]) == len(bimix.__all__)
    cli = (src / "bimix" / "cli.py").read_text()
    assert int(sizes["flags"]) == cli.count('add_argument("--') - cli.count('add_argument("--version"')


def test_layer_times_reports_every_layer_at_both_sizes():
    env = {**os.environ, "PYTHONPATH": str(LAYERS.parents[1] / "src")}
    out = subprocess.run([sys.executable, str(LAYERS), "--passes", "2", "--points", "1",
                          "--large-n", "90"], capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    layers = ["sample", "top_k_svd", "spa_solve", "score"]
    assert list(report) == ["300", "90"]
    assert list(report["300"]) == layers and list(report["90"]) == [*layers, "singular_values_10"]
    assert all(ms > 0 for size in report.values() for ms in size.values())
    assert len(out.stdout.splitlines()) == 1 + 9
