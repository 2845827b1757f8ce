"""Benchmark of bimix: sweep throughput and real-size fit latency, traced per layer.

Run from the root of a bimix checkout:

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 20 --trace 0

The program under test is imported from the checkout's ``src/`` directory.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
units once plain and once with spans around every layer's public functions,
and reports the per-layer metrics.  Human-readable lines (environment,
output digests, metrics with units) come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 10  # set-ups in child processes, besides the run's own
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")  # without importing scipy
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": _git_commit(),
    }


def set_up(workload) -> float:
    """Import bimix from the checkout, build the plans and run one warm-up unit.

    Returns the seconds this took.  Fails if bimix resolves anywhere but the
    checkout's src/ directory.
    """
    start = time.perf_counter()
    bimix = importlib.import_module("bimix")
    if SRC.resolve() not in Path(bimix.__file__).resolve().parents:
        raise RuntimeError(f"bimix was imported from {bimix.__file__}, not from {SRC}")
    workload.set_up()
    workload.warm_up()
    return time.perf_counter() - start


def probe_set_up(args) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, seconds: float, setup_samples: list) -> tuple[dict, list]:
    """The run's end-to-end metrics; returns (metrics, results).

    A workload with ``n_jobs`` spends half the run at ``n_jobs=1`` and half
    at ``n_jobs=nproc``.  One without (large-fit) spends the whole run
    serially, and its ``par_fits_per_s`` is taken from that serial loop:
    every run reports every metric.  Rates and times are medians over the
    timed samples.
    """
    if workload.HAS_N_JOBS:
        serial, serial_samples = workload.run_phase(seconds / 2)
        par, par_samples = workload.run_phase(seconds / 2, n_jobs=NPROC)
    else:
        serial, serial_samples = workload.run_phase(seconds)
        par, par_samples = [], serial_samples
    reference = {r.index: r.digest for r in serial if not r.failure}
    for r in par:
        if not r.failure and r.index in reference and r.digest != reference[r.index]:
            r.failure = f"unit {r.index}: output differs between serial and parallel runs"
    prefix = [r for r in serial if r.index < workload.prefix and not r.failure]
    metrics = {
        "setup_s": (_median(setup_samples), "s"),
        "fits_per_s": (_median([f / s for f, s in serial_samples]), "1/s"),
        "par_fits_per_s": (_median([f / s for f, s in par_samples]), "1/s"),
        "fit_p50_ms": (_median([1000.0 * s / f for f, s in serial_samples]), "ms"),
        "mean_error": (sum(r.error_sum for r in prefix) / max(1, sum(r.fits for r in prefix)), "l1/node"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    print(f"units: serial {len(serial)} ({len(serial_samples)} timed samples), "
          f"parallel {len(par)} ({len(par_samples) if par else 0} timed samples)")
    print(f"set-up samples (s): {setup_samples}")
    for r in serial:
        if r.index < workload.prefix:
            print(f"digest unit {r.index}: sha256 {r.digest or '-'}")
    return metrics, serial + par


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, list]:
    """A plain serial phase, then a traced one over the same units; returns (metrics, results).

    Neither phase reports ``mean_error``, so neither has to run the whole
    prefix.  The spans are written to ``spans_path`` once the phases are over.
    """
    from spans import Tracer

    plain, _ = workload.run_phase(seconds / 3, min_units=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = workload.run_phase(2 * seconds / 3, tracer=tracer, min_units=1)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"not traced, absent from the program: {', '.join(tracer.missing)}")
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    ok = [r for r in traced if not r.failure]
    metrics = tracer.layer_metrics(
        fits=sum(r.fits for r in ok),
        points=sum(r.points for r in ok),
        skipped=sum(r.skipped for r in ok),
        edges=sum(r.edges for r in ok),
    )
    # compare the same units: the plain phase is the shorter one
    common = min(len(plain), len(traced))
    plain_common = sum(r.seconds for r in plain[:common])
    traced_common = sum(r.seconds for r in traced[:common])
    overhead = traced_common / plain_common - 1.0 if plain_common > 0 else 0.0
    metrics["trace_overhead_frac"] = (overhead, "fraction")
    print(f"units: plain {len(plain)}, traced {len(traced)}")
    return metrics, plain + traced


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; held-out 7)")
    parser.add_argument("--seconds", type=float, default=45.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bimix" / "__init__.py").is_file():
        print(f"error: no bimix package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload.make_inputs(workdir, probe=args.setup_probe)
        setup_s = set_up(workload)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("environment: " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
            metrics, results = per_layer(workload, args.seconds, spans_path)
        else:
            probes = 1 if args.tiny else SETUP_PROBES
            samples = [setup_s] + [probe_set_up(args) for _ in range(probes)]
            metrics, results = end_to_end(workload, args.seconds, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in results if r.failure]
    for r in failures[:5]:
        print(f"FAILED unit {r.index}: {r.failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
