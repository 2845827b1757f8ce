"""The workloads of the bimix benchmark, their inputs and their output checks.

A workload is a closed loop of *units* run from one process: the next unit
starts when the previous one has finished.  Unit ``i`` is a pure function of
``(workload, seed, i)``, so a seed fixes every input and, on unchanged code,
every output byte.  Inputs are made here with numpy alone; bimix is imported
in ``set_up``, so that its import counts as set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

NPROC = len(os.sched_getaffinity(0))
ERROR_RATE_MAX = 2.0  # node-averaged l1 distance between two stochastic rows


@dataclass
class UnitResult:
    """Timing, counts and check outcome of one unit."""

    index: int
    seconds: float
    fits: int = 0
    error_sum: float = 0.0  # summed error_rate over the unit's fits
    points: int = 0  # sweep grid points in the unit
    skipped: int = 0  # of which skipped by the harness
    edges: int = 0  # edge-list lines parsed by the unit
    digest: str = ""  # SHA-256 of the unit's outputs
    failure: str | None = None


def unit_seed(seed: int, index: int) -> int:
    """Master seed of unit ``index``; independent streams for each (seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def closed_loop(run_unit, seconds: float, min_units: int, tracer=None) -> list[UnitResult]:
    """Run units 0, 1, 2, ... back to back for ``seconds``, and at least ``min_units``."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_units or time.perf_counter() < deadline:
        index = len(results)
        if tracer is not None:
            tracer.set_unit(index)
        results.append(run_unit(index))
    return results


def timed_samples(results, group: int = 1) -> list[tuple[int, float]]:
    """(fits, seconds) summed over each run of ``group`` consecutive units.

    A trailing incomplete group, and any group with a failed unit, is left out.
    """
    samples = []
    for first in range(0, len(results) - group + 1, group):
        batch = results[first : first + group]
        if all(r.fits and not r.failure for r in batch):
            samples.append((sum(r.fits for r in batch), sum(r.seconds for r in batch)))
    return samples


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- sweeps

CSV_TAIL = ("mean_error", "std_error", "replicates", "skipped", "seed")


def invalid_by_construction(plan, value) -> bool:
    """Equal |alpha_in| and |alpha_out| make the two-block connectivity singular."""
    return plan.axis == "alpha_grid" and abs(value[0]) == abs(value[1])


def check_sweep_csv(plan, text: str) -> tuple[str | None, int, float, int]:
    """Check a sweep CSV against its plan.

    Expects the plan's header, one row per grid point in grid order with the
    grid values, exactly the points invalid by construction skipped, and a
    finite error in range with the full replicate count everywhere else.
    Returns (failure or None, fits, summed error over fits, skipped rows).
    """
    header = ["scenario", *plan.axis_columns(), *CSV_TAIL]
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        return f"header {lines[:1]} is not {header}", 0, 0.0, 0
    if len(lines) - 1 != len(plan.grid):
        return f"{len(lines) - 1} rows for {len(plan.grid)} grid points", 0, 0.0, 0
    fits, error_sum, skipped = 0, 0.0, 0
    for row_no, (value, line) in enumerate(zip(plan.grid, lines[1:]), start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"row {row_no}: {len(cells)} columns, expected {len(header)}", 0, 0.0, 0
        rec = dict(zip(header, cells))
        want = value if plan.axis == "alpha_grid" else (value,)
        try:
            got = tuple(float(rec[c]) for c in plan.axis_columns())
        except ValueError:
            return f"row {row_no}: unparsable grid value", 0, 0.0, 0
        if got != tuple(float(v) for v in want):
            return f"row {row_no}: grid value {got} is not {want}", 0, 0.0, 0
        if rec["scenario"] != plan.scenario or rec["seed"] != str(plan.master_seed):
            return f"row {row_no}: scenario or seed column is wrong", 0, 0.0, 0
        if invalid_by_construction(plan, value):
            if not rec["skipped"] or rec["mean_error"] or rec["std_error"] or rec["replicates"] != "0":
                return f"row {row_no}: invalid point {want} was not skipped", 0, 0.0, 0
            skipped += 1
            continue
        if rec["skipped"]:
            return f"row {row_no}: valid point {want} skipped: {rec['skipped']}", 0, 0.0, 0
        try:
            mean, std, reps = float(rec["mean_error"]), float(rec["std_error"]), int(rec["replicates"])
        except ValueError:
            return f"row {row_no}: unparsable result cells", 0, 0.0, 0
        if not (math.isfinite(mean) and 0.0 <= mean <= ERROR_RATE_MAX):
            return f"row {row_no}: mean_error {mean!r} is not a finite error rate", 0, 0.0, 0
        if not (math.isfinite(std) and std >= 0.0):
            return f"row {row_no}: std_error {std!r} is not finite and nonnegative", 0, 0.0, 0
        if reps != plan.replicates:
            return f"row {row_no}: {reps} replicates, expected {plan.replicates}", 0, 0.0, 0
        fits += reps
        error_sum += mean * reps
    return None, fits, error_sum, skipped


class DenseSweep:
    """Strided slices of the n=300, K=2 alpha-grid scenarios, run through ``run_sweep``.

    Unit ``i`` is a strided slice of sim1b (bernoulli), sim4c (normal) or
    sim8b (signed) in turn, with its own master seed: four valid points, two
    replicates each, plus any invalid points the slice passes on the way.
    ``run_sweep`` hands out whole points, so four valid points split evenly
    over 1, 2 or 4 workers.  One timed sample is three consecutive units, one of each
    scenario, so every sample has the same mix.  A phase runs the units with
    ``n_jobs = 1`` or ``n_jobs = nproc``.
    """

    SCENARIOS = ("sim1b", "sim4c", "sim8b")
    HAS_N_JOBS = True

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.replicates = 1 if tiny else 2
        self.points = 2 if tiny else 4
        self.prefix = 3 if tiny else 30  # units every phase runs, however slow

    def make_inputs(self, workdir: Path, probe: bool) -> None:
        """Sweeps need no files: a unit's input is its plan and master seed."""

    def set_up(self) -> None:
        """Import bimix, build the catalogued plans and validate their base models."""
        from bimix import harness, validate_model

        self.harness = harness
        self.full = [harness.scenario(name, self.replicates) for name in self.SCENARIOS]
        for plan in self.full:
            violations = validate_model(plan.base)
            if violations:
                raise ValueError(f"invalid base model of {plan.scenario}: {violations}")

    def template(self, index: int):
        """A strided slice of the scenario's grid, cut after its ``points``-th valid point."""
        full = self.full[index % len(self.full)]
        stride = len(full.grid) // (self.points + 1)
        offset = (index // len(self.full)) * 61 % stride  # 61 is prime to every stride
        while True:
            grid = full.grid[offset::stride]
            valid = [i for i, v in enumerate(grid) if not invalid_by_construction(full, v)]
            if len(valid) >= self.points:
                return replace(full, grid=grid[: valid[self.points - 1] + 1])
            offset = (offset + 1) % stride

    def plan(self, index: int):
        return replace(self.template(index), master_seed=unit_seed(self.seed, index))

    def warm_up(self) -> None:
        plan = self.plan(0)
        first = next(v for v in plan.grid if not invalid_by_construction(plan, v))
        result = self.run_plan(replace(plan, grid=(first,), replicates=1), index=-1, n_jobs=1)
        if result.failure:
            raise RuntimeError(f"warm-up unit failed: {result.failure}")

    def run_plan(self, plan, index: int, n_jobs: int) -> UnitResult:
        start = time.perf_counter()
        try:
            text = self.harness.run_sweep(plan, n_jobs=n_jobs).to_csv_text()
        except Exception as exc:  # a failed unit is counted, and the loop goes on
            return UnitResult(index, time.perf_counter() - start, failure=_describe(exc))
        seconds = time.perf_counter() - start
        failure, fits, error_sum, skipped = check_sweep_csv(plan, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return UnitResult(
            index, seconds, fits, error_sum, len(plan.grid), skipped, digest=digest, failure=failure
        )

    def run_unit(self, index: int, n_jobs: int = 1) -> UnitResult:
        return self.run_plan(self.plan(index), index, n_jobs)

    def run_phase(self, seconds: float, n_jobs: int = 1, tracer=None, min_units=None) -> tuple[list, list]:
        """Closed loop of units, by default at least the prefix; returns (results, timed samples)."""
        min_units = self.prefix if min_units is None else min_units
        results = closed_loop(lambda i: self.run_unit(i, n_jobs), seconds, min_units, tracer)
        return results, timed_samples(results, group=len(self.SCENARIOS))


# ---------------------------------------------------------------- large fit


@dataclass(frozen=True)
class Network:
    """A generated edge-list file and the planted memberships in ingest order."""

    edges_path: Path
    rows_path: Path
    cols_path: Path
    n: int
    edges: int
    K: int


def write_planted_network(rng, directory: Path, n: int, K: int, n_edges: int) -> Network:
    """Poisson-weighted directed network from a planted overlapping-community model.

    70% of the nodes are pure, split evenly over the K communities, and the
    rest carry Dirichlet(1) memberships; column memberships are a permutation
    of the row memberships.  Node ids are random integer tokens, and edges
    are written in random order as ``src<TAB>dst<TAB>weight`` lines.  The
    truth files list nodes in first-appearance order, which is the order in
    which ``bimix ingest`` numbers them, without nodes no edge touches.
    """
    directory.mkdir(parents=True, exist_ok=True)
    n_pure = int(0.7 * n) // K
    pi_r = np.zeros((n, K))
    for k in range(K):
        pi_r[k * n_pure : (k + 1) * n_pure, k] = 1.0
    pi_r[K * n_pure :] = rng.dirichlet(np.ones(K), size=n - K * n_pure)
    pi_c = pi_r[rng.permutation(n)]
    P = np.full((K, K), 0.02)
    np.fill_diagonal(P, 1.0)
    mean = pi_r @ P @ pi_c.T
    A = rng.poisson(mean * (n_edges / mean.sum()))
    src, dst = np.nonzero(A)
    order = rng.permutation(len(src))
    tokens = rng.choice(10**7, size=n, replace=False)
    lines = ["% planted overlapping-community network\n"]
    first_seen: dict = {}
    for e in order:
        i, j = int(src[e]), int(dst[e])
        first_seen.setdefault(i, len(first_seen))
        first_seen.setdefault(j, len(first_seen))
        lines.append(f"{tokens[i]}\t{tokens[j]}\t{A[i, j]}\n")
    edges_path = directory / "edges.tsv"
    edges_path.write_text("".join(lines))
    ingest_order = np.array(list(first_seen))
    rows_path, cols_path = directory / "true_rows.csv", directory / "true_cols.csv"
    np.savetxt(rows_path, pi_r[ingest_order], fmt="%.17g", delimiter=",")
    np.savetxt(cols_path, pi_c[ingest_order], fmt="%.17g", delimiter=",")
    return Network(edges_path, rows_path, cols_path, len(ingest_order), len(order), K)


class LargeFit:
    """``bimix ingest`` -> ``estimate-k`` -> ``fit`` -> ``eval`` through ``cli.main``.

    Each unit runs the whole pipeline on one of ``NETWORKS`` generated
    networks of the Facebook dataset's size, in turn.  The CLI runs one
    command per process and has no ``n_jobs``, so there is only a serial
    phase.  A pipeline on a network already run must reproduce that
    network's memberships byte for byte.
    """

    NETWORKS = 16
    K = 3
    K_MAX = 10
    ERROR_CEILING = 0.45  # planted-truth error_rate a correct fit stays under
    HAS_N_JOBS = False

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = (240, 6000) if tiny else (1302, 19000)  # nodes, edges
        self.networks_used = 1 if tiny else self.NETWORKS
        self.prefix = self.networks_used

    def make_inputs(self, workdir: Path, probe: bool) -> None:
        rng = np.random.default_rng(self.seed)
        self.workdir = workdir
        self.warm_net = write_planted_network(rng, workdir / "warm", 200, self.K, 6000)
        self.networks = []
        if not probe:
            self.networks = [
                write_planted_network(rng, workdir / f"net{i}", self.size[0], self.K, self.size[1])
                for i in range(self.networks_used)
            ]

    def set_up(self) -> None:
        from bimix import cli

        self.cli = cli

    def warm_up(self) -> None:
        result = self.run_pipeline(self.warm_net, self.workdir / "warm", index=-1)
        if result.failure:
            raise RuntimeError(f"warm-up unit failed: {result.failure}")

    def commands(self, net: Network, out: Path) -> list[list[str]]:
        """The pipeline's four ``bimix`` command lines, writing into ``out``."""
        dense, summary, prefix = out / "A.csv", out / "summary.json", f"{out}/fit_"
        commands = [
            ["ingest", net.edges_path, "--dense", dense, "--summary", summary],
            ["estimate-k", dense, "--k-max", self.K_MAX],
            ["fit", dense, "--k", net.K, "--out-prefix", prefix],
            ["eval", "--est-rows", f"{prefix}rows.csv", "--est-cols", f"{prefix}cols.csv",
             "--true-rows", net.rows_path, "--true-cols", net.cols_path],
        ]
        return [[str(a) for a in argv] for argv in commands]

    def run_commands(self, net: Network, out: Path) -> tuple[list, str | None]:
        """Run the pipeline; returns (what each command printed, failure or None)."""
        out.mkdir(parents=True, exist_ok=True)
        printed = []
        for argv in self.commands(net, out):
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                code = self.cli.main(argv)
            printed.append(captured.getvalue())
            if code != 0:
                return printed, f"bimix {argv[0]} exited {code}"
        return printed, None

    def run_pipeline(self, net: Network, out: Path, index: int) -> UnitResult:
        start = time.perf_counter()
        printed, failure = self.run_commands(net, out)
        seconds = time.perf_counter() - start
        if failure:
            return UnitResult(index, seconds, failure=failure)
        try:
            failure, error, digest = self.check_pipeline(net, out, printed)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            failure, error, digest = f"unreadable output: {_describe(exc)}", 0.0, ""
        return UnitResult(index, seconds, 1, error, edges=net.edges, digest=digest, failure=failure)

    def check_pipeline(self, net: Network, out: Path, printed: list) -> tuple[str | None, float, str]:
        """Check every stage's output; returns (failure or None, error_rate, digest)."""
        summary = json.loads((out / "summary.json").read_text())
        if (summary["n"], summary["edges"]) != (net.n, net.edges):
            got = f"n={summary['n']} edges={summary['edges']}"
            return f"ingest summary {got}, expected n={net.n} edges={net.edges}", 0.0, ""
        lines = printed[1].splitlines()
        sv = np.array([float(x) for x in lines[0].split(",")])
        increasing = (np.diff(sv) > 1e-9 * sv[0]).any()
        if len(sv) != min(self.K_MAX, net.n) or not (sv > 0).all() or increasing:
            return "estimate-k singular values are not positive and nonincreasing", 0.0, ""
        for line, method in zip(lines[1:3], ("difference", "ratio")):
            name, _, k = line.partition(",")
            if name != method or not 1 <= int(k) < len(sv):
                return f"estimate-k line {line!r} is not a {method} estimate", 0.0, ""
        digest = hashlib.sha256()
        for side in ("rows", "cols"):
            path = out / f"fit_{side}.csv"
            pi = np.loadtxt(path, delimiter=",", ndmin=2)
            if pi.shape != (net.n, net.K) or not np.isfinite(pi).all() or (pi < 0).any():
                return f"fit {side}: shape {pi.shape} or entries are wrong", 0.0, ""
            if (np.abs(pi.sum(axis=1) - 1.0) > 1e-9).any():
                return f"fit {side}: memberships are not row-stochastic", 0.0, ""
            digest.update(path.read_bytes())
        diagnostics = json.loads((out / "fit_diagnostics.json").read_text())
        if (diagnostics["k"], diagnostics["n_r"], diagnostics["n_c"]) != (net.K, net.n, net.n):
            return "fit diagnostics do not match the input", 0.0, ""
        error = json.loads(printed[3])["error_rate"]
        if not (math.isfinite(error) and 0.0 <= error < self.ERROR_CEILING):
            return f"error_rate {error!r} to the planted truth is not under {self.ERROR_CEILING}", 0.0, ""
        return None, float(error), digest.hexdigest()

    def run_unit(self, index: int) -> UnitResult:
        net = self.networks[index % len(self.networks)]
        try:
            return self.run_pipeline(net, self.workdir / "out", index)
        except Exception as exc:  # a failed unit is counted, and the loop goes on
            return UnitResult(index, 0.0, failure=_describe(exc))

    def run_phase(self, seconds: float, tracer=None, min_units=None) -> tuple[list, list]:
        """Closed loop of pipelines, by default at least the prefix; returns (results, timed samples).

        The CLI has no worker model, so there is no ``n_jobs``.  A repeat
        pipeline whose memberships differ from the first on the same network
        fails.
        """
        min_units = self.prefix if min_units is None else min_units
        results = closed_loop(self.run_unit, seconds, min_units, tracer)
        for r in results[len(self.networks) :]:
            first = results[r.index % len(self.networks)]
            if not (r.failure or first.failure) and r.digest != first.digest:
                r.failure = f"unit {r.index}: memberships differ from unit {first.index}'s"
        return results, timed_samples(results)


WORKLOADS = {
    "dense-sweep": DenseSweep,
    "large-fit": LargeFit,
}
