"""Replicated simulation sweeps over model parameter grids.

A sweep plan pins a base model, one grid axis (``rho``, ``alpha_grid``, or
the base law's shape parameter ``m``, ``sigma2`` or ``beta``), a replicate
count and a master seed (``io.load_plan`` reads one from JSON).  It checks
its grid when built: an (alpha_in, alpha_out) pair per point on
``alpha_grid``, one number on any other axis.  A sweep's result holds the
plan and a ``SweepPoint`` per grid point: the error's mean and std, or why
the point was skipped.
Every replicate's randomness derives from (master seed, grid index,
replicate index), so at a fixed BLAS thread count a sweep's records are
identical under any ``n_jobs``.  The BLAS thread count itself can move the
last digit of a mean, because the SVD's rounding depends on it.

``run_sweep(plan, n_jobs)`` with ``n_jobs > 1`` maps grid points over a
pool of worker processes.  The workers run BLAS at one thread, so their
records equal the serial records at ``OPENBLAS_NUM_THREADS=1``; at
catalogue sizes they also equal the serial records at 2 threads.  The pool
starts on the first such call and persists for the life of the process;
it is shut down, with its forkserver and resource tracker, at exit.  The
workers are forked from a forkserver and import the caller's main module,
so a script that calls ``run_sweep(n_jobs>1)`` at top level needs an
``if __name__ == "__main__":`` guard.

The scenario catalogue is one table, ``_SCENARIOS``, with a row per
scenario: edge law, swept quantity, network shape, grid values, and P and
rho where the sweep does not set them.  ``scenario`` builds a plan from a
row, and ``SCENARIO_NAMES`` is the table's key order.  The law parameters
a sweep can vary come from the edge-law records in ``sampler``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .disp import disp
from .metrics import error_rate
from .model import (
    InvalidModelError,
    ModelSpec,
    build_omega,
    make_planted_memberships,
    make_standard_two_block,
)
from .sampler import (COUNTS, PARAM_KINDS, EdgeDistribution, RandomSource, RhoInterval, checked, is_number,
                      sample_adjacency)

AXES = ("rho", "alpha_grid", *PARAM_KINDS)

# grid points are spaced this far apart in substream index space, so a point
# can host up to STREAM_STRIDE replicates without colliding with its neighbor
STREAM_STRIDE = 1 << 20
_REPLICATES = RhoInterval(1, STREAM_STRIDE, lo_open=False, hi_open=True)

# two-community connectivity presets used by the catalogued scenarios
_P_POS = np.array([[1.0, 0.2], [0.3, 0.8]])
_P_MIXED = np.array([[1.0, -0.2], [0.3, -0.8]])
_P_POS_ALT = np.array([[1.0, 0.2], [0.1, 0.9]])
_P_MIXED_ALT = np.array([[1.0, -0.2], [0.1, -0.9]])


# a module constant: the check runs once per grid point, 900 times for sim1b
_SEQUENCE = (tuple, list, np.ndarray)


def _finite_number(value) -> bool:
    # the number test alone: through sampler.checked, building sim1b, sim4c and sim8b took 3.7 ms, not 1.0
    return is_number(value) and math.isfinite(value)


def _grid_point(axis: str, value):
    """``value`` as a point on ``axis``: an (alpha_in, alpha_out) tuple, else one number."""
    if axis != "alpha_grid":
        if _finite_number(value):
            return value
        raise ValueError(f"{axis} grid value must be one finite number, got {value!r}")
    point = tuple(value) if isinstance(value, _SEQUENCE) else ()
    if len(point) == 2 and _finite_number(point[0]) and _finite_number(point[1]):
        return point
    raise ValueError(f"alpha_grid grid value must be a pair of finite numbers, got {value!r}")


@dataclass(frozen=True)
class SweepPlan:
    """Base model, grid axis (one of ``AXES``), grid points, replicate count and master seed."""

    base: ModelSpec
    axis: str
    grid: tuple
    replicates: int = 50
    master_seed: int = 0
    scenario: str = "custom"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; expected one of {AXES}")
        # a tuple, a list or an ndarray with at least one axis
        if not (isinstance(self.grid, (tuple, list)) or getattr(self.grid, "ndim", 0)) or not len(self.grid):
            raise ValueError(f"grid must be a nonempty sequence, got {self.grid!r}")
        object.__setattr__(self, "replicates", checked(self.replicates, "replicates", _REPLICATES, int))
        object.__setattr__(self, "master_seed", RandomSource(self.master_seed).seed)  # usable by every replicate
        # the CSV writes the name unquoted
        if not isinstance(self.scenario, str) or any(c in self.scenario for c in ',"\r\n'):
            raise ValueError("scenario name must be a string without a comma, a double quote or a line "
                             f"break, got {self.scenario!r}")
        object.__setattr__(self, "grid", tuple(_grid_point(self.axis, v) for v in self.grid))
        if self.axis in PARAM_KINDS and self.base.dist.kind != PARAM_KINDS[self.axis]:
            raise ValueError(f"axis {self.axis!r} requires a {PARAM_KINDS[self.axis]} base distribution")
        if self.axis == "alpha_grid":
            if self.base.n_r != self.base.n_c:
                raise ValueError("alpha_grid sweeps need n_r == n_c")
            if self.base.K != 2:
                raise ValueError("alpha_grid sweeps need K == 2")

    def axis_columns(self) -> tuple[str, ...]:
        return ("alpha_in", "alpha_out") if self.axis == "alpha_grid" else (self.axis,)


@dataclass(frozen=True)
class SweepPoint:
    """Outcome at the plan's grid point of the same index; ``skipped`` holds the reason when not run."""

    mean_error: float | None
    std_error: float | None
    skipped: str = ""


@dataclass(frozen=True)
class SweepResult:
    """The plan that was run and one record per grid point, in grid order."""

    plan: SweepPlan
    points: tuple[SweepPoint, ...]

    def to_csv_text(self) -> str:
        columns = self.plan.axis_columns()
        seed = str(self.plan.master_seed)
        header = ["scenario", *columns, "mean_error", "std_error", "replicates", "skipped", "seed"]
        lines = [",".join(header)]
        for value, pt in zip(self.plan.grid, self.points, strict=True):
            row = [self.plan.scenario, *(repr(float(v)) for v in np.ravel(value))]
            if pt.skipped:
                row += ["", "", "0", pt.skipped.replace(",", ";"), seed]
            else:
                row += [
                    repr(float(pt.mean_error)),
                    repr(float(pt.std_error)),
                    str(self.plan.replicates),
                    "",
                    seed,
                ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


def run_replicates(
    spec: ModelSpec, replicates: int, master_seed: int, stream_base: int = 0
) -> tuple[float, float]:
    """Sample, fit and score ``replicates`` times; returns (mean, sample std).

    Replicate r draws from substream ``stream_base + r`` of the master seed,
    so reruns with the same seed reproduce the mean bit for bit.
    """
    replicates = checked(replicates, "replicates", _REPLICATES, int)
    omega = build_omega(spec)
    errors = np.empty(replicates)
    for r in range(replicates):
        try:
            rng = RandomSource(master_seed, stream_base + r)
            A = sample_adjacency(omega, spec.dist, rng)
            fit = disp(A, spec.K)
            errors[r] = error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c)
        except Exception as exc:
            raise RuntimeError(f"replicate {r} failed: {exc}") from exc
    mean = float(errors.mean())
    std = float(errors.std(ddof=1)) if len(errors) > 1 else 0.0
    return mean, std


def _point_spec(plan: SweepPlan, value) -> ModelSpec:
    if plan.axis == "rho":
        return replace(plan.base, rho=float(value))
    if plan.axis == "alpha_grid":
        P, rho = make_standard_two_block(plan.base.n_r, *value)
        return replace(plan.base, P=P, rho=rho)
    # as a float, so an integer grid value names a bad parameter as the float grid does
    return replace(plan.base, dist=replace(plan.base.dist, **{plan.axis: float(value)}))


def _run_point(plan: SweepPlan, index: int) -> SweepPoint:
    try:
        spec = _point_spec(plan, plan.grid[index])
        mean, std = run_replicates(spec, plan.replicates, plan.master_seed, index * STREAM_STRIDE)
    except ValueError as exc:  # an invalid point; a failed replicate raises RuntimeError
        return SweepPoint(None, None, skipped=str(exc))
    return SweepPoint(mean, std)


def run_sweep(plan: SweepPlan, n_jobs: int = 1) -> SweepResult:
    """Run every grid point; invalid points are recorded as skipped.

    ``n_jobs > 1`` runs the points in that many worker processes, which run
    BLAS at one thread: the records equal the serial records at
    ``OPENBLAS_NUM_THREADS=1``, and at catalogue sizes also those at 2
    threads.  The pool persists for the life of the process.  Its workers
    import the main module, so a script that calls this at top level needs
    an ``if __name__ == "__main__":`` guard.
    """
    n_jobs = checked(n_jobs, "n_jobs", COUNTS, int)
    indices = range(len(plan.grid))
    if n_jobs == 1:
        points = [_run_point(plan, i) for i in indices]
    else:
        points = _run_points_in_pool(plan, n_jobs)
    if all(pt.skipped for pt in points):
        raise InvalidModelError("every grid point is invalid: " + points[0].skipped)
    return SweepResult(plan, tuple(points))


# the run_sweep worker pool and its size; made on first use, kept until exit
_pool = None
_pool_jobs = 0
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_points_in_pool(plan: SweepPlan, n_jobs: int) -> list[SweepPoint]:
    """The points in grid order from the worker pool; a pool found broken is replaced once."""
    from concurrent.futures import BrokenExecutor

    points = []
    for last_try in (False, True):
        remaining = range(len(points), len(plan.grid))
        try:
            for point in _worker_pool(n_jobs).map(_run_point, repeat(plan), remaining):
                points.append(point)
            return points
        except BrokenExecutor:  # a worker died: run the missing points on a new pool, once
            _shut_down_pool()
            if last_try:
                raise


def _worker_pool(n_jobs: int):
    """The ``n_jobs``-process pool, started on first use with BLAS pinned to one thread.

    Workers fork from a forkserver that preloads this module, so numpy
    loads there once with the pinned thread count.  The server does not
    take the caller's ``sys.path`` and ignores a preload it cannot import,
    so the directory holding this package goes first on its ``PYTHONPATH``.
    The caller's environment is restored once the server runs.
    """
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs == n_jobs:
        return _pool
    _shut_down_pool()
    import atexit
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import forkserver

    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([__name__])
    saved = {name: os.environ.get(name) for name in (*_BLAS_THREAD_VARS, "PYTHONPATH")}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, saved["PYTHONPATH"])))
    try:
        forkserver.ensure_running()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    _pool, _pool_jobs = ProcessPoolExecutor(n_jobs, mp_context=context), n_jobs
    atexit.unregister(_stop_workers)
    atexit.register(_stop_workers)
    return _pool


def _shut_down_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None


def _stop_workers() -> None:
    """Shut the pool down, then stop the forkserver and the resource tracker and wait for both."""
    from multiprocessing import forkserver, resource_tracker

    _shut_down_pool()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _float_grid(first: float, last: float, step: float) -> tuple[float, ...]:
    count = int(round((last - first) / step)) + 1
    return tuple(round(first + i * step, 10) for i in range(count))


# the catalogue's member-count shapes: (n_r, n_c, pure rows, pure columns per community)
_BIG = (200, 300, 50, 100)
_SMALL = (30, 50, 10, 20)
_GRID_300 = (300, 300, 50, 100)
_GRID_50 = (50, 50, 10, 20)
_SETUP_16 = (16, 14, 7, 6)
_SETUP_10 = (10, 8, 4, 3)

_BER = EdgeDistribution("bernoulli")
_POI = EdgeDistribution("poisson")
_BIN7 = EdgeDistribution("binomial", m=7)
_NORM = EdgeDistribution("normal", sigma2=1.0)
_EXP = EdgeDistribution("exponential")
_UNI = EdgeDistribution("uniform")
_LOGI = EdgeDistribution("logistic", beta=1.0)
_SGN = EdgeDistribution("signed")


class _Scenario(NamedTuple):
    """One catalogue row: two communities, planted memberships, one swept quantity.

    ``axis`` is ``rho``, ``alpha_grid`` or the law's parameter name.  An
    alpha_grid row pairs every value with every value and takes P and rho
    from its first pair of unequal magnitudes; a rho row starts at its first
    value; a parameter row holds ``rho`` fixed.
    """

    dist: EdgeDistribution
    axis: str
    shape: tuple
    values: tuple
    P: np.ndarray | None = None
    rho: float | None = None


# catalogue order is the CLI's --scenario choice order
_SCENARIOS = {
    "sim1a": _Scenario(_BER, "rho", _BIG, _float_grid(0.1, 1.0, 0.1), _P_POS),
    "sim1b": _Scenario(_BER, "alpha_grid", _GRID_300, _float_grid(1, 30, 1)),
    "sim1c": _Scenario(_BER, "alpha_grid", _GRID_300, _float_grid(5, 50, 2.5)),
    "sim2a": _Scenario(_POI, "rho", _BIG, _float_grid(0.2, 4.0, 0.2), _P_POS),
    "sim2b": _Scenario(_POI, "alpha_grid", _GRID_300, _float_grid(10, 100, 5)),
    "sim2c": _Scenario(_POI, "alpha_grid", _GRID_300, _float_grid(200, 2000, 100)),
    "sim3a": _Scenario(_BIN7, "rho", _BIG, _float_grid(0.2, 2.0, 0.2), _P_POS),
    "sim3b": _Scenario(EdgeDistribution("binomial", m=2), "m", _BIG, _float_grid(2, 20, 2), _P_POS, 2.0),
    "sim3c": _Scenario(_BIN7, "alpha_grid", _GRID_300, _float_grid(1, 20, 1)),
    "sim3d": _Scenario(_BIN7, "alpha_grid", _GRID_300, _float_grid(15, 300, 15)),
    "sim4a": _Scenario(_NORM, "rho", _BIG, _float_grid(0.2, 2.0, 0.2), _P_MIXED),
    "sim4b": _Scenario(EdgeDistribution("normal", sigma2=0.5), "sigma2", _BIG, _float_grid(0.5, 5.0, 0.5), _P_MIXED, 2.0),
    "sim4c": _Scenario(_NORM, "alpha_grid", _GRID_300, _float_grid(-50, 50, 5)),
    "sim4d": _Scenario(_NORM, "alpha_grid", _GRID_300, _float_grid(-500, 500, 50)),
    "sim5a": _Scenario(_EXP, "rho", _BIG, _float_grid(1, 100, 1), _P_POS),
    "sim5b": _Scenario(_EXP, "alpha_grid", _GRID_300, _float_grid(10, 100, 5)),
    "sim5c": _Scenario(_EXP, "alpha_grid", _GRID_300, _float_grid(1000, 10000, 500)),
    "sim6a": _Scenario(_UNI, "rho", _SMALL, _float_grid(1, 100, 1), _P_POS),
    "sim6b": _Scenario(_UNI, "alpha_grid", _GRID_50, _float_grid(10, 100, 5)),
    "sim6c": _Scenario(_UNI, "alpha_grid", _GRID_50, _float_grid(1000, 10000, 500)),
    "sim7a": _Scenario(_LOGI, "rho", _SMALL, _float_grid(0.2, 4.0, 0.2), _P_MIXED),
    "sim7b": _Scenario(EdgeDistribution("logistic", beta=0.1), "beta", _SMALL, _float_grid(0.1, 0.4, 0.05), _P_MIXED, 0.5),
    "sim7c": _Scenario(_LOGI, "alpha_grid", _GRID_50, _float_grid(-50, 50, 5)),
    "sim7d": _Scenario(_LOGI, "alpha_grid", _GRID_50, _float_grid(-500, 500, 50)),
    "sim8a": _Scenario(_SGN, "rho", (100, 150, 30, 60), _float_grid(0.1, 1.0, 0.1), _P_MIXED),
    "sim8b": _Scenario(_SGN, "alpha_grid", (300, 300, 100, 120), _float_grid(-30, 30, 2)),
    "sim8c": _Scenario(_SGN, "alpha_grid", (300, 300, 100, 120), _float_grid(-50, 50, 5)),
    "setup1": _Scenario(_BER, "rho", _SETUP_16, (0.9,), _P_POS_ALT),
    "setup2": _Scenario(_POI, "rho", _SETUP_16, (60.0,), _P_POS_ALT),
    "setup3": _Scenario(_BIN7, "rho", _SETUP_16, (6.0,), _P_POS_ALT),
    "setup4": _Scenario(_NORM, "rho", _SETUP_10, (40.0,), _P_MIXED_ALT),
    "setup5": _Scenario(_EXP, "rho", _SETUP_10, (10.0,), _P_POS_ALT),
    "setup6": _Scenario(_UNI, "rho", _SETUP_10, (10.0,), _P_POS_ALT),
    "setup7": _Scenario(_LOGI, "rho", _SETUP_10, (40.0,), _P_MIXED_ALT),
    "setup8": _Scenario(_SGN, "rho", (32, 28, 14, 12), (0.9,), _P_MIXED_ALT),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario(name: str, replicates: int = 50, master_seed: int = 0) -> SweepPlan:
    """Catalogued sweep plan by name (sim1a..sim8c, setup1..setup8)."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    dist, axis, (n_r, n_c, pure_r, pure_c), grid, P, rho = _SCENARIOS[name]
    if axis == "alpha_grid":
        grid = tuple((a, b) for a in grid for b in grid)  # row-major: alpha_in outer
        P, rho = make_standard_two_block(n_r, *next(p for p in grid if abs(p[0]) != abs(p[1])))
    base = ModelSpec(
        P=P,
        rho=grid[0] if rho is None else rho,
        Pi_r=make_planted_memberships(n_r, 2, pure_r),
        Pi_c=make_planted_memberships(n_c, 2, pure_c),
        dist=dist,
    )
    return SweepPlan(base, axis, grid, replicates, master_seed, scenario=name)

