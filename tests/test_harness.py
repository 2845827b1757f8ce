"""Sweep harness tests: determinism, scenario catalogue, skipping, CSV output."""

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bimix import harness
from bimix.harness import (
    SCENARIO_NAMES,
    STREAM_STRIDE,
    SweepPlan,
    SweepPoint,
    SweepResult,
    run_replicates,
    run_sweep,
    scenario,
)
from bimix.io import plan_from_json
from bimix.model import (
    InvalidModelError,
    ModelSpec,
    make_planted_memberships,
    make_standard_two_block,
    validate_model,
)
from bimix.sampler import PARAM_KINDS, EdgeDistribution

from test_io import spec_to_dict
from test_model import P1


def noiseless_spec(n_r=12, n_c=10):
    # zero-variance normal noise: every replicate reproduces the expectation
    return ModelSpec(P=P1, rho=2.0, Pi_r=make_planted_memberships(n_r, 2, 3),
                     Pi_c=make_planted_memberships(n_c, 2, 2),
                     dist=EdgeDistribution("normal", sigma2=0.0))


class TestRunReplicates:
    def test_noiseless_recovers_exactly(self):
        mean, std = run_replicates(noiseless_spec(), 4, master_seed=1)
        assert mean <= 1e-8
        assert std <= 1e-8

    def test_same_seed_bitwise_identical(self):
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(20, 2, 5),
                         Pi_c=make_planted_memberships(16, 2, 4),
                         dist=EdgeDistribution("bernoulli"))
        a = run_replicates(spec, 6, master_seed=42)
        b = run_replicates(spec, 6, master_seed=42)
        assert a == b

    def test_different_seed_differs(self):
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(20, 2, 5),
                         Pi_c=make_planted_memberships(16, 2, 4),
                         dist=EdgeDistribution("bernoulli"))
        assert run_replicates(spec, 6, 1) != run_replicates(spec, 6, 2)

    def test_invalid_spec_propagates(self):
        spec = ModelSpec(P=P1, rho=1.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        with pytest.raises(InvalidModelError):
            run_replicates(spec, 2, 0)


class TestRunSweep:
    def test_rho_axis_one_record_per_point(self):
        plan = SweepPlan(noiseless_spec(), "rho", (0.5, 1.0, 2.0), replicates=2)
        result = run_sweep(plan)
        assert len(result.points) == 3
        assert all(not pt.skipped for pt in result.points)
        assert all(pt.mean_error <= 1e-8 for pt in result.points)

    def test_alpha_grid_skips_equal_magnitudes(self):
        base = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("normal", sigma2=0.0))
        pairs = tuple((a, b) for a in (1.0, 2.0) for b in (1.0, 2.0))
        plan = SweepPlan(base, "alpha_grid", pairs, replicates=2)
        result = run_sweep(plan)
        skipped = [pt for pt in result.points if pt.skipped]
        active = [pt for pt in result.points if not pt.skipped]
        assert len(skipped) == 2 and len(active) == 2
        assert all("singular" in pt.skipped for pt in skipped)

    def test_invalid_rho_points_recorded_not_fatal(self):
        base = ModelSpec(P=np.array([[1.0, -0.2], [0.3, -0.8]]), rho=0.5,
                         Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2),
                         dist=EdgeDistribution("signed"))
        plan = SweepPlan(base, "rho", (0.5, 1.0), replicates=2)  # 1.0 outside (0, 1)
        result = run_sweep(plan)
        assert not result.points[0].skipped
        assert "interval" in result.points[1].skipped
        # the reason's comma is written as a semicolon, keeping the row's field count
        last = result.to_csv_text().encode().split(b"\n")[-2]
        assert last == b"custom,1.0,,,0,rho=1.0 outside admissible interval (0; 1) for signed,0"

    def test_failed_replicate_raises_not_skipped(self, monkeypatch):
        # a ValueError inside a replicate is a failure, not an invalid point
        def fail(A, K):
            raise ValueError("boom")

        monkeypatch.setattr("bimix.harness.disp", fail)
        plan = SweepPlan(noiseless_spec(), "rho", (0.5, 1.0), replicates=2)
        with pytest.raises(RuntimeError, match="^replicate 0 failed: boom$"):
            run_sweep(plan)

    def test_all_invalid_raises(self):
        base = noiseless_spec(12, 12)
        plan = SweepPlan(base, "alpha_grid", ((1.0, 1.0), (2.0, 2.0)), replicates=2)
        with pytest.raises(InvalidModelError, match="every grid point"):
            run_sweep(plan)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepPlan(noiseless_spec(), "rho", ())

    def test_parallel_matches_serial(self):
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(18, 2, 4),
                         Pi_c=make_planted_memberships(14, 2, 3),
                         dist=EdgeDistribution("poisson"))
        plan = SweepPlan(spec, "rho", (0.5, 1.0, 2.0, 4.0), replicates=3, master_seed=5)
        serial = run_sweep(plan, n_jobs=1)
        parallel = run_sweep(plan, n_jobs=4)
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_parallel_matches_serial_on_krylov_path(self):
        # 300 nodes a side: every fit takes the block Krylov SVD, not LAPACK's
        full = scenario("sim1b", replicates=2, master_seed=11)
        plan = replace(full, grid=full.grid[7::150])
        serial = run_sweep(plan, n_jobs=1)
        assert sum(not pt.skipped for pt in serial.points) >= 4
        assert serial.to_csv_text().encode() == run_sweep(plan, n_jobs=2).to_csv_text().encode()

    def test_non_integer_trial_count_skipped(self):
        # a JSON plan's m = 2.5 is not a trial count; it must not be swept as m = 2
        base = ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(16, 2, 4),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("binomial", m=2))
        plan = plan_from_json({"base": spec_to_dict(base), "axis": "m",
                               "grid": [2.0, 2.5], "replicates": 2})
        first, second = run_sweep(plan).points
        assert not first.skipped
        assert second.skipped == ("binomial parameter m must be an integer in [1, 9223372036854775807], "
                                  "got 2.5")

    def test_dist_param_axis(self):
        base = ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(16, 2, 4),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("binomial", m=2))
        plan = SweepPlan(base, "m", (2.0, 4.0, 8.0), replicates=2)
        result = run_sweep(plan)
        assert result.plan.axis_columns() == ("m",)
        assert len(result.points) == 3


SRC = Path(__file__).resolve().parents[1] / "src"


def krylov_slice():
    """Six valid sim1b points; 300 nodes a side take the Krylov SVD."""
    full = scenario("sim1b", replicates=2, master_seed=11)
    return replace(full, grid=full.grid[7::150])


def python_env(**variables):
    """The environment of a child interpreter that imports bimix from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **variables}


def process_group(pgid):
    """Pids of every process, zombies included, whose process group is ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while the table was read
            continue
        if int(fields[2]) == pgid:  # after the name: state, ppid, pgrp
            members.append(int(stat.parent.name))
    return members


@pytest.fixture(scope="module")
def pinned_serial_csv():
    """``krylov_slice``'s serial CSV, run in a child with BLAS at one thread."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_harness import krylov_slice, run_sweep; "
            "sys.stdout.write(run_sweep(krylov_slice()).to_csv_text())")
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          env=python_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                                         MKL_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


class TestWorkerPool:
    """``n_jobs > 1`` runs points in worker processes with BLAS pinned to one thread."""

    def test_records_equal_serial_at_one_blas_thread(self, pinned_serial_csv):
        assert run_sweep(krylov_slice(), n_jobs=2).to_csv_text() == pinned_serial_csv

    def test_killed_worker_is_replaced(self, pinned_serial_csv):
        plan = krylov_slice()
        run_sweep(plan, n_jobs=2)
        broken = harness._pool
        os.kill(next(iter(broken._processes)), signal.SIGKILL)
        assert run_sweep(plan, n_jobs=2).to_csv_text() == pinned_serial_csv
        assert harness._pool is not broken

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs a /proc file system")
    def test_no_process_outlives_the_caller(self, tmp_path):
        code = ("from dataclasses import replace; from bimix.harness import run_sweep, scenario; "
                "plan = scenario('sim6a', replicates=1); "
                "run_sweep(replace(plan, grid=plan.grid[:8]), n_jobs=2)")
        with open(tmp_path / "err", "w") as err:
            child = subprocess.Popen([sys.executable, "-c", code], env=python_env(),
                                     stderr=err, start_new_session=True)
            assert child.wait(timeout=300) == 0
        left = process_group(child.pid)  # read at once: a slow exit must not hide a leftover
        assert left == []
        assert (tmp_path / "err").read_text() == ""

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs a /proc file system")
    def test_forkserver_preloads_bimix_found_through_sys_path(self, tmp_path):
        # the server ignores the caller's sys.path and swallows the preload's ImportError,
        # so without PYTHONPATH every worker imported numpy on its first task
        script = tmp_path / "main.py"
        script.write_text(
            "import sys\n"
            "if __name__ == '__main__':\n"
            "    sys.path.insert(0, sys.argv[1])\n"
            "    from dataclasses import replace\n"
            "    from multiprocessing import forkserver\n"
            "    from bimix.harness import run_sweep, scenario\n"
            "    plan = scenario('setup1', replicates=1)\n"
            "    run_sweep(replace(plan, grid=plan.grid[:2]), n_jobs=2)\n"
            "    with open(f'/proc/{forkserver._forkserver._forkserver_pid}/maps') as fh:\n"
            "        print('openblas' in fh.read().lower())\n")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(script), str(SRC)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\n"


def reference_point(spec_for, value, index, replicates, seed):
    """(skip reason, mean, std) at one grid point, from the public API alone."""
    try:
        spec = spec_for(value)
    except ValueError as exc:
        return str(exc), None, None
    violations = validate_model(spec)
    if violations:
        return "; ".join(violations), None, None
    return "", *run_replicates(spec, replicates, seed, index * STREAM_STRIDE)


class TestSweepPointContract:
    """Each record equals a point-by-point rebuild; each point is validated once."""

    def alpha_plan(self):
        # equal magnitudes fail the spec build; a negative alpha puts a negative
        # entry in bernoulli's rho * P and alpha 5 fails its rho interval; (1, 2)
        # and (2, 1) run
        base = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("bernoulli"))
        values = (-2.0, 1.0, 2.0, 5.0)
        pairs = tuple((a, b) for a in values for b in values)

        def spec_for(pair):
            P, rho = make_standard_two_block(12, *pair)
            return replace(base, P=P, rho=rho)

        return SweepPlan(base, "alpha_grid", pairs, replicates=2, master_seed=3), spec_for

    def rho_plan(self):
        # signed law: rho = 1.0 lies outside the admissible interval (0, 1)
        base = ModelSpec(P=np.array([[1.0, -0.2], [0.3, -0.8]]), rho=0.5,
                         Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2),
                         dist=EdgeDistribution("signed"))
        plan = SweepPlan(base, "rho", (0.3, 1.0, 0.7), replicates=3, master_seed=8)
        return plan, lambda rho: replace(base, rho=rho)

    @pytest.mark.parametrize("which", ["alpha_plan", "rho_plan"])
    def test_rows_match_point_by_point_reference(self, which):
        plan, spec_for = getattr(self, which)()
        result = run_sweep(plan)
        points = result.points
        rows = [line.split(",") for line in result.to_csv_text().splitlines()[1:]]
        width = len(plan.axis_columns())
        for index, (value, pt, row) in enumerate(zip(plan.grid, points, rows, strict=True)):
            assert [float(cell) for cell in row[1:1 + width]] == np.ravel(value).tolist()
            skipped, mean, std = reference_point(spec_for, value, index, plan.replicates,
                                                 plan.master_seed)
            assert (pt.skipped, pt.mean_error, pt.std_error) == (skipped, mean, std)
        assert {bool(pt.skipped) for pt in points} == {True, False}

    @pytest.mark.parametrize("which", ["alpha_plan", "rho_plan"])
    def test_one_validation_per_grid_point(self, which, monkeypatch):
        plan, spec_for = getattr(self, which)()
        reached = 0  # points whose spec builds, so validation decides them
        for value in plan.grid:
            try:
                spec_for(value)
            except ValueError:
                continue
            reached += 1
        calls = []

        def counting(spec):
            calls.append(spec)
            return validate_model(spec)

        # patch every reference to validate_model the package holds
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bimix" and getattr(module, "validate_model", None) is validate_model:
                monkeypatch.setattr(module, "validate_model", counting)
        run_sweep(plan)
        assert len(calls) == reached


class TestCSV:
    def test_skip_reason_commas_become_semicolons(self):
        plan = SweepPlan(noiseless_spec(), "rho", (0.5, 2.0), replicates=3, master_seed=4,
                         scenario="demo")
        result = SweepResult(plan, (
            SweepPoint(0.25, 0.0625),
            SweepPoint(None, None, skipped="outside (0, 1], for a, b"),
        ))
        assert result.to_csv_text().encode() == (
            b"scenario,rho,mean_error,std_error,replicates,skipped,seed\n"
            b"demo,0.5,0.25,0.0625,3,,4\n"
            b"demo,2.0,,,0,outside (0; 1]; for a; b,4\n"
        )

    def test_header_and_shape(self, tmp_path):
        plan = SweepPlan(noiseless_spec(), "rho", (0.5, 1.0), replicates=2, master_seed=9,
                         scenario="demo")
        result = run_sweep(plan)
        out = tmp_path / "sweep.csv"
        result.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,rho,mean_error,std_error,replicates,skipped,seed"
        assert len(lines) == 3
        assert lines[1].startswith("demo,0.5,")
        assert lines[1].endswith(",9")

    def test_rerun_byte_identical(self):
        plan = SweepPlan(noiseless_spec(), "rho", (0.5, 1.0), replicates=2)
        assert run_sweep(plan).to_csv_text() == run_sweep(plan).to_csv_text()


# SHA-256 of json.dumps([axis, param, grid, spec_to_dict(base)]) for every
# catalogued plan, recorded from the hand-written catalogue: any edit to a
# scenario's model or grid shows here.  They were recorded when a law
# parameter sweep had axis "dist_param" and named the parameter in param
# (None on the other axes), so the test rebuilds that pair
CATALOGUE_DIGESTS = {
    "sim1a": "35939afe9cfba2fe45f08191965815c39b7331bb0eca552878ab46e52add7dc1",
    "sim1b": "2fc7fb591f8457e492b63b1fb2d2c1ae14f4cb6e7133ea314b0bbc8c96fe71f9",
    "sim1c": "033f704d7793179b8d82898ca5621fea383d54113b094d789788742ad291cff6",
    "sim2a": "5bd374e5fc0ab34b0aaf399af1fa4d9559a17a470f86d13fe9239d6e56de11de",
    "sim2b": "47e9af2d4f601c57deefd70b0c4d121b666c9fa4811635615c984290f346b3ac",
    "sim2c": "911383c965c4630d99fa01971395b3082656335070ea45f7af10f7b8ddb25bc8",
    "sim3a": "97bb264488c08fc08d32080f163df6a526b8a148d7b12689c8a40f8d89555ea8",
    "sim3b": "9ed6b86aee507da97e125d52b99abc40ff9726734d6cd01c279c84631d753afa",
    "sim3c": "baf16b65a057236647afbb3b5d5e8ea22ad34333c47c7f799a31d1091987e7a5",
    "sim3d": "32f0b9b039f21a5f1f775e9ecdec32554c01da15f29f3a682e8f4443920064ee",
    "sim4a": "06ae7771ce3e5d2aa5ea5e42354194a9312d99527db3064f0be68801b6d849f7",
    "sim4b": "3a70e5c4a7444ff4dad56ac100c39e80db5e71e344b7d74b7c7178e02814cff1",
    "sim4c": "cf5ff42ae131dd81e2fbd041273159096c46b8d5798c0297c1677c0b25317ee6",
    "sim4d": "daa272d2e6d1d84acddd3cb4949d48d33384f0437f2b553a1b5a9c6bfe564727",
    "sim5a": "f08c5315f186abf0029d7064866390f9319b1633c8de1028e509676158ee1a29",
    "sim5b": "c8d25d8bb98eab098a57dc099b611933e2e6dae3b1a9e4461be6c7fc3e9642fc",
    "sim5c": "c2597e23bf94e425604ed3039cc7c79020a2b2eab021758fcece4b182a399e02",
    "sim6a": "013b86bdbc1a62ffd58c72f9437fa60b506ad350babe168fff40754f559053c1",
    "sim6b": "8cb08a2ca9711f3f86c08cc0e9cf6f40041cb89f25ca54cdf5f48d250833a21c",
    "sim6c": "91bee76f2d5d7cba4222b8136fc412abfd0ad8b1a12681bd8df79d88d6a12f46",
    "sim7a": "175c89e31fe036aa8c105c5726b128d33ca7713ed06adabeac908f166a2315be",
    "sim7b": "4382fa9585824e705e629fe669ec6b5047b067104b26f00a1d0e19d23abf811c",
    "sim7c": "af225bd4bc7c3bb360f4414a83fbfbe5990a453c7b10a0f0e5cb56051f30620d",
    "sim7d": "da37cf8cea62e497a1944d300417bcdeba6d6f91aa04a8c05329172716254c70",
    "sim8a": "07e1a1f99a0bf6e38fe2b653cf49b4e345b3993de0622879bf3449975d02b3d4",
    "sim8b": "b5d6bddd135b88453d820c10112e8995abac470f2f2ff17686af1fdce60a7f76",
    "sim8c": "7c1fc6a8a95afcfb0cd5586a9f8d6a5df6104bbe5a69bbe0bdce6e54120c447d",
    "setup1": "282ac179c1dda9d588053705595d5483ea739a4331b1182e7965f2253e4998cf",
    "setup2": "64f358f16cb86cc56f620aa05a9469b5561979aad6fef5fd0577581350c519da",
    "setup3": "37000e5c5a28484e48dac7f8a7a08e6585687aa7689f057e7d9220be143cf7ec",
    "setup4": "c0679564b1bc276401a6528867066e6f446066f7972b01ae758766de32d1488b",
    "setup5": "377e2055c0669f1374489dd44bbf400271ce9aff0b5d88876328acbd6439c0f7",
    "setup6": "120ee6973e6a0c41cf015ef7cd6a8a7996e5d607b68f8410035ea0c5340852bc",
    "setup7": "e0c872289264b3086a0e435d61146b6607fbdc2993998c41205faf95f4497583",
    "setup8": "61ea7ad22699326a9f8db5663b6c88d4e5c951a552ae2dbf86b4f968aa091f7d",
}


class TestScenarioCatalogue:
    def test_catalogue_pinned(self):
        assert SCENARIO_NAMES == tuple(CATALOGUE_DIGESTS)
        for name in SCENARIO_NAMES:
            plan = scenario(name)
            # the digests hash the layouts they were recorded in: the old axis name and sizes
            axis = ("dist_param", plan.axis) if plan.axis in PARAM_KINDS else (plan.axis, None)
            base = plan.base
            sizes = {"n_r": base.n_r, "n_c": base.n_c, "K": base.K}
            doc = json.dumps([*axis, plan.grid, {**sizes, **spec_to_dict(base)}])
            assert hashlib.sha256(doc.encode()).hexdigest() == CATALOGUE_DIGESTS[name], name

    def test_all_names_build(self):
        for name in SCENARIO_NAMES:
            plan = scenario(name, replicates=3, master_seed=1)
            assert plan.scenario == name
            assert plan.replicates == 3

    def test_sim1a_grid(self):
        plan = scenario("sim1a")
        assert plan.axis == "rho"
        assert plan.grid == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert plan.base.n_r == 200 and plan.base.n_c == 300
        assert plan.base.dist.kind == "bernoulli"
        np.testing.assert_allclose(plan.base.P, P1)

    def test_sim1b_alpha_grid(self):
        plan = scenario("sim1b")
        assert plan.axis == "alpha_grid"
        assert len(plan.grid) == 900
        assert plan.base.n_r == plan.base.n_c == 300

    def test_sim3b_binomial_m_grid(self):
        plan = scenario("sim3b")
        assert plan.axis == "m"
        assert plan.grid == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
        assert plan.base.dist.kind == "binomial"
        assert plan.base.rho == 2.0
        assert plan.base.n_r == 200 and plan.base.n_c == 300

    def test_setup5_parameterization(self):
        plan = scenario("setup5")
        spec = plan.base
        assert spec.dist.kind == "exponential"
        assert spec.n_r == 10 and spec.n_c == 8
        assert spec.rho == 10.0
        # 4 pure rows per community, 3 pure columns per community
        assert np.sum(np.any(spec.Pi_r == 1.0, axis=1)) == 8
        assert np.sum(np.any(spec.Pi_c == 1.0, axis=1)) == 6
        np.testing.assert_allclose(spec.P, [[1.0, 0.2], [0.1, 0.9]])

    def test_setup8_parameterization(self):
        plan = scenario("setup8")
        spec = plan.base
        assert spec.dist.kind == "signed"
        assert (spec.n_r, spec.n_c, spec.rho) == (32, 28, 0.9)
        np.testing.assert_allclose(spec.P, [[1.0, -0.2], [0.1, -0.9]])

    def test_sim7b_beta_grid(self):
        plan = scenario("sim7b")
        assert plan.axis == "beta"
        assert plan.grid == (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
        assert plan.base.rho == 0.5

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("sim9x")


class TestMonotoneRhoResponse:
    @pytest.mark.parametrize("name", ["sim2a", "sim3a", "sim4a"])
    def test_largest_rho_beats_smallest(self, name):
        # poisson, binomial and normal scenarios: more scale, less error
        plan = scenario(name)
        low, _ = run_replicates(replace_rho(plan.base, plan.grid[0]), 50, 31, stream_base=0)
        high, _ = run_replicates(replace_rho(plan.base, plan.grid[-1]), 50, 31, stream_base=1 << 20)
        assert high < low


def replace_rho(spec, rho):
    from dataclasses import replace

    return replace(spec, rho=float(rho))


class TestPlanJSON:
    def test_full_plan_roundtrip(self):
        base = noiseless_spec()
        data = {
            "base": spec_to_dict(base),
            "axis": "rho",
            "grid": [0.5, 1.0],
            "replicates": 2,
            "master_seed": 11,
            "name": "custom-check",
        }
        plan = plan_from_json(data)
        assert plan.scenario == "custom-check"
        result = run_sweep(plan)
        assert all(pt.mean_error <= 1e-8 for pt in result.points)

    def test_full_alpha_grid_plan(self):
        base = noiseless_spec(12, 12)
        plan = plan_from_json({"base": spec_to_dict(base), "axis": "alpha_grid",
                               "grid": [[1, 2], [3, 4.5]]})
        assert plan.axis == "alpha_grid"
        assert plan.grid == ((1.0, 2.0), (3.0, 4.5))
        assert (plan.replicates, plan.master_seed, plan.scenario) == (50, 0, "custom")

    @pytest.mark.parametrize("seed", [-1, 2**64, 3.9, math.inf, math.nan])
    def test_unusable_seed_rejected_when_built(self, seed):
        # no replicate could draw from it, so the plan must not build; inf
        # raised OverflowError, and nan int()'s own message
        message = f"^{re.escape(f'seed must be an integer in [0, {2**64}), got {seed!r}')}$"
        full = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5]}
        with pytest.raises(ValueError, match=message):
            scenario("sim1a", master_seed=seed)
        with pytest.raises(ValueError, match=message):
            plan_from_json({**full, "master_seed": seed})

    @pytest.mark.parametrize("given, expected", [
        ({"replicates": 7}, (7, 0)),
        ({"master_seed": 3}, (50, 3)),
        ({}, (50, 0)),
    ])
    def test_missing_keys_take_plan_defaults(self, given, expected):
        full = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5]}
        plan = plan_from_json({**full, **given})
        assert (plan.replicates, plan.master_seed) == expected

    @pytest.mark.parametrize("replicates", [0, 2.7, STREAM_STRIDE, math.inf, math.nan])
    def test_unusable_replicate_count_rejected_when_built(self, replicates):
        # a fractional count is not truncated to a smaller one; inf raised
        # OverflowError, and nan int()'s own message
        message = re.escape(f"replicates must be an integer in [1, {STREAM_STRIDE}), got {replicates}")
        full = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5]}
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenario("sim1a", replicates=replicates)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepPlan(noiseless_spec(), "rho", (0.5,), replicates=replicates)
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_from_json({**full, "replicates": replicates})

    @pytest.mark.parametrize("replicates", [True, np.True_], ids=repr)
    def test_boolean_replicate_count_rejected_when_built(self, replicates):
        # a bool is an int to Python, so True ran one replicate
        message = re.escape(f"replicates must be an integer in [1, {STREAM_STRIDE}), got {replicates!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepPlan(noiseless_spec(), "rho", (0.5,), replicates=replicates)
        with pytest.raises(ValueError, match=f"^{message}$"):
            scenario("sim1a", replicates=replicates)

    @pytest.mark.parametrize("key, message", [
        ("replicates", f"replicates must be an integer in [1, {STREAM_STRIDE}), got True"),
        ("master_seed", f"seed must be an integer in [0, {2**64}), got True"),
    ], ids=["replicates", "master_seed"])
    def test_boolean_count_or_seed_rejected(self, key, message):
        # true once ran as 1; SweepPlan checks both, as it does for the Python API
        full = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            plan_from_json({**full, key: True})

    @pytest.mark.parametrize("axis, base, ints, skipped", [
        ("rho", noiseless_spec(), [1, 2], ""),
        ("alpha_grid", noiseless_spec(12, 12), [[1, 2], [3, -3]], "singular"),
        ("m", ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(16, 2, 4),
                        Pi_c=make_planted_memberships(12, 2, 3), dist=EdgeDistribution("binomial", m=2)),
         [0, 2], "got 0.0"),
    ], ids=["rho", "alpha_grid", "m"])
    def test_integer_grid_writes_the_float_grid_bytes(self, axis, base, ints, skipped):
        floats = np.asarray(ints, dtype=float).tolist()
        texts = []
        for grid in (ints, floats):
            plan = plan_from_json({"base": spec_to_dict(base), "axis": axis, "grid": grid,
                                   "replicates": 2, "master_seed": 5})
            texts.append(run_sweep(plan).to_csv_text())
        assert texts[0] == texts[1]
        assert skipped in texts[0]

    def test_misspelled_plan_key_rejected(self):
        # "replicate" once ran silently with the default 50 replicates
        data = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5], "replicate": 5}
        message = re.escape("a plan takes only the keys base, axis, grid, replicates, master_seed, "
                            "name; got 'replicate'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_from_json(data)

    @pytest.mark.parametrize("bad", [{"replicates": True}, {"grid": None}, {"base": 3},
                                     {"axis": "dist_param"}], ids=["replicates", "grid", "base", "axis"])
    def test_unknown_key_named_before_any_value(self, bad):
        data = {"base": spec_to_dict(noiseless_spec()), "axis": "rho", "grid": [0.5],
                **bad, "replicate": 5}
        message = re.escape("a plan takes only the keys base, axis, grid, replicates, master_seed, "
                            "name; got 'replicate'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_from_json(data)


class TestPlanAxis:
    """A plan names its axis as the CSV header does and checks its grid when built."""

    def binomial_spec(self):
        return ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(16, 2, 4),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("binomial", m=2))

    def test_old_dist_param_axis_rejected(self):
        message = re.escape(
            "unknown axis 'dist_param'; expected one of ('rho', 'alpha_grid', 'm', 'sigma2', 'beta')"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepPlan(self.binomial_spec(), "dist_param", (2.0,))
        # the old layout's 'param' key is named before its axis is read
        message = re.escape("a plan takes only the keys base, axis, grid, replicates, master_seed, "
                            "name; got 'param'")
        with pytest.raises(ValueError, match=f"^{message}$"):
            plan_from_json({"base": spec_to_dict(self.binomial_spec()), "axis": "dist_param",
                            "param": "m", "grid": [2.0]})

    @pytest.mark.parametrize("axis, law", [("m", "binomial"), ("sigma2", "normal"),
                                           ("beta", "logistic")])
    def test_law_parameter_needs_its_law(self, axis, law):
        base = noiseless_spec() if axis == "m" else self.binomial_spec()  # normal, binomial
        with pytest.raises(ValueError, match=f"^axis '{axis}' requires a {law} base distribution$"):
            SweepPlan(base, axis, (2.0,))

    @pytest.mark.parametrize("axis, value, shape", [
        ("alpha_grid", 2.0, "a pair of finite numbers"),
        ("alpha_grid", (1.0, 2.0, 3.0), "a pair of finite numbers"),
        ("alpha_grid", (1.0, float("nan")), "a pair of finite numbers"),
        ("rho", (1.0, 2.0), "one finite number"),
        ("rho", "0.5", "one finite number"),
    ])
    def test_grid_value_shape_checked_when_built(self, axis, value, shape):
        first = (1.0, 2.0) if axis == "alpha_grid" else 0.5
        message = re.escape(f"{axis} grid value must be {shape}, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepPlan(noiseless_spec(12, 12), axis, (first, value))

    @pytest.mark.parametrize("axis, value, shown", [
        ("alpha_grid", 2, "2"),
        ("alpha_grid", [1, 2, 3], "[1, 2, 3]"),
        ("rho", [1, 2], "[1, 2]"),
        ("rho", None, "None"),
        ("rho", "0.5", "'0.5'"),  # once ran as 0.5
        ("rho", True, "True"),  # once ran as 1.0
        ("alpha_grid", [1, True], "[1, True]"),
    ])
    def test_plan_document_grid_checked(self, axis, value, shown):
        first = [1.0, 2.0] if axis == "alpha_grid" else 0.5
        data = {"base": spec_to_dict(noiseless_spec(12, 12)), "axis": axis, "grid": [first, value]}
        with pytest.raises(ValueError, match=rf"^{axis} grid value must be .*, got {re.escape(shown)}$"):
            plan_from_json(data)

    def test_alpha_pairs_stored_as_tuples_keeping_element_types(self):
        plan = SweepPlan(noiseless_spec(12, 12), "alpha_grid", [[1, 2], (3, 4.5)])
        assert plan.grid == ((1, 2), (3, 4.5))
        assert [type(v) for pair in plan.grid for v in pair] == [int, int, int, float]
