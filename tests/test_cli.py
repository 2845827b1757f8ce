"""End-to-end command-line interface tests."""

import json

import numpy as np
import pytest

from bimix.cli import main
from bimix.disp import disp
from bimix.harness import STREAM_STRIDE, scenario
from bimix.ingest import load_edge_list
from bimix.io import load_matrix_csv, save_matrix_csv
from bimix.metrics import error_rate
from bimix.model import ModelSpec, build_omega, make_planted_memberships
from bimix.sampler import EdgeDistribution

from test_io import savetxt_bytes, spec_to_dict
from test_model import P1


def setup1_plan(**changes):
    """A rho plan on setup1's base, with base keys changed (None removes the key)."""
    base = {**spec_to_dict(scenario("setup1").base), **changes}
    base = {key: value for key, value in base.items() if value is not None}
    return {"base": base, "axis": "rho", "grid": [0.5], "replicates": 2}


@pytest.fixture
def spec():
    return ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(20, 2, 5),
                     Pi_c=make_planted_memberships(16, 2, 4),
                     dist=EdgeDistribution("bernoulli"))


class TestFit:
    def test_fit_from_dense_csv(self, tmp_path, spec):
        omega = build_omega(spec)
        adj = tmp_path / "a.csv"
        save_matrix_csv(omega, adj)
        prefix = str(tmp_path / "fit_")
        assert main(["fit", str(adj), "--k", "2", "--out-prefix", prefix]) == 0
        pi_r = load_matrix_csv(prefix + "rows.csv")
        pi_c = load_matrix_csv(prefix + "cols.csv")
        assert error_rate(pi_r, spec.Pi_r, pi_c, spec.Pi_c) <= 1e-8
        diag = json.loads((tmp_path / "fit_diagnostics.json").read_text())
        assert len(diag["singular_values"]) == 2
        assert len(diag["pure_rows"]) == 2

    def test_reader_follows_file_name(self, tmp_path, spec, capsys):
        # every adjacency file is dense CSV: a .tsv or .txt name, in any case, changes nothing
        omega = build_omega(spec)
        names = ("a.tsv", "a.txt", "A.TSV", "a.Txt", "a.csv")
        outputs = {}
        for name in names:
            save_matrix_csv(omega, tmp_path / name)
            prefix = str(tmp_path / f"{name}_")
            assert main(["fit", str(tmp_path / name), "--k", "2", "--out-prefix", prefix]) == 0
            capsys.readouterr()
            assert main(["estimate-k", str(tmp_path / name), "--k-max", "6"]) == 0
            files = [(tmp_path / f"{name}_{part}").read_bytes()
                     for part in ("rows.csv", "cols.csv", "diagnostics.json")]
            outputs[name] = (files, capsys.readouterr().out)
        for name in names[:-1]:
            assert outputs[name] == outputs["a.csv"], name

    def test_rank_one_input_diagnostics(self, tmp_path):
        # one row node linked to every column: rank 1 < K = 2; the fit still
        # succeeds and its diagnostics show the uniform-fallback rows
        A = np.zeros((20, 16))
        A[0] = 1.0
        adj = tmp_path / "a.csv"
        save_matrix_csv(A, adj)
        prefix = str(tmp_path / "fit_")
        assert main(["fit", str(adj), "--k", "2", "--out-prefix", prefix]) == 0
        diag = json.loads((tmp_path / "fit_diagnostics.json").read_text())
        pi_r = load_matrix_csv(prefix + "rows.csv")
        assert diag["singular_values"][1] <= 1e-12 * diag["singular_values"][0]
        assert diag["noise_edge"] == 0.0 and diag["rank_deficient"] is True
        assert diag["degenerate_rows"] == int(np.all(pi_r == 0.5, axis=1).sum()) > 0
        assert isinstance(diag["degenerate_cols"], int)

    def test_diagnostics_golden_bytes(self, tmp_path):
        # recorded from `bimix fit`, whose radius comes from the noise edge;
        # row 4 has no edges
        A = np.array([[3, 2, 2, 3, 2, 3, 3, 0], [0, 1, 1, 3, 3, 0, 1, 3], [0, 3, 0, 1, 3, 1, 1, 1],
                      [2, 1, 3, 1, 1, 2, 2, 2], [0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 3, 0, 3, 2, 0, 0],
                      [1, 0, 0, 2, 3, 1, 3, 3], [3, 2, 1, 2, 1, 1, 1, 0], [3, 0, 0, 0, 3, 2, 3, 0]],
                     dtype=float)
        save_matrix_csv(A, tmp_path / "a.csv")
        prefix = str(tmp_path / "fit_")
        assert main(["fit", str(tmp_path / "a.csv"), "--k", "2", "--out-prefix", prefix]) == 0
        assert (tmp_path / "fit_diagnostics.json").read_bytes() == (
            b'{\n  "k": 2,\n  "n_r": 9,\n  "n_c": 8,\n  "singular_values": [\n'
            b'    12.880150146192161,\n    5.199631549735536\n  ],\n'
            b'  "pure_rows": [\n    1,\n    0\n  ],\n  "pure_cols": [\n    7,\n    0\n  ],\n'
            b'  "cond_row_vertices": 1.2921525176485396,\n'
            b'  "cond_col_vertices": 1.1300302269275473,\n'
            b'  "noise_edge": 4.507650044880752,\n'
            b'  "degenerate_rows": 1,\n  "degenerate_cols": 0,\n  "rank_deficient": false\n}\n'
        )

    def test_bad_input_returns_nonzero(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["fit", str(missing), "--k", "2"]) == 1

    def test_token_ids_as_positions_named(self, tmp_path, capsys):
        # a node-token edge list is not a matrix: fit names its first line and writes nothing
        line = "9999162\t9999161\t1.0"
        edges = tmp_path / "edges.tsv"
        edges.write_text(line + "\n")
        assert main(["fit", str(edges), "--k", "2", "--out-prefix", str(tmp_path / "fit_")]) == 1
        assert capsys.readouterr().err == f"error: {edges}, line 1: cannot read {line!r} as a number\n"
        assert not list(tmp_path.glob("fit_*"))


class TestEval:
    def test_metrics_json(self, tmp_path, spec, capsys):
        est_r = tmp_path / "er.csv"
        est_c = tmp_path / "ec.csv"
        save_matrix_csv(spec.Pi_r, est_r)
        save_matrix_csv(spec.Pi_c, est_c)
        true_r = tmp_path / "tr.csv"
        true_c = tmp_path / "tc.csv"
        save_matrix_csv(spec.Pi_r, true_r)
        save_matrix_csv(spec.Pi_c, true_c)
        assert main(["eval", "--est-rows", str(est_r), "--est-cols", str(est_c),
                     "--true-rows", str(true_r), "--true-cols", str(true_c)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["error_rate"] == 0.0
        assert out["eta_r"] == 0.5  # mixed planted rows count as highly mixed
        assert "hamm_rc" not in out  # row/column node counts differ here

    def test_hamm_included_for_square(self, tmp_path, capsys):
        pi = make_planted_memberships(10, 2, 3)
        est_r = tmp_path / "er.csv"
        est_c = tmp_path / "ec.csv"
        save_matrix_csv(pi, est_r)
        save_matrix_csv(pi[:, ::-1], est_c)
        assert main(["eval", "--est-rows", str(est_r), "--est-cols", str(est_c)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hamm_rc"] == 0.0

    @pytest.mark.parametrize("bad_file, message", [
        ("er.csv", "Pi_hat at entry (3, 1) is nan, outside (-inf, inf)"),
        ("tc.csv", "Pi_c at entry (3, 1) is nan, outside (-inf, inf)"),
    ], ids=["estimate", "truth"])
    def test_nan_membership_rejected_without_output(self, tmp_path, capsys, bad_file, message):
        # a nan cell once gave "error_rate": Infinity or NaN and exit status 0
        pi = make_planted_memberships(10, 2, 3)
        paths = {name: tmp_path / name for name in ("er.csv", "ec.csv", "tr.csv", "tc.csv")}
        for path in paths.values():
            save_matrix_csv(pi, path)
        bad = pi.copy()
        bad[3, 1] = np.nan
        save_matrix_csv(bad, paths[bad_file])
        assert main(["eval", "--est-rows", str(paths["er.csv"]), "--est-cols", str(paths["ec.csv"]),
                     "--true-rows", str(paths["tr.csv"]), "--true-cols", str(paths["tc.csv"])]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("given, missing", [("--true-rows", "--true-cols"),
                                                ("--true-cols", "--true-rows")])
    def test_one_truth_flag_alone_rejected(self, tmp_path, capsys, given, missing):
        # no file is read: the estimate paths do not exist either
        absent = [str(tmp_path / name) for name in ("er.csv", "ec.csv", "truth.csv")]
        assert main(["eval", "--est-rows", absent[0], "--est-cols", absent[1],
                     given, absent[2]]) == 1
        assert capsys.readouterr().err == f"error: {missing} is required with {given}\n"

    def test_one_community_fit_has_no_mixed_node(self, tmp_path, spec, capsys):
        # every weight of a K=1 fit is 1; the cutoff's old range check refused every K=1 input
        save_matrix_csv(build_omega(spec), tmp_path / "a.csv")
        prefix = str(tmp_path / "fit_")
        assert main(["fit", str(tmp_path / "a.csv"), "--k", "1", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        assert main(["eval", "--est-rows", prefix + "rows.csv", "--est-cols", prefix + "cols.csv"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eta_r"] == out["eta_c"] == 0.0


class TestEmptyMatrixCSV:
    @pytest.mark.parametrize("text", ["", "# no data\n"], ids=["empty", "comments-only"])
    @pytest.mark.parametrize("command", ["fit", "estimate-k", "eval"])
    def test_rejected_naming_the_file(self, tmp_path, capsys, text, command):
        empty = tmp_path / "m.csv"
        empty.write_text(text)
        argv = {"fit": ["fit", str(empty), "--k", "2", "--out-prefix", str(tmp_path / "f_")],
                "estimate-k": ["estimate-k", str(empty)],
                "eval": ["eval", "--est-rows", str(empty), "--est-cols", str(empty)]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {empty} holds no matrix rows\n"
        assert not (tmp_path / "f_rows.csv").exists()


class TestSweep:
    def test_scenario_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--scenario", "setup5", "--seed", "3",
                     "--replicates", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario,rho,")
        assert len(lines) == 2

    def test_config_plan(self, tmp_path):
        base = ModelSpec(P=P1, rho=2.0, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2),
                         dist=EdgeDistribution("normal", sigma2=0.0))
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({
            "base": spec_to_dict(base), "axis": "rho", "grid": [1.0, 2.0],
            "replicates": 2, "master_seed": 4,
        }))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("flag", [["--seed", "99"], ["--replicates", "7"]])
    def test_config_rejects_scenario_options(self, tmp_path, capsys, flag):
        # a plan file carries its own seed and replicate count
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({**setup1_plan(), "master_seed": 4}))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), *flag, "--out", str(out)]) == 1
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_unusable_seed_rejected_before_any_point(self, tmp_path, capsys, seed):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--scenario", "setup1", "--seed", seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: seed must be an integer in [0, 18446744073709551616), got {seed}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("given, message", [
        ({"axis": "rho", "grid": [0.5], "replicates": 2.7},
         f"replicates must be an integer in [1, {STREAM_STRIDE}), got 2.7"),
        ({"axis": "rho", "grid": [0.5], "master_seed": 3.9},
         "seed must be an integer in [0, 18446744073709551616), got 3.9"),
        ({"axis": "rho", "grid": [[1.0, 2.0]]}, "rho grid value must be one finite number, got [1.0, 2.0]"),
        ({"axis": "alpha_grid", "grid": [2.0]},
         "alpha_grid grid value must be a pair of finite numbers, got 2.0"),
        ({"axis": "dist_param", "grid": [1.0]},
         "unknown axis 'dist_param'; expected one of ('rho', 'alpha_grid', 'm', 'sigma2', 'beta')"),
        # the old layout: its 'param' key is named before its axis is read
        ({"axis": "dist_param", "param": "sigma2", "grid": [1.0]},
         "a plan takes only the keys base, axis, grid, replicates, master_seed, name; got 'param'"),
    ])
    def test_config_plan_checked_before_any_point(self, tmp_path, capsys, given, message):
        base = ModelSpec(P=P1, rho=2.0, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(12, 2, 3),
                         dist=EdgeDistribution("normal", sigma2=0.0))
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({"base": spec_to_dict(base), **given}))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data, message", [
        ([setup1_plan()], "a plan document must be an object, got a list"),
        # a scenario reference once ran the catalogue's grid; bimix sweep --scenario does that
        ({"scenario": "setup1", "replicates": 2, "master_seed": 4},
         "a plan takes only the keys base, axis, grid, replicates, master_seed, name; got 'scenario'"),
        (setup1_plan(Pi_r=None), "the model spec has no key 'Pi_r'"),
        # the sizes come from the matrices: a copy, even a matching one, is refused
        (setup1_plan(K=2, n_r=16), "the model spec takes only the keys rho, P, Pi_r, Pi_c, dist; "
                                   "got 'K', 'n_r'"),
        (setup1_plan(n_c=14), "the model spec takes only the keys rho, P, Pi_r, Pi_c, dist; got 'n_c'"),
        (setup1_plan(K=2), "the model spec takes only the keys rho, P, Pi_r, Pi_c, dist; got 'K'"),
        (setup1_plan(dist="bernoulli"), "the model spec's 'dist' must be an object, got a string"),
        # an empty membership matrix raised IndexError from validate_model's rank rule
        *((setup1_plan(**{field: [[], []]}), f"every grid point is invalid: {field}: has 0 columns, "
                                              f"expected K=2; {field}: row 0 sums to 0.0, must be 1 within 1e-12")
          for field in ("Pi_r", "Pi_c")),
        ({**setup1_plan(), "grid": None}, "grid must be a nonempty sequence, got None"),
        ({**setup1_plan(), "base": 3}, "a plan's 'base' must be an object, got a number"),
        ({key: value for key, value in setup1_plan().items() if key != "grid"},
         "a plan has no key 'grid'"),
        ({**setup1_plan(), "name": ["x"]},
         "scenario name must be a string without a comma, a double quote or a line break, got ['x']"),
        *(({**setup1_plan(), "name": name},
           f"scenario name must be a string without a comma, a double quote or a line break, got {name!r}")
          for name in ("a,b", 'a"b', "a\nb", "a\rb")),
    ], ids=["list", "scenario-reference", "no-Pi_r", "K-and-n_r", "n_c", "K", "dist-string",
            "Pi_r-no-columns", "Pi_c-no-columns",
            "null-grid", "base-number", "no-grid", "name-list",
            "name-comma", "name-quote", "name-newline", "name-return"])
    def test_unreadable_plan_document_named(self, tmp_path, capsys, data, message):
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_out_directory_rejected_before_any_point(self, tmp_path, capsys, monkeypatch):
        # the whole sweep once ran before the CSV's open failed
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("bimix.cli.run_sweep", no_sweep)
        out = tmp_path / "missing" / "r.csv"
        assert main(["sweep", "--scenario", "setup1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: no directory {out.parent}\n"
        assert not out.parent.exists()

    def test_out_directory_rejected_before_any_point(self, tmp_path, capsys, monkeypatch):
        # the whole sweep once ran before the CSV's open failed with [Errno 21]
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("bimix.cli.run_sweep", no_sweep)
        out = tmp_path / "r.csv"
        out.mkdir()
        assert main(["sweep", "--scenario", "setup1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: it is a directory\n"
        assert [path.name for path in tmp_path.rglob("*")] == ["r.csv"]

    def test_unwritable_out_directory_rejected_before_any_point(self, tmp_path, capsys, monkeypatch):
        # a root user may write anywhere, so the directory's mode cannot stage this
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("bimix.cli.run_sweep", no_sweep)
        monkeypatch.setattr("os.access", lambda path, mode: False)
        out = tmp_path / "r.csv"
        assert main(["sweep", "--scenario", "setup1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: directory {tmp_path} is not writable\n"
        assert list(tmp_path.iterdir()) == []

    def test_jobs_write_the_serial_bytes(self, tmp_path):
        # 300 nodes a side: every fit takes the block Krylov SVD
        full = scenario("sim1b", replicates=2, master_seed=11)
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({
            "base": spec_to_dict(full.base), "axis": "alpha_grid", "grid": full.grid[7::150],
            "replicates": 2, "master_seed": 11, "name": "sim1b",
        }))
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main(["sweep", "--config", str(config), "--jobs", jobs, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 7  # the header and six points

    def test_jobs_below_one_rejected(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--scenario", "setup1", "--jobs", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_jobs must be an integer in [1, inf), got 0\n"
        assert not out.exists()

    def test_scenario_defaults(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--scenario", "setup5", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",50,,0")


class TestIngest:
    def test_dense_and_summary(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        edges.write_text("% comment\n1\t2\t1\n2\t1\t-1\n2\t3\t2\n")
        dense = tmp_path / "a.csv"
        summary = tmp_path / "s.json"
        assert main(["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]) == 0
        A = load_matrix_csv(dense)
        assert A.shape == (3, 3)
        stats = json.loads(summary.read_text())
        assert stats["n"] == 3 and stats["edges"] == 3
        assert stats["min_weight"] == -1.0 and stats["max_weight"] == 2.0

    def test_single_edge_two_nodes(self, tmp_path):
        # every node of a loaded edge list is an endpoint, so none is isolated
        edges = tmp_path / "e.tsv"
        edges.write_text("1\t2\t1\n")
        dense = tmp_path / "a.csv"
        summary = tmp_path / "s.json"
        assert main(["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]) == 0
        assert load_matrix_csv(dense).shape == (2, 2)

    def test_sum_duplicates_flag(self, tmp_path):
        edges = tmp_path / "e.tsv"
        edges.write_text("1\t2\t1\n1\t2\t2\n")
        dense = tmp_path / "a.csv"
        summary = tmp_path / "s.json"
        assert main(["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]) == 1
        assert main(["ingest", str(edges), "--sum-duplicates", "--dense", str(dense),
                     "--summary", str(summary)]) == 0
        assert load_matrix_csv(dense)[0, 1] == 3.0

    def test_summed_weight_past_float_range_rejected(self, tmp_path, capsys):
        # two finite weights once summed to inf, written as 0,inf and "max_weight": Infinity
        edges = tmp_path / "e.tsv"
        edges.write_text("1 2 1e308\n1 2 1e308\n")
        dense = tmp_path / "a.csv"
        summary = tmp_path / "s.json"
        assert main(["ingest", str(edges), "--sum-duplicates", "--dense", str(dense),
                     "--summary", str(summary)]) == 1
        assert capsys.readouterr().err == "error: line 2: non-finite weight inf\n"
        assert not dense.exists() and not summary.exists()

    def test_sparse_network_bytes_equal_savetxt(self, tmp_path):
        # a 300-node, 0.7%-dense network with integer, negative and 17-digit
        # weights: ingest's A.csv and fit's memberships are np.savetxt's bytes
        rng = np.random.default_rng(13)
        pairs = np.unique(rng.integers(0, 300, size=(650, 2)), axis=0)
        pairs = pairs[rng.permutation(len(pairs))]
        weights = np.where(rng.random(len(pairs)) < 0.5, rng.integers(1, 6, len(pairs)),
                           rng.normal(size=len(pairs)))
        edges = tmp_path / "e.tsv"
        edges.write_text("".join(f"{i}\t{j}\t{w!r}\n" for (i, j), w in zip(pairs, weights.tolist())))
        dense, prefix = tmp_path / "A.csv", str(tmp_path / "f_")
        assert main(["ingest", str(edges), "--dense", str(dense),
                     "--summary", str(tmp_path / "s.json")]) == 0
        A, n_edges = load_edge_list(edges)
        assert A.shape[0] > 250 and np.count_nonzero(A) == n_edges == len(pairs)
        assert dense.read_bytes() == savetxt_bytes(A)
        assert main(["fit", str(dense), "--k", "2", "--out-prefix", prefix]) == 0
        result = disp(A, 2)
        assert (tmp_path / "f_rows.csv").read_bytes() == savetxt_bytes(result.Pi_r_hat)
        assert (tmp_path / "f_cols.csv").read_bytes() == savetxt_bytes(result.Pi_c_hat)


class TestEstimateK:
    def test_prints_values_and_both_methods(self, tmp_path, spec, capsys):
        omega = build_omega(spec)
        adj = tmp_path / "a.csv"
        save_matrix_csv(omega, adj)
        assert main(["estimate-k", str(adj), "--k-max", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(v) for v in lines[0].split(",")]
        assert len(values) == 6
        assert lines[1].startswith("difference,") and lines[2].startswith("ratio,")
        assert lines[2] == "ratio,2"  # exact rank-2 input

    def test_single_row_rejected_before_printing(self, tmp_path, capsys):
        # a 1 x 5 matrix has one singular value
        adj = tmp_path / "a.csv"
        adj.write_text("0,0,0,0,2.0\n")
        assert main(["estimate-k", str(adj)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: estimate-k needs at least 2 rows and 2 columns, got shape (1, 5)\n"

    def test_one_value_prints_nothing(self, tmp_path, spec, capsys):
        adj = tmp_path / "a.csv"
        save_matrix_csv(build_omega(spec), adj)
        assert main(["estimate-k", str(adj), "--k-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the flag is refused before the SVD, which used to run and then fail
        assert captured.err == "error: --k-max must be an integer in [2, inf), got 1\n"

    @pytest.mark.parametrize("k_max, name", [("0", "a.csv"), ("-3", "a.csv"), ("1", "missing.csv")],
                             ids=["0", "-3", "1-missing-file"])
    def test_k_max_below_two_rejected_before_the_file_is_read(self, tmp_path, spec, capsys,
                                                               k_max, name):
        # 0 was once refused with the matrix's range [1, n]; the flag comes before the file
        save_matrix_csv(build_omega(spec), tmp_path / "a.csv")
        assert main(["estimate-k", str(tmp_path / name), "--k-max", k_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --k-max must be an integer in [2, inf), got {k_max}\n"

    def test_k_max_above_the_matrix_is_capped(self, tmp_path, spec, capsys):
        save_matrix_csv(build_omega(spec), tmp_path / "a.csv")  # 20 x 16
        assert main(["estimate-k", str(tmp_path / "a.csv"), "--k-max", "50"]) == 0
        assert len(capsys.readouterr().out.splitlines()[0].split(",")) == 16


class TestComposedWorkflow:
    def test_sample_ingest_fit_eval_chain(self, tmp_path, capsys):
        from bimix.sampler import RandomSource, sample_adjacency

        spec = ModelSpec(P=np.array([[1.0, -0.2], [0.1, -0.9]]), rho=0.9,
                         Pi_r=make_planted_memberships(30, 2, 10),
                         Pi_c=make_planted_memberships(30, 2, 10),
                         dist=EdgeDistribution("signed"))
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(5))
        net = tmp_path / "net.tsv"  # node tokens 1..30 on both sides, zeros left out
        net.write_text("".join(f"{i + 1}\t{j + 1}\t{float(A[i, j])!r}\n" for i, j in zip(*np.nonzero(A))))
        save_matrix_csv(spec.Pi_r, tmp_path / "tr.csv")
        save_matrix_csv(spec.Pi_c, tmp_path / "tc.csv")
        dense = tmp_path / "A.csv"
        assert main(["ingest", str(net), "--dense", str(dense),
                     "--summary", str(tmp_path / "s.json")]) == 0
        assert main(["estimate-k", str(dense), "--k-max", "6"]) == 0
        prefix = str(tmp_path / "f_")
        capsys.readouterr()
        assert main(["fit", str(dense), "--k", "2", "--out-prefix", prefix]) == 0
        capsys.readouterr()
        assert main(["eval", "--est-rows", prefix + "rows.csv",
                     "--est-cols", prefix + "cols.csv",
                     "--true-rows", str(tmp_path / "tr.csv"),
                     "--true-cols", str(tmp_path / "tc.csv")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"eta_r", "eta_c", "hamm_rc", "error_rate"}
        assert 0.0 <= out["error_rate"] <= 2.0


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
