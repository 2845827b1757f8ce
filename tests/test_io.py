"""Serialization tests for dense CSV matrices and model JSON."""

import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bimix.io import (
    CHUNK_BYTES,
    load_matrix_csv,
    plan_from_json,
    save_matrix_csv,
    spec_from_dict,
)
from bimix.model import ModelSpec, make_planted_memberships
from bimix.sampler import PARAM_KINDS, EdgeDistribution

from test_model import P1


class TestMatrixCSV:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(7, 3))
        path = tmp_path / "m.csv"
        save_matrix_csv(M, path)
        np.testing.assert_array_equal(load_matrix_csv(path), M)

    def test_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        save_matrix_csv(np.array([1.0, 0.25, -3.5]), path)
        np.testing.assert_array_equal(load_matrix_csv(path), [[1.0, 0.25, -3.5]])

    @pytest.mark.parametrize("text", ["", "# no data\n\n# none here either\n"],
                             ids=["empty", "comments-only"])
    def test_no_rows_rejected_naming_the_file(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's own empty-input warning stays quiet
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no matrix rows$"):
                load_matrix_csv(path)


def savetxt_bytes(M) -> bytes:
    """The oracle: ``np.savetxt``'s bytes at ``%.17g``, 1-D input taken as one row."""
    buffer = io.BytesIO()
    np.savetxt(buffer, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g", delimiter=",")
    return buffer.getvalue()


def loadtxt(path) -> np.ndarray:
    """The reader's oracle, quiet on an input with no data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.loadtxt(path, delimiter=",", ndmin=2)


def assert_reads_like_loadtxt(path) -> None:
    """``load_matrix_csv`` gives ``np.loadtxt``'s matrix bit for bit (zero and nan signs too).

    Where ``np.loadtxt`` finds no rows, the reader raises instead.
    """
    expected = loadtxt(path)
    if expected.shape[0] == 0:
        with pytest.raises(ValueError, match="holds no matrix rows$"):
            load_matrix_csv(path)
        return
    got = load_matrix_csv(path)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _sparse(n, density, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) * (rng.random((n, n)) < density)


class TestMatrixCSVBytes:
    """``save_matrix_csv`` writes ``np.savetxt``'s bytes, formatting only nonzero cells."""

    @pytest.mark.parametrize(
        "M",
        [
            pytest.param([[-0.0, 0.0, np.nan, np.inf, -np.inf]], id="signed-zeros-nan-inf"),
            pytest.param([[1e-320, -1e-320, 5e-324, 2.2250738585072014e-308]], id="subnormals"),
            pytest.param([[2.0**53 + 2, 2.0**60, -(2.0**63), 1e22, 3.0]], id="large-integers"),
            pytest.param([[0.1, 1 / 3, -123456789.12345678, 1.2345678901234567e-5]],
                         id="17-digit-values"),
            pytest.param([[0.0, 0.0, 0.0], [1.5, 0.0, -2.0], [0.0, 0.0, 0.0]], id="all-zero-rows"),
            pytest.param([[-0.0, -0.0, -0.0], [0.0, -0.0, 7.0]], id="all-negative-zero-row"),
            pytest.param([1.0, -0.0, 0.0, 2.5], id="one-dimensional"),
            pytest.param(np.zeros((1, 0)), id="one-row-no-columns"),
            pytest.param(np.zeros((0, 3)), id="no-rows"),
            pytest.param(_sparse(300, 0.01, 2), id="one-percent-dense-300"),
            pytest.param(_sparse(300, 1.0, 3), id="fully-dense-300"),
            pytest.param(_sparse(300, 0.01, 4).T, id="transposed-view"),
            pytest.param(_sparse(300, 0.05, 5)[::3, 1::2], id="strided-view"),
        ],
    )
    def test_bytes_equal_savetxt(self, tmp_path, M):
        path = tmp_path / "m.csv"
        save_matrix_csv(M, path)
        assert path.read_bytes() == savetxt_bytes(M)
        assert_reads_like_loadtxt(path)

    @pytest.mark.parametrize("M, expected", [([[0.0, -0.0, -1.0, np.nan]], b"0,-0,-1,nan\n"),
                                             (np.zeros((1, 0)), b"\n"),
                                             (np.zeros((0, 3)), b"")])
    def test_literal_bytes(self, tmp_path, M, expected):
        path = tmp_path / "m.csv"
        save_matrix_csv(M, path)
        assert path.read_bytes() == expected

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_subnormal=True)),
    ))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_savetxt_property(self, tmp_path_factory, M):
        path = tmp_path_factory.getbasetemp() / "property.csv"
        save_matrix_csv(M, path)
        assert path.read_bytes() == savetxt_bytes(M)
        assert_reads_like_loadtxt(path)


class TestMatrixCSVReader:
    """``load_matrix_csv`` accepts and rejects what ``np.loadtxt(delimiter=",")`` does."""

    @pytest.mark.parametrize("text", [
        pytest.param(b"# made by hand\n1,2\n# between rows\n3,4\n", id="comment-lines"),
        pytest.param(b"1,2 # first row\n3,4# second\n", id="trailing-comments"),
        pytest.param(b"\n1,0\n\n\n0,4\n\n", id="blank-lines"),
        pytest.param(b"# note\r\n1,0\r\n\r\n0,2 # tail\r\n", id="crlf"),
        pytest.param(b"1,2\r3,4\r", id="lone-cr"),
        pytest.param(b"1,2\n3,4", id="no-final-newline"),
        pytest.param(b" 1 ,\t2\t\n0 , 0\t\n", id="spaces-and-tabs"),
        pytest.param(b"+1,-0,00,0.0,1e400,nan,infinity\n-1e400,-nan,INF,-Infinity,NaN,.5,5.\n",
                     id="cell-spellings"),
        pytest.param(b"1\n0\n-0\n", id="one-column"),
        pytest.param(b"0,0,7", id="one-row"),
        pytest.param(b"0,0,0\n0,0,0\n", id="all-zero"),
    ])
    def test_accepted_bit_equal(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        assert_reads_like_loadtxt(path)

    @pytest.mark.parametrize("text, lineno", [
        pytest.param(b"1,2\n3,4\n5\n", 3, id="ragged-row"),
        pytest.param(b"1,2\r\n\r\n3\r\n", 3, id="ragged-row-crlf"),
        pytest.param(b"1,2\n  \n3,4\n", 2, id="whitespace-line"),
        pytest.param(b"1,2\n\t# note\n3,4\n", 2, id="whitespace-before-comment"),
        pytest.param(b"1\n \n2\n", 2, id="whitespace-line-one-column"),
        pytest.param(b"1,2,3\n4,,6\n", 2, id="empty-cell"),
        pytest.param(b"1,2,\n", 1, id="trailing-comma"),
        pytest.param(b"1,2\n3,4,\n", 2, id="trailing-comma-later-row"),
        pytest.param(b"1,2\n1_0,2\n", 2, id="underscore"),
        pytest.param(b'1,2\n"3",4\n', 2, id="quoted-cell"),
        pytest.param(b"0x10,2\n", 1, id="hex"),
        pytest.param(b"1,x\n1\n", 1, id="bad-cell-before-ragged-row"),
    ])
    def test_rejected_naming_the_line(self, tmp_path, text, lineno):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError):
            loadtxt(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {lineno}: "):
            load_matrix_csv(path)

    @pytest.mark.parametrize("bad", [b"1.5,0", b"1_0," + b"0," * 39 + b"1.5"],
                             ids=["ragged-row", "underscore"])
    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, bad):
        row = b"0," * 40 + b"1.5\n"
        head = b"# a comment\n\n" + row * (3 * CHUNK_BYTES // len(row))
        path = tmp_path / "m.csv"
        path.write_bytes(head + row)
        assert_reads_like_loadtxt(path)
        path.write_bytes(head + row + bad + b"\n" + row)
        lineno = head.count(b"\n") + 2
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {lineno}: "):
            load_matrix_csv(path)


def spec_to_dict(spec: ModelSpec) -> dict:
    """The JSON model document ``spec_from_dict`` reads for ``spec``."""
    dist = spec.dist
    return {
        "rho": spec.rho,
        "P": spec.P.tolist(),
        "Pi_r": spec.Pi_r.tolist(),
        "Pi_c": spec.Pi_c.tolist(),
        "dist": {"kind": dist.kind, **{p: getattr(dist, p) for p in PARAM_KINDS
                                       if getattr(dist, p) is not None}},
    }


class TestSpecJSON:
    def test_roundtrip(self):
        spec = ModelSpec(P=P1, rho=0.75, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1),
                         dist=EdgeDistribution("binomial", m=7))
        loaded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert loaded.rho == spec.rho
        assert loaded.dist == spec.dist
        np.testing.assert_array_equal(loaded.P, spec.P)
        np.testing.assert_array_equal(loaded.Pi_r, spec.Pi_r)
        np.testing.assert_array_equal(loaded.Pi_c, spec.Pi_c)

    @pytest.mark.parametrize("change, message", [
        ({"P": [[1, "0.2"], [True, 0.8]]}, "an entry of the model spec's 'P' must be a number, got a string"),
        ({"P": [[1, 0.2], [True, 0.8]]}, "an entry of the model spec's 'P' must be a number, got a boolean"),
        ({"Pi_c": [[1, 0], [0, 1], [None, 1]]},
         "an entry of the model spec's 'Pi_c' must be a number, got null"),
        # a shape parameter is checked by EdgeDistribution, which names the law
        ({"dist": {"kind": "binomial", "m": True}},
         "binomial parameter m must be an integer in [1, 9223372036854775807], got True"),
        ({"dist": {"kind": "normal", "sigma2": "1"}},
         "normal parameter sigma2 must be a number in [0, inf), got '1'"),
        ({"dist": {"kind": "logistic", "beta": [1.0]}},
         "logistic parameter beta must be a number in (0, inf), got [1.0]"),
        # EdgeDistribution takes None for a parameter left out, so a null is refused here
        ({"dist": {"kind": "bernoulli", "sigma2": None}}, "the model spec's 'dist' may not hold null"),
        ({"dist": {"kind": "binomial", "m": None}}, "the model spec's 'dist' may not hold null"),
    ], ids=["P-string", "P-boolean", "Pi_c-null", "m-boolean", "sigma2-string", "beta-list",
            "other-law-parameter-null", "m-null"])
    def test_non_number_entries_rejected_naming_the_key(self, change, message):
        # these were once coerced (true as 1, "0.2" as 0.2) or raised a TypeError
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(3, 2, 1),
                         dist=EdgeDistribution("bernoulli"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_from_dict({**spec_to_dict(spec), **change})

    @pytest.mark.parametrize("change, message", [
        ({"Rho": 5}, "the model spec takes only the keys rho, P, Pi_r, Pi_c, dist; got 'Rho'"),
        ({"dist": {"kind": "bernoulli", "sigma": 2.0}},
         "the model spec's 'dist' takes only the keys kind, m, sigma2, beta; got 'sigma'"),
        ({"dist": {"kind": "bernoulli", "sigma": 2.0}, "Rho": 5, "k": 2},
         "the model spec takes only the keys rho, P, Pi_r, Pi_c, dist; got 'Rho', 'k'"),
    ], ids=["top", "dist", "several"])
    def test_unknown_keys_rejected_naming_them(self, change, message):
        # these were once dropped: the first two returned the spec at rho = 0.9
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1),
                         dist=EdgeDistribution("bernoulli"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_from_dict({**spec_to_dict(spec), **change})

    @pytest.mark.parametrize("dist, message", [
        ('{"kind": "normal", "sigma2": Infinity}',
         "normal parameter sigma2 must be a number in [0, inf), got inf"),
        ('{"kind": "binomial", "m": Infinity}',
         "binomial parameter m must be an integer in [1, 9223372036854775807], got inf"),
        ('{"kind": "binomial", "m": 1%s}' % ("0" * 400),
         "binomial parameter m must be an integer in [1, 9223372036854775807], got 1%s" % ("0" * 400)),
    ], ids=["sigma2", "m", "m-401-digits"])
    def test_infinite_shape_parameter_rejected(self, dist, message):
        # JSON's Infinity was taken as a variance, and as a trial count raised
        # OverflowError, as did a trial count beyond float range
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1),
                         dist=EdgeDistribution("bernoulli"))
        text = json.dumps(spec_to_dict(spec)).replace('{"kind": "bernoulli"}', dist)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spec_from_dict(json.loads(text))

    def test_plan_base_with_misspelled_key_rejected(self):
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1),
                         dist=EdgeDistribution("poisson"))
        base = {**spec_to_dict(spec), "pi_r": spec_to_dict(spec)["Pi_r"]}
        with pytest.raises(ValueError, match=r"^the model spec takes only the keys .*; got 'pi_r'$"):
            plan_from_json({"base": base, "axis": "rho", "grid": [0.5]})
        del base["pi_r"]
        assert plan_from_json({"base": base, "axis": "rho", "grid": [0.5]}).base.dist == spec.dist

    def test_edge_law_from_dict_rejects_unknown_key(self):
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1),
                         dist=EdgeDistribution("normal", sigma2=2.0))
        assert spec_to_dict(spec)["dist"] == {"kind": "normal", "sigma2": 2.0}
        assert spec_from_dict(spec_to_dict(spec)).dist == spec.dist
        with pytest.raises(TypeError, match="sigma"):
            EdgeDistribution(**{"kind": "bernoulli", "sigma": 2.0})
