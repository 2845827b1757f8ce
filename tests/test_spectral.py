"""Truncated SVD and eigengap tests, checked against full-decomposition oracles."""

import math
import re
import subprocess
import sys
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimix import spectral
from bimix.disp import disp
from bimix.harness import scenario
from bimix.metrics import error_rate
from bimix.model import ModelSpec, build_omega, make_planted_memberships, make_standard_two_block
from bimix.sampler import EdgeDistribution, RandomSource, sample_adjacency
from bimix.spectral import estimate_k_eigengap, singular_values, top_k_svd

from test_model import P1, random_valid_spec


def reconstruct(t) -> np.ndarray:
    """The best rank-K approximation ``left @ diag(values) @ right.T`` of a ``TruncatedSVD``."""
    return (t.left * t.singular_values) @ t.right.T


class TestTopKSVD:
    def test_padded_diagonal(self):
        A = np.zeros((4, 3))
        A[0, 0], A[1, 1], A[2, 2] = 3.0, 2.0, 1.0
        t = top_k_svd(A, 2)
        np.testing.assert_allclose(t.singular_values, [3.0, 2.0], atol=1e-12)
        assert singular_values(A, 3)[2] == pytest.approx(1.0, abs=1e-12)
        assert top_k_svd(A, 3).noise_edge == 0.0

    def test_exact_rank_reconstruction(self):
        rng = np.random.default_rng(1)
        spec = random_valid_spec(rng, 40, 50, 3)
        omega = build_omega(spec)
        t = top_k_svd(omega, 3)
        err = np.linalg.norm(reconstruct(t) - omega) / np.linalg.norm(omega)
        assert err <= 1e-8

    def test_matches_full_svd_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(30, 20))
        t = top_k_svd(A, 5)
        sv_oracle = np.linalg.svd(A, compute_uv=False)[:5]
        np.testing.assert_allclose(t.singular_values, sv_oracle, rtol=1e-9)
        # best rank-K approximation error matches the oracle truncation
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        best = (U[:, :5] * s[:5]) @ Vt[:5]
        assert np.linalg.norm(reconstruct(t) - A) == pytest.approx(
            np.linalg.norm(best - A), rel=1e-9
        )

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        for shape in ((12, 30), (30, 12), (15, 15)):
            A = rng.normal(size=shape)
            t = top_k_svd(A, 4)
            np.testing.assert_allclose(t.left.T @ t.left, np.eye(4), atol=1e-10)
            np.testing.assert_allclose(t.right.T @ t.right, np.eye(4), atol=1e-10)
            assert np.all(np.diff(t.singular_values) <= 1e-12)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(20, 14))
        t1 = top_k_svd(A, 3)
        t2 = top_k_svd(A, 3)
        np.testing.assert_array_equal(t1.left, t2.left)
        np.testing.assert_array_equal(t1.right, t2.right)
        for j in range(3):
            i = np.argmax(np.abs(t1.left[:, j]))
            assert t1.left[i, j] > 0

    def test_sign_flip_closure(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(10, 8))
        t = top_k_svd(A, 3)
        flipped_left = t.left.copy()
        flipped_right = t.right.copy()
        flipped_left[:, 1] *= -1
        flipped_right[:, 1] *= -1
        recon = (flipped_left * t.singular_values) @ flipped_right.T
        np.testing.assert_allclose(recon, reconstruct(t), atol=1e-12)

    def test_gram_eigendecomposition_agreement(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(50, 37))
        sv = top_k_svd(A, 10).singular_values
        eigs = np.linalg.eigvalsh(A.T @ A)[::-1][:10]  # brute-force oracle
        np.testing.assert_allclose(sv, np.sqrt(np.clip(eigs, 0, None)), rtol=1e-8)

    def test_k_out_of_range(self):
        A = np.eye(4)
        with pytest.raises(ValueError):
            top_k_svd(A, 0)
        with pytest.raises(ValueError):
            top_k_svd(A, 5)

    def test_rejects_non_finite(self):
        A = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^A at entry \(0, 1\) is nan, outside \(-inf, inf\)$"):
            top_k_svd(A, 1)


def planted_omega():
    spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(20, 2, 4),
                     Pi_c=make_planted_memberships(15, 2, 3), dist=EdgeDistribution("bernoulli"))
    return build_omega(spec)


class TestCountArguments:
    # True fitted K = 1 and 3.5 raised TypeError from slicing; each is now
    # named, with the count's range, before any work
    @pytest.mark.parametrize("call, count", [
        (disp, True), (disp, np.True_), (top_k_svd, False),
        (singular_values, 3.5), (singular_values, True),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_bool_or_fraction_rejected_naming_the_count(self, call, count):
        name = "k_max" if call is singular_values else "K"
        printed = f"{name} must be an integer in [1, 15], got {count!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
            call(planted_omega(), count)

    @pytest.mark.parametrize("count", [2.0, np.float64(2.0)], ids=repr)
    @pytest.mark.parametrize("call", [disp, top_k_svd], ids=lambda f: f.__name__)
    def test_integral_float_fits_as_its_integer(self, call, count):
        # an integral float fits bit-identically to its integer
        fields = lambda r: asdict(r) if is_dataclass(r) else r
        omega = planted_omega()
        np.testing.assert_equal(fields(call(omega, count)), fields(call(omega, 2)))

    def test_numpy_integers_accepted(self):
        # an integral float counts as its integer, as seeds and trial counts do
        omega = planted_omega()
        for count in (np.int64(2), np.int32(2), np.uint8(2), 2.0, np.float64(2.0)):
            assert disp(omega, count).pure_rows == disp(omega, 2).pure_rows
            np.testing.assert_array_equal(singular_values(omega, count), singular_values(omega, 2))


def planted_poisson(rng, n, K, n_edges):
    """Poisson network of ``n`` nodes from a planted model: 70% pure nodes, the rest Dirichlet(1)."""
    n_pure = int(0.7 * n) // K
    pi_r = np.zeros((n, K))
    for k in range(K):
        pi_r[k * n_pure : (k + 1) * n_pure, k] = 1.0
    pi_r[K * n_pure :] = rng.dirichlet(np.ones(K), size=n - K * n_pure)
    P = np.full((K, K), 0.02)
    np.fill_diagonal(P, 1.0)
    mean = pi_r @ P @ pi_r[rng.permutation(n)].T
    return rng.poisson(mean * (n_edges / mean.sum())).astype(float)


class TestNoiseEdge:
    def test_vanishes_at_rank_k(self):
        # an exact rank-K expectation matrix on the LAPACK path (the Krylov
        # path is in TestKrylovPath), and K = min(n_r, n_c), where the
        # residual of a 2 x 2 matrix exceeded the rank tolerance 11 times in 300
        rng = np.random.default_rng(28)
        assert top_k_svd(build_omega(random_valid_spec(rng, 40, 50, 3)), 3).noise_edge == 0.0
        for shape in ((2, 2), (4, 3), (3, 4)):
            for _ in range(300):
                assert top_k_svd(rng.normal(size=shape), min(shape)).noise_edge == 0.0

    @pytest.mark.parametrize("name, point", [("sim1b", (30.0, 1.0)), ("sim4c", (50.0, 5.0)),
                                             ("sim8b", (30.0, 2.0))])
    def test_near_next_singular_value_at_300(self, name, point):
        # recorded over seeds 0-3: edge / sigma_3 - 1 from -1.9% to +2.0%
        P, rho = make_standard_two_block(300, *point)
        spec = replace(scenario(name).base, P=P, rho=rho)
        omega = build_omega(spec)
        for seed in range(4):
            A = sample_adjacency(omega, spec.dist, RandomSource(seed))
            assert abs(top_k_svd(A, 2).noise_edge / singular_values(A, 3)[2] - 1.0) <= 0.025

    def test_near_next_singular_value_at_1302(self):
        # the large-fit network size; recorded over seeds 0-3: edge / sigma_4
        # - 1 from -3.6% to -2.5%, low because the Poisson variances vary
        A = planted_poisson(np.random.default_rng(0), 1302, 3, 19000)
        assert abs(top_k_svd(A, 3).noise_edge / singular_values(A, 4)[3] - 1.0) <= 0.045


def planted_plus_noise(rng, n_r, n_c, K, scale=40.0):
    """Scaled exact-rank expectation matrix plus standard normal noise."""
    omega = build_omega(random_valid_spec(rng, n_r, n_c, K))
    return scale * omega + rng.standard_normal((n_r, n_c))


def subspace_gap(U_oracle, U):
    """Spectral norm of the part of span(U_oracle) outside span(U)."""
    return np.linalg.norm(U_oracle - U @ (U.T @ U_oracle), 2)


@pytest.fixture
def full_svd_calls(monkeypatch):
    """Shapes of the matrices handed to the full LAPACK SVD during a test."""
    calls = []
    real = spectral._full_svd
    monkeypatch.setattr(spectral, "_full_svd", lambda *a: calls.append(a[0].shape) or real(*a))
    return calls


class TestKrylovPath:
    """Shorter sides of at least 32 blocks (48 for values alone) take the Krylov path."""

    @pytest.mark.parametrize("shape", [(360, 240), (240, 360), (280, 280)])
    def test_agrees_with_full_svd_oracle(self, shape, full_svd_calls):
        rng = np.random.default_rng(20)
        for K in (2, 3, 4):
            A = planted_plus_noise(rng, *shape, K)
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            t = top_k_svd(A, K)
            assert full_svd_calls == []
            np.testing.assert_allclose(t.singular_values, s[:K], rtol=0, atol=1e-9 * s[0])
            assert abs(singular_values(A, K + 1)[K] - s[K]) <= 1e-9 * s[0]
            assert subspace_gap(U[:, :K], t.left) <= 1e-7
            assert subspace_gap(Vt[:K].T, t.right) <= 1e-7
            np.testing.assert_allclose(t.left.T @ t.left, np.eye(K), atol=1e-12)
            np.testing.assert_allclose(t.right.T @ t.right, np.eye(K), atol=1e-12)
            for j in range(K):
                assert t.left[np.argmax(np.abs(t.left[:, j])), j] > 0
            # values alone take LAPACK below 48 blocks of 12 rows
            np.testing.assert_allclose(singular_values(A, 10), s[:10], rtol=0, atol=1e-9 * s[0])
            full_svd_calls.clear()

    @pytest.mark.parametrize("shape", [(720, 600), (600, 720), (600, 600)])
    def test_singular_values_of_rank_ten_signal(self, shape, full_svd_calls):
        A = planted_plus_noise(np.random.default_rng(26), *shape, 10, scale=1000.0)
        s = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(singular_values(A, 10), s[:10], rtol=0, atol=1e-9 * s[0])
        assert full_svd_calls == []

    def test_exact_rank_radius_vanishes(self, full_svd_calls):
        # planted pure blocks repeat rows exactly, and the second Krylov
        # block is then rounding noise inside the first: the deflation path
        planted = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(300, 2, 100),
                            Pi_c=make_planted_memberships(300, 2, 100),
                            dist=EdgeDistribution("bernoulli"))
        for spec in (random_valid_spec(np.random.default_rng(21), 300, 300, 2), planted):
            omega = build_omega(spec)
            t = top_k_svd(omega, 2)
            assert singular_values(omega, 3)[2] <= t.singular_values[0] * 300 * np.finfo(float).eps
            assert t.noise_edge == 0.0
            fit = disp(build_omega(spec), spec.K)
            assert error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c) <= 1e-8
        assert full_svd_calls == []

    def test_zero_and_rank_one_match_lapack(self, full_svd_calls):
        rng = np.random.default_rng(22)
        u, v = rng.uniform(0.5, 1.0, 620), rng.uniform(0.5, 1.0, 580)
        for A in (np.zeros((620, 580)), np.outer(u, v)):
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            t = top_k_svd(A, 2)
            tol = max(s[0], 1.0) * 620 * np.finfo(float).eps
            np.testing.assert_allclose(t.singular_values, s[:2], rtol=0, atol=tol)
            assert singular_values(A, 3)[2] <= tol
            assert t.noise_edge == 0.0
            np.testing.assert_allclose(t.left.T @ t.left, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(t.right.T @ t.right, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(reconstruct(t), A, rtol=0, atol=tol)
            np.testing.assert_allclose(singular_values(A, 10), s[:10], rtol=0, atol=tol)
        # the one nonzero triple matches the oracle's, sign convention included
        np.testing.assert_allclose(t.left[:, 0], np.abs(U[:, 0]), atol=1e-12)
        np.testing.assert_allclose(t.right[:, 0], np.abs(Vt[0]), atol=1e-12)
        assert full_svd_calls == []

    def test_singular_gram_falls_back_to_householder_qr(self, full_svd_calls, monkeypatch):
        # a rank-one or exact-rank A makes a block's Gram matrix singular, so
        # cholesky raises and the block is orthonormalized by np.linalg.qr
        rng = np.random.default_rng(22)
        inputs = (np.outer(rng.uniform(0.5, 1.0, 620), rng.uniform(0.5, 1.0, 580)),
                  build_omega(random_valid_spec(np.random.default_rng(21), 300, 300, 2)))
        qr_calls = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or real(a))
        for A in inputs:
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            qr_calls.clear()
            t = top_k_svd(A, 2)
            assert qr_calls
            rank = int(np.sum(s > s[0] * 1e-10))
            np.testing.assert_allclose(t.singular_values, s[:2], rtol=0, atol=1e-9 * s[0])
            assert subspace_gap(U[:, :rank], t.left) <= 1e-7
            assert subspace_gap(Vt[:rank].T, t.right) <= 1e-7
            np.testing.assert_allclose(t.left.T @ t.left, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(t.right.T @ t.right, np.eye(2), atol=1e-12)
        assert full_svd_calls == []

    @pytest.mark.parametrize("shape", [(300, 300), (600, 560)])
    def test_graded_spectrum_takes_cholesky_qr(self, shape, full_svd_calls, monkeypatch):
        # singular values spread over 12 decades: every block's Gram matrix is
        # positive definite, so no block falls back to np.linalg.qr
        rng = np.random.default_rng(5)
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for n in shape)
        A = (Q1[:, : min(shape)] * np.logspace(0.0, -12.0, min(shape))) @ Q2[:, : min(shape)].T
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        qr_calls = []
        real = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(a.shape) or real(a))
        t = top_k_svd(A, 3)
        assert qr_calls == [] and full_svd_calls == []
        np.testing.assert_allclose(t.singular_values, s[:3], rtol=0, atol=1e-9 * s[0])
        assert subspace_gap(U[:, :3], t.left) <= 1e-7
        assert subspace_gap(Vt[:3].T, t.right) <= 1e-7
        np.testing.assert_allclose(t.left.T @ t.left, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.right.T @ t.right, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("shape", [(720, 600), (600, 720), (600, 600)])
    def test_memory_layout_does_not_matter(self, shape, full_svd_calls):
        # the layout decides which BLAS kernel each product runs
        A = planted_plus_noise(np.random.default_rng(27), *shape, 3)
        layouts = (A, np.asfortranarray(A), np.ascontiguousarray(A.T).T)
        fits = [top_k_svd(X, 3) for X in layouts]
        values = [singular_values(X, 10) for X in layouts]
        s1 = fits[0].singular_values[0]
        for t, v in zip(fits[1:], values[1:]):
            np.testing.assert_allclose(t.singular_values, fits[0].singular_values, rtol=0,
                                       atol=1e-12 * s1)
            np.testing.assert_allclose(v, values[0], rtol=0, atol=1e-12 * s1)
            assert subspace_gap(fits[0].left, t.left) <= 1e-7
            assert subspace_gap(fits[0].right, t.right) <= 1e-7
        assert full_svd_calls == []

    def test_sparse_poisson_network(self, full_svd_calls):
        # 1% dense, as the large-fit networks are; the column slice is a
        # strided view.  The Ritz-value stop leaves the K-th subspace 1.5e-7
        # to 5.4e-7 from LAPACK's here (seeds 0-2), above the 1e-7 that the
        # planted-plus-noise matrices meet
        A = planted_poisson(np.random.default_rng(0), 640, 3, 4100)[:, :600]
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        t = top_k_svd(A, 3)
        np.testing.assert_allclose(t.singular_values, s[:3], rtol=0, atol=1e-9 * s[0])
        np.testing.assert_allclose(singular_values(A, 10), s[:10], rtol=0, atol=1e-9 * s[0])
        assert subspace_gap(U[:, :3], t.left) <= 1e-6
        assert subspace_gap(Vt[:3].T, t.right) <= 1e-6
        np.testing.assert_allclose(t.left.T @ t.left, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.right.T @ t.right, np.eye(3), atol=1e-12)
        assert full_svd_calls == []

    @pytest.mark.parametrize("shape", [(640, 600), (600, 640)])
    def test_restart_caps_the_basis(self, shape, full_svd_calls, monkeypatch):
        # 14-19 blocks here, so the basis restarts at least once
        grams = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: grams.append(a.shape[0]) or real(a))
        A = planted_poisson(np.random.default_rng(1), 640, 3, 4100)[: shape[0], : shape[1]]
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        t = top_k_svd(A, 3)
        assert len(grams) > spectral.RESTART_BLOCKS
        assert max(grams) == spectral.RESTART_BLOCKS * 5
        grams.clear()
        values = singular_values(A, 10)
        assert len(grams) > spectral.RESTART_BLOCKS
        assert max(grams) == spectral.RESTART_BLOCKS * 12
        assert full_svd_calls == []
        np.testing.assert_allclose(t.singular_values, s[:3], rtol=0, atol=1e-9 * s[0])
        np.testing.assert_allclose(values, s[:10], rtol=0, atol=1e-9 * s[0])
        assert subspace_gap(U[:, :3], t.left) <= 1e-6
        assert subspace_gap(Vt[:3].T, t.right) <= 1e-6
        np.testing.assert_allclose(t.left.T @ t.left, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.right.T @ t.right, np.eye(3), atol=1e-12)
        again = top_k_svd(A, 3)
        for a, b in ((t.left, again.left), (t.right, again.right),
                     (t.singular_values, again.singular_values)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(singular_values(A, 10), values)

    def test_repeat_calls_bit_identical(self):
        A = planted_plus_noise(np.random.default_rng(23), 620, 580, 3)
        t1, t2 = top_k_svd(A, 3), top_k_svd(A, 3)
        for a, b in ((t1.left, t2.left), (t1.right, t2.right),
                     (t1.singular_values, t2.singular_values)):
            np.testing.assert_array_equal(a, b)
        assert t1.noise_edge == t2.noise_edge
        np.testing.assert_array_equal(singular_values(A, 10), singular_values(A, 10))

    def test_size_threshold(self, full_svd_calls):
        # K=2 converges 2 values with blocks of 4: 128 rows take the Krylov
        # path, 127 the full decomposition, and 3 values alone need 240 rows;
        # exact rank converges in 2 blocks
        A = build_omega(random_valid_spec(np.random.default_rng(24), 300, 240, 2))
        top_k_svd(A[:, :128], 2)
        singular_values(A, 3)
        assert full_svd_calls == []
        top_k_svd(A[:, :127], 2)
        singular_values(A[:, :239], 3)
        assert full_svd_calls == [(300, 127), (300, 239)]

    def test_unconverged_basis_falls_back(self, full_svd_calls):
        # the top of a 1 - t^3 spectrum is nearly flat (sigma_2 - sigma_3 is
        # 2e-6 sigma_1): the Ritz values do not settle to 1e-12 within
        # 160 / 4 = 40 blocks, so the full decomposition answers.  Evenly
        # spread values, linspace(1, 0.5), settle in 33 restarted blocks
        rng = np.random.default_rng(25)
        Q1, Q2 = (np.linalg.qr(rng.standard_normal((160, 160)))[0] for _ in range(2))
        A = (Q1 * (1.0 - np.linspace(0.0, 1.0, 160) ** 3)) @ Q2.T
        t = top_k_svd(A, 2)
        assert full_svd_calls == [(160, 160)]
        s = np.linalg.svd(A, full_matrices=False)[1]
        np.testing.assert_array_equal(t.singular_values, s[:2])
        # values alone come from LAPACK's values-only SVD, which can differ
        # from the full one in the last bit
        assert singular_values(A, 3)[2] == np.linalg.svd(A, compute_uv=False)[2]


def test_fit_imports_numpy_only():
    # a fresh interpreter: scipy may already be loaded in this one
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; from bimix import disp; "
        "disp(np.random.default_rng(0).random((200, 160)), 2); print('scipy' in sys.modules)"
    )
    src = str(Path(spectral.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(5), 3), [1.0, 1.0, 1.0], atol=1e-12)

    def test_exact_rank_tail_vanishes(self):
        rng = np.random.default_rng(7)
        spec = random_valid_spec(rng, 30, 25, 2)
        omega = build_omega(spec)
        sv = singular_values(omega, 5)
        assert np.all(sv[2:] <= 1e-10 * sv[0])

    def test_agrees_with_top_k_svd(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(22, 17))
        np.testing.assert_allclose(
            singular_values(A, 6), top_k_svd(A, 6).singular_values, rtol=1e-12
        )

    def test_k_max_out_of_range(self):
        with pytest.raises(ValueError):
            singular_values(np.eye(3), 4)


class TestEigengap:
    def test_dominant_gap(self):
        assert estimate_k_eigengap([10, 9.5, 2, 1.8, 1.7], "difference") == 2

    def test_late_gap_both_methods(self):
        sigmas = [5, 4.9, 4.8, 4.7, 1.0]
        assert estimate_k_eigengap(sigmas, "difference") == 4
        assert estimate_k_eigengap(sigmas, "ratio") == 4

    def test_exact_rank_spectra_recover_k_ratio(self):
        # the ratio of any positive value to a numerically-zero tail dwarfs
        # every ratio inside the top block, so exact-rank spectra always
        # give K under the ratio method
        rng = np.random.default_rng(9)
        for K in (2, 3, 4):
            spec = random_valid_spec(rng, 60, 45, K)
            sv = singular_values(build_omega(spec), K + 3)
            assert estimate_k_eigengap(sv, "ratio") == K

    def test_exact_rank_spectra_recover_k_difference(self):
        # the difference method needs sigma_K to exceed every gap inside the
        # top block; balanced planted models with near-balanced connectivity
        # spectra satisfy that
        from bimix.model import ModelSpec, make_planted_memberships
        from bimix.sampler import EdgeDistribution

        P = np.array([[1.0, 0.1], [0.1, 0.95]])
        spec = ModelSpec(P=P, rho=0.9, Pi_r=make_planted_memberships(40, 2, 20),
                         Pi_c=make_planted_memberships(36, 2, 18),
                         dist=EdgeDistribution("bernoulli"))
        sv = singular_values(build_omega(spec), 5)
        assert estimate_k_eigengap(sv, "difference") == 2
        assert estimate_k_eigengap(sv, "ratio") == 2

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            estimate_k_eigengap([3.0])

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            estimate_k_eigengap([1.0, 2.0, 0.5])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_k_eigengap([2.0, 1.0], "elbow")

    @pytest.mark.parametrize("method", ["difference", "ratio"])
    @pytest.mark.parametrize("sigmas, printed", [
        ([3.0, math.nan, 1.0], "entry (1) is nan"),
        ([3.0, 2.0, math.nan], "entry (2) is nan"),
        ([math.inf, 2.0, 1.0], "entry (0) is inf"),
        ([3.0, 2.0, 1.0, math.nan], "entry (3) is nan"),
    ], ids=["nan-inside", "nan-last", "inf-first", "nan-after-three"])
    def test_non_finite_rejected(self, sigmas, printed, method):
        # both rules returned 1, 2, 1 and 3
        with pytest.raises(ValueError, match=f"^{re.escape(f'sigmas at {printed}, outside (-inf, inf)')}$"):
            estimate_k_eigengap(sigmas, method)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_estimate_in_range(self, values):
        sigmas = np.sort(np.asarray(values))[::-1]
        k = estimate_k_eigengap(sigmas, "difference")
        assert 1 <= k <= len(sigmas) - 1
        gaps = sigmas[:-1] - sigmas[1:]
        assert gaps[k - 1] == gaps.max()
