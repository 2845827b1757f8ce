"""Estimator tests: vertex hunting, exact ideal recovery, invariances, degeneracy handling."""

import importlib

import numpy as np
import pytest

from bimix.disp import IllPosedFitError, disp, memberships_from_embedding, spa, vertex_matrix
from bimix.harness import scenario
from bimix.metrics import error_rate, hamm_rc
from bimix.model import ModelSpec, build_omega, make_planted_memberships, make_standard_two_block
from bimix.sampler import EdgeDistribution, RandomSource, sample_adjacency
from bimix.spectral import singular_values, top_k_svd

from test_model import P1, random_valid_spec


def in_convex_hull(point, vertices, tol=1e-9):
    """Solve for hull coefficients; feasible iff nonnegative and sum to 1."""
    coeffs, residual, *_ = np.linalg.lstsq(vertices.T, point, rcond=None)
    recon = vertices.T @ coeffs
    return (
        np.linalg.norm(recon - point) < tol
        and np.all(coeffs > -tol)
        and abs(coeffs.sum() - 1.0) < 1e-6
    )


class TestSPA:
    def test_identity_selects_in_index_order(self):
        assert spa(np.eye(2), 2) == (0, 1)

    def test_planted_rows_recovered(self):
        rng = np.random.default_rng(0)
        pi = make_planted_memberships(6, 2, 1)  # pure rows are 0 and 1
        for _ in range(10):
            B = rng.normal(size=(2, 2))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            X = pi @ B
            assert set(spa(X, 2)) == {0, 1}

    def test_selected_rows_span_hull(self):
        # every row must lie in the convex hull of the selected rows
        rng = np.random.default_rng(1)
        pi = make_planted_memberships(9, 3, 1)
        B = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        X = pi @ B
        idx = spa(X, 3)
        vertices = X[list(idx)]
        assert all(in_convex_hull(X[i], vertices) for i in range(9))

    def test_duplicate_max_norm_rows_pick_lowest_index(self):
        X = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert spa(X, 2)[0] == 0

    def test_tie_after_projection(self):
        X = np.array([[0.0, 3.0], [1.0, 0.0], [1.0, 0.0]])
        assert spa(X, 2) == (0, 1)

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(2)
        pi = make_planted_memberships(12, 3, 2)
        B = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        X = pi @ B
        base = spa(X, 3)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            assert spa(X @ Q, 3) == base

    def test_column_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        D = np.diag([1.0, -1.0, 1.0])
        assert spa(X @ D, 3) == spa(X, 3)

    def test_rank_deficient_raises(self):
        # a collapsed residual is an ill-posed fit, as a singular vertex matrix is
        X = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])  # rank 1
        with pytest.raises(IllPosedFitError, match=r"^residual collapsed after 1 of 2 selections$"):
            memberships_from_embedding(X)

    def test_disp_calls_each_step_through_the_module(self, monkeypatch):
        # a per-layer trace wraps bimix.disp.spa and bimix.disp.vertex_matrix;
        # inlining either step would hide its time from that trace
        calls = {"spa": 0, "vertex_matrix": 0}

        def counted(name, step):
            def wrapper(*args):
                calls[name] += 1
                return step(*args)
            return wrapper

        module = importlib.import_module("bimix.disp")  # the package's disp attribute is the function
        monkeypatch.setattr(module, "spa", counted("spa", spa))
        monkeypatch.setattr(module, "vertex_matrix", counted("vertex_matrix", vertex_matrix))
        spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2), dist=EdgeDistribution("bernoulli"))
        disp(build_omega(spec), 2)
        assert calls == {"spa": 2, "vertex_matrix": 2}


class TestVertexMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(vertex_matrix(np.eye(2), (0, 1), 0.0), np.eye(2))

    def test_rows_cited_in_order(self):
        X = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(vertex_matrix(X, (2, 0), 0.0), X[[2, 0]])

    def test_recovers_ideal_vertex_rows(self):
        rng = np.random.default_rng(4)
        pi = make_planted_memberships(10, 2, 2)
        B = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        X = pi @ B
        got = vertex_matrix(X, spa(X, 2), 0.0)
        # equals B up to a row permutation
        direct = np.abs(got - B).max()
        swapped = np.abs(got[::-1] - B).max()
        assert min(direct, swapped) < 1e-12

    def test_ball_mean(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0], [0.1, 0.8]])
        got = vertex_matrix(X, (0, 3), 0.3)
        np.testing.assert_allclose(got, [[0.95, 0.05], [0.05, 0.9]], atol=1e-15)

    def test_zero_radius_keeps_rows_with_exact_copies(self):
        X = np.array([[0.1, 0.7], [0.1, 0.7], [0.1, 0.7], [0.3, 0.2]])
        np.testing.assert_array_equal(vertex_matrix(X, (0, 3), 0.0), X[[0, 3]])

    def test_vertex_moves_at_most_radius(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        idx = spa(X, 3)
        got = vertex_matrix(X, idx, 0.4)
        assert np.all(np.linalg.norm(got - X[list(idx)], axis=1) <= 0.4)


class TestIdealRecovery:
    def test_two_block_exact(self):
        spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(20, 2, 4),
                         Pi_c=make_planted_memberships(15, 2, 3), dist=EdgeDistribution("bernoulli"))
        fit = disp(build_omega(spec), spec.K)
        assert error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c) <= 1e-8

    def test_random_specs_k3(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            spec = random_valid_spec(rng, 60, 45, 3)
            fit = disp(build_omega(spec), spec.K)
            assert error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c) <= 1e-8

    def test_symmetric_model_matches_sides(self):
        pi = make_planted_memberships(24, 2, 5)
        P_sym = np.array([[1.0, 0.25], [0.25, 0.7]])
        spec = ModelSpec(P=P_sym, rho=0.9, Pi_r=pi, Pi_c=pi, dist=EdgeDistribution("bernoulli"))
        fit = disp(build_omega(spec), spec.K)
        assert hamm_rc(fit.Pi_r_hat, fit.Pi_c_hat) <= 1e-8

    def test_missing_pure_community_fails_recovery(self):
        # community 1 has no pure row: vertex hunting returns a mixed row
        pi_r = np.array([[1.0, 0.0]] * 4 + [[0.7, 0.3]] * 4 + [[0.5, 0.5]] * 4)
        pi_c = make_planted_memberships(10, 2, 3)
        omega = 0.8 * (pi_r @ P1 @ pi_c.T)
        fit = disp(omega, 2)
        assert error_rate(fit.Pi_r_hat, pi_r, fit.Pi_c_hat, pi_c) > 1e-3


class TestInvariances:
    def test_scale_covariance(self):
        rng = np.random.default_rng(11)
        spec = random_valid_spec(rng, 40, 30, 2)
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(0))
        fit1 = disp(A, 2)
        fit3 = disp(3.0 * A, 2)
        np.testing.assert_allclose(fit3.Pi_r_hat, fit1.Pi_r_hat, atol=1e-10)
        np.testing.assert_allclose(fit3.Pi_c_hat, fit1.Pi_c_hat, atol=1e-10)

    def test_column_sign_flip_invariance(self):
        rng = np.random.default_rng(12)
        spec = random_valid_spec(rng, 30, 25, 3)
        from bimix.spectral import top_k_svd

        t = top_k_svd(build_omega(spec), 3)
        pi, idx, _, _ = memberships_from_embedding(t.left)
        flips = np.diag([1.0, -1.0, -1.0])
        pi_f, idx_f, _, _ = memberships_from_embedding(t.left @ flips)
        assert idx == idx_f
        np.testing.assert_allclose(pi_f, pi, atol=1e-12)

    def test_negation_invariance(self):
        # the symmetry acceptance criterion 6 rests on: under a sign-symmetric
        # law, A and -A are equally likely and fit to the same memberships
        P, rho = make_standard_two_block(300, 30.0, 10.0)
        spec = ModelSpec(P=P, rho=rho, Pi_r=make_planted_memberships(300, 2, 50),
                         Pi_c=make_planted_memberships(300, 2, 100),
                         dist=EdgeDistribution("normal", sigma2=1.0))
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(5))
        fit, neg = disp(A, 2), disp(-A, 2)
        np.testing.assert_array_equal(neg.Pi_r_hat, fit.Pi_r_hat)
        np.testing.assert_array_equal(neg.Pi_c_hat, fit.Pi_c_hat)

    def test_bit_stable_repeat(self):
        rng = np.random.default_rng(13)
        spec = random_valid_spec(rng, 25, 20, 2)
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(1))
        f1, f2 = disp(A, 2), disp(A, 2)
        np.testing.assert_array_equal(f1.Pi_r_hat, f2.Pi_r_hat)
        np.testing.assert_array_equal(f1.Pi_c_hat, f2.Pi_c_hat)


def plain_spa_memberships(A, K):
    t = top_k_svd(A, K)
    return memberships_from_embedding(t.left)[0], memberships_from_embedding(t.right)[0]


class TestVertexRefinement:
    def test_inactive_at_rank_k(self):
        # many pure rows per community: their embedding rows agree only up to
        # rounding, so any nonzero radius would average them
        for n_pure_r, n_pure_c in ((4, 3), (50, 100)):
            spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(300, 2, n_pure_r),
                             Pi_c=make_planted_memberships(300, 2, n_pure_c),
                             dist=EdgeDistribution("bernoulli"))
            omega = build_omega(spec)
            fit = disp(omega, 2)
            pi_r, pi_c = plain_spa_memberships(omega, 2)
            np.testing.assert_array_equal(fit.Pi_r_hat, pi_r)
            np.testing.assert_array_equal(fit.Pi_c_hat, pi_c)

    def test_inactive_when_k_is_min_shape(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(15, 3)) + 3.0 * np.vstack([np.eye(3)] * 5)
        fit = disp(A, 3)
        pi_r, pi_c = plain_spa_memberships(A, 3)
        np.testing.assert_array_equal(fit.Pi_r_hat, pi_r)
        np.testing.assert_array_equal(fit.Pi_c_hat, pi_c)

    def test_active_on_noisy_sample(self):
        spec = ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(200, 2, 50),
                         Pi_c=make_planted_memberships(300, 2, 100),
                         dist=EdgeDistribution("bernoulli"))
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(7))
        t = top_k_svd(A, 2)
        fit = disp(A, 2)
        radius = t.noise_edge / t.singular_values[-1] * np.sqrt(2 / 200)
        assert fit.pure_rows == spa(t.left, 2)
        pi_r, _ = plain_spa_memberships(A, 2)
        assert not np.array_equal(fit.Pi_r_hat, pi_r)
        _, _, cond, _ = memberships_from_embedding(t.left, radius)
        assert cond == fit.cond_row_vertices


class TestOutputContract:
    def test_row_stochastic_even_for_adversarial_input(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(15, 12))  # no planted structure at all
        fit = disp(A, 3)
        for pi in (fit.Pi_r_hat, fit.Pi_c_hat):
            assert np.all(pi >= 0.0) and np.all(pi <= 1.0)
            np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)

    def test_diagnostics_populated(self):
        spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2), dist=EdgeDistribution("bernoulli"))
        fit = disp(build_omega(spec), spec.K)
        assert len(fit.singular_values) == 2
        assert len(fit.pure_rows) == 2 and len(fit.pure_cols) == 2
        assert fit.cond_row_vertices >= 1.0 and fit.cond_col_vertices >= 1.0
        # the selected vertex rows are planted pure rows
        assert all(i < 6 for i in fit.pure_rows)
        assert all(j < 4 for j in fit.pure_cols)

    def test_degenerate_row_gets_uniform(self):
        # third row inverts to all-negative weights, clamping wipes it out
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])
        pi, _, _, degenerate = memberships_from_embedding(X)
        np.testing.assert_allclose(pi[2], [0.5, 0.5])
        assert degenerate == 1

    def test_ill_conditioned_vertices_raise(self):
        X = np.array([[1.0, 0.0], [1.0, 1.6e-12]])
        with pytest.raises(IllPosedFitError, match="condition number"):
            memberships_from_embedding(X)


class TestRankDeficientInput:
    @pytest.mark.parametrize("n", [20, 300])  # full-SVD and Krylov paths
    def test_rank_one_flags_uniform_rows(self, n):
        # one row node linked to every column: A has rank 1 < K = 2, and the
        # rows with no edges carry no sign information
        A = np.zeros((n, n))
        A[0] = 1.0
        fit = disp(A, 2)
        tol = fit.singular_values[0] * n * np.finfo(float).eps
        assert fit.singular_values[1] <= tol and singular_values(A, 3)[2] <= tol
        assert fit.noise_edge == 0.0 and fit.rank_deficient
        uniform_rows = int(np.all(fit.Pi_r_hat == 0.5, axis=1).sum())
        assert fit.degenerate_rows == uniform_rows > 0
        assert 0 <= fit.degenerate_cols <= n

    def test_full_rank_fit_has_no_uniform_rows(self):
        spec = ModelSpec(P=P1, rho=0.8, Pi_r=make_planted_memberships(12, 2, 3),
                         Pi_c=make_planted_memberships(10, 2, 2), dist=EdgeDistribution("bernoulli"))
        fit = disp(build_omega(spec), spec.K)
        assert (fit.degenerate_rows, fit.degenerate_cols) == (0, 0)
        # A has exact rank K, so sigma_{K+1} is rounding noise
        sigma_3 = singular_values(build_omega(spec), 3)[2]
        assert 0.0 <= sigma_3 <= fit.singular_values[0] * 12 * np.finfo(float).eps
        assert fit.noise_edge == 0.0 and not fit.rank_deficient

    @pytest.mark.parametrize("n", [20, 300])  # full-SVD and Krylov paths
    def test_rank_one_outer_product_flagged(self, n):
        # every row and column has edges, so no row falls back to uniform;
        # only the flag shows that A has rank 1 < K = 2
        rng = np.random.default_rng(17)
        fit = disp(np.outer(rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)), 2)
        assert fit.rank_deficient
        for pi in (fit.Pi_r_hat, fit.Pi_c_hat):
            np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)

    def test_sampled_network_not_flagged(self):
        spec = scenario("sim1b").base  # 300 x 300 bernoulli, at the grid's first valid point
        A = sample_adjacency(build_omega(spec), spec.dist, RandomSource(3))
        assert not disp(A, 2).rank_deficient


class TestSampledAccuracy:
    def test_dense_bernoulli_sample_recovers_most_mass(self):
        # protocol-scale smoke check; the replicated version lives in the
        # acceptance suite
        spec = ModelSpec(P=P1, rho=1.0, Pi_r=make_planted_memberships(200, 2, 50),
                         Pi_c=make_planted_memberships(300, 2, 100),
                         dist=EdgeDistribution("bernoulli"))
        omega = build_omega(spec)
        errs = []
        for r in range(10):
            A = sample_adjacency(omega, spec.dist, RandomSource(99, r))
            fit = disp(A, 2)
            errs.append(error_rate(fit.Pi_r_hat, spec.Pi_r, fit.Pi_c_hat, spec.Pi_c))
        assert np.mean(errs) < 0.25
