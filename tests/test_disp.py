"""Estimator tests: exact ideal recovery, invariances, degeneracy handling."""

import numpy as np
import pytest

from bimix.disp import IllPosedFitError, disp, memberships_from_embedding
from bimix.harness import scenario
from bimix.metrics import error_rate, hamm_rc
from bimix.model import ModelSpec, build_omega, make_planted_memberships, make_standard_two_block
from bimix.sampler import EdgeDistribution, RandomSource, sample_adjacency
from bimix.spa import spa
from bimix.spectral import singular_values, top_k_svd

from test_model import P1, random_valid_spec


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
