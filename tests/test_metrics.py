"""Metric tests against brute-force permutation oracles and algebraic identities."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimix.metrics import (
    empirical_tau_gamma,
    error_rate,
    hamm_rc,
    mixed_proportion,
    separation_margins,
)
from bimix.model import (
    ModelSpec,
    build_omega,
    make_planted_memberships,
    make_standard_two_block,
    validate_model,
)
from bimix.sampler import EdgeDistribution, RandomSource, sample_adjacency

from test_model import P1


def oracle_min_perm(est, ref):
    """Brute force: materialize every permutation matrix and take the best."""
    k = est.shape[1]
    best = math.inf
    for perm in itertools.permutations(range(k)):
        P = np.zeros((k, k))
        for col, row in enumerate(perm):
            P[row, col] = 1.0
        best = min(best, float(np.abs(est @ P - ref).sum()))
    return best


def random_stochastic(rng, n, k):
    return rng.dirichlet(np.ones(k), size=n)


class TestErrorRate:
    def test_exact_match_is_zero(self):
        pi = make_planted_memberships(6, 2, 2)
        assert error_rate(pi, pi, pi, pi) == 0.0

    def test_column_swap_absorbed(self):
        pi = make_planted_memberships(6, 2, 2)
        swapped = pi[:, ::-1]
        assert error_rate(swapped, pi, swapped, pi) == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            est = random_stochastic(rng, 6, 3)
            ref = random_stochastic(rng, 6, 3)
            got = error_rate(est, ref, est, ref)
            assert got == oracle_min_perm(est, ref) / 6.0

    def test_matches_oracle_up_to_k5(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 4, 5):
            est = random_stochastic(rng, 8, k)
            ref = random_stochastic(rng, 8, k)
            assert error_rate(est, ref, est, ref) == oracle_min_perm(est, ref) / 8.0

    def test_symmetric_under_simultaneous_permutation(self):
        rng = np.random.default_rng(6)
        est = random_stochastic(rng, 7, 3)
        ref = random_stochastic(rng, 7, 3)
        base = error_rate(est, ref, est, ref)
        for perm in itertools.permutations(range(3)):
            p = list(perm)
            # summation order changes with the layout, so equality is to rounding
            got = error_rate(est[:, p], ref[:, p], est[:, p], ref[:, p])
            assert got == pytest.approx(base, rel=1e-12)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            est = random_stochastic(rng, 5, 2)
            ref = random_stochastic(rng, 5, 2)
            v = error_rate(est, ref, est, ref)
            assert 0.0 <= v <= 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            error_rate(np.eye(2), np.eye(3), np.eye(2), np.eye(2))

    def test_permutation_limit(self):
        big = np.eye(11)
        with pytest.raises(ValueError, match="limit"):
            error_rate(big, big, big, big)


class TestHammRC:
    def test_identical_sides_zero(self):
        pi = make_planted_memberships(8, 2, 2)
        assert hamm_rc(pi, pi) == 0.0

    def test_permuted_columns_zero(self):
        rng = np.random.default_rng(2)
        pi = random_stochastic(rng, 7, 3)
        assert hamm_rc(pi, pi[:, [2, 0, 1]]) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_stochastic(rng, 5, 3)
            b = random_stochastic(rng, 5, 3)
            assert hamm_rc(a, b) == oracle_min_perm(a, b) / 5.0

    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_zero_for_any_permutation(self, k, n):
        rng = np.random.default_rng(n * 10 + k)
        pi = random_stochastic(rng, n, k)
        perm = rng.permutation(k)
        assert hamm_rc(pi, pi[:, perm]) == 0.0


class TestMixedProportion:
    def test_all_pure_is_zero(self):
        pi = make_planted_memberships(4, 2, 2)
        assert mixed_proportion(pi) == 0.0

    def test_all_uniform_is_one(self):
        pi = np.full((5, 2), 0.5)
        assert mixed_proportion(pi) == 1.0

    def test_counts_boundary_as_mixed(self):
        pi = np.array([[0.8, 0.2], [0.9, 0.1]])
        assert mixed_proportion(pi) == 0.5


class TestSeparationMargins:
    def test_bernoulli_plugin(self):
        m = separation_margins(EdgeDistribution("bernoulli"), 30.0, 1.0, 300, tau=1.0)
        assert m.magnitude_margin == pytest.approx(29.0)
        assert m.gap_margin == pytest.approx(29.0)

    def test_signed_plugin(self):
        m = separation_margins(EdgeDistribution("signed"), 45.0, 5.0, 300, tau=2.0)
        assert m.gap_margin == pytest.approx(20.0)
        # magnitude condition reduces to n/log(n) >= tau^2, satisfied at n=300
        assert m.magnitude_margin == pytest.approx(300 / math.log(300) - 4.0)
        assert m.magnitude_margin > 0

    def test_poisson_magnitude(self):
        # rho = 2: the variance bound is gamma * rho = 1 * 2
        limit = 300 / math.log(300)
        m = separation_margins(EdgeDistribution("poisson"), 2.0 * limit, 1.0, 300, tau=1.0)
        assert m.magnitude_margin == pytest.approx(1.0 * 2.0 * limit - 1.0, rel=1e-12)

    def test_exponential_magnitude(self):
        # rho = 5: the variance bound is gamma * rho = 5 * 5
        limit = 300 / math.log(300)
        m = separation_margins(EdgeDistribution("exponential"), 5.0 * limit, 1.0, 300, tau=1.0)
        assert m.magnitude_margin == pytest.approx(5.0 * 5.0 * limit - 1.0, rel=1e-12)

    def test_exponential_equal_alphas_zero_gap(self):
        m = separation_margins(EdgeDistribution("exponential"), 10.0, 10.0, 300, tau=1.5)
        assert m.gap_margin == 0.0

    def test_binomial_m1_matches_bernoulli(self):
        b = separation_margins(EdgeDistribution("bernoulli"), 12.0, 3.0, 200, tau=1.0)
        m1 = separation_margins(EdgeDistribution("binomial", m=1), 12.0, 3.0, 200, tau=1.0)
        assert (b.magnitude_margin, b.gap_margin) == (m1.magnitude_margin, m1.gap_margin)

    def test_normal_magnitude_uses_variance(self):
        m = separation_margins(EdgeDistribution("normal", sigma2=2.0), -30.0, 5.0, 100, tau=3.0)
        assert m.magnitude_margin == pytest.approx(2.0 * 100 / math.log(100) - 9.0)
        assert m.gap_margin == pytest.approx(25.0 / 3.0)

    def test_uniform_divides_by_three(self):
        m = separation_margins(EdgeDistribution("uniform"), 60.0, 10.0, 300, tau=2.0)
        expected = 60.0**2 * math.log(300) / (3 * 300) - 4.0
        assert m.magnitude_margin == pytest.approx(expected)

    def test_logistic_magnitude(self):
        m = separation_margins(EdgeDistribution("logistic", beta=0.5), 10.0, -2.0, 400, tau=1.0)
        expected = math.pi**2 * 0.25 * 400 / (3 * math.log(400)) - 1.0
        assert m.magnitude_margin == pytest.approx(expected)

    def test_zero_peak_keeps_rho_free_magnitude(self):
        # at alpha_in = alpha_out = 0 the laws whose gamma grows as 1/rho keep
        # their rho-free magnitude; the others have none left
        n, log_n = 300, math.log(300)
        expected = {
            EdgeDistribution("normal", sigma2=1.0): n / log_n,  # 52.597, so the margin reads 51.597
            EdgeDistribution("logistic", beta=0.5): math.pi**2 * 0.25 * n / (3 * log_n),
            EdgeDistribution("signed"): n / log_n,
            EdgeDistribution("bernoulli"): 0.0,
            EdgeDistribution("uniform"): 0.0,
        }
        for dist, magnitude in expected.items():
            m = separation_margins(dist, 0.0, 0.0, n, tau=1.0)
            assert m.magnitude_margin == pytest.approx(magnitude - 1.0), dist
            assert m.gap_margin == 0.0

    def test_alpha_domain_enforced(self):
        with pytest.raises(ValueError):
            separation_margins(EdgeDistribution("bernoulli"), -1.0, 3.0, 300, tau=1.0)
        with pytest.raises(ValueError):
            separation_margins(EdgeDistribution("poisson"), 0.0, 3.0, 300, tau=1.0)
        with pytest.raises(ValueError):
            separation_margins(EdgeDistribution("signed"), 80.0, 3.0, 300, tau=2.0)

    def test_alpha_domain_messages(self):
        cases = [
            (EdgeDistribution("bernoulli"), 60.0, "bernoulli alpha_in ([0, 1] * n/log(n)) must be a number in [0, 52.5967], got 60.0"),
            (EdgeDistribution("binomial", m=2), 110.0, "binomial alpha_in ([0, 2] * n/log(n)) must be a number in [0, 105.193], got 110.0"),
            (EdgeDistribution("poisson"), -1.0, "poisson alpha_in ((0, inf) * n/log(n)) must be a number in (0, inf), got -1.0"),
            (EdgeDistribution("uniform"), -1.0, "uniform alpha_in ([0, inf) * n/log(n)) must be a number in [0, inf), got -1.0"),
            (EdgeDistribution("signed"), -60.0, "signed alpha_in ((-1, 1) * n/log(n)) must be a number in (-52.5967, 52.5967), got -60.0"),
            (EdgeDistribution("normal", sigma2=1.0), math.nan, "normal alpha_in ((-inf, inf) * n/log(n)) must be a number in (-inf, inf), got nan"),
        ]
        for dist, alpha, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                separation_margins(dist, alpha, 1.0, 300, tau=1.0)

    def test_binomial_zero_alpha_accepted(self):
        # validate_model admits a zero entry in a binomial P, so the grid admits alpha = 0
        dist = EdgeDistribution("binomial", m=7)
        P, rho = make_standard_two_block(300, 0.0, 3.0)
        spec = ModelSpec(P=P, rho=rho, Pi_r=make_planted_memberships(300, 2, 50),
                         Pi_c=make_planted_memberships(300, 2, 50), dist=dist)
        assert validate_model(spec) == []
        m = separation_margins(dist, 0.0, 3.0, 300, tau=7.0)
        assert (m.magnitude_margin, m.gap_margin) == (3.0 - 49.0, 3.0 / 7.0)


class TestEmpiricalTauGamma:
    def test_exact_expectation_gives_zero(self):
        omega = np.array([[0.4, 0.6], [0.2, 0.8]])
        assert empirical_tau_gamma(omega, omega, 0.5) == (0.0, 0.0)

    def test_bernoulli_bounded_by_one(self):
        spec = ModelSpec(P=P1, rho=0.9, Pi_r=make_planted_memberships(30, 2, 5),
                         Pi_c=make_planted_memberships(20, 2, 4),
                         dist=EdgeDistribution("bernoulli"))
        omega = build_omega(spec)
        A = sample_adjacency(omega, spec.dist, RandomSource(21))
        tau_hat, gamma_hat = empirical_tau_gamma(A, omega, spec.rho)
        assert 0.0 < tau_hat <= 1.0
        assert gamma_hat <= 1.0 / spec.rho + 1e-12

    def test_signed_bounded_by_two(self):
        spec = ModelSpec(P=np.array([[1.0, -0.2], [0.3, -0.8]]), rho=0.9,
                         Pi_r=make_planted_memberships(30, 2, 5),
                         Pi_c=make_planted_memberships(20, 2, 4),
                         dist=EdgeDistribution("signed"))
        omega = build_omega(spec)
        A = sample_adjacency(omega, spec.dist, RandomSource(22))
        tau_hat, _ = empirical_tau_gamma(A, omega, spec.rho)
        assert tau_hat <= 2.0

    def test_requires_positive_rho(self):
        with pytest.raises(ValueError):
            empirical_tau_gamma(np.eye(2), np.eye(2), 0.0)
