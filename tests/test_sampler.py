"""Sampler tests: determinism, per-law moments, supports and domain checks."""

import json
import math
import re

import numpy as np
import pytest

from bimix.sampler import (
    _LAWS,
    KINDS,
    EdgeDistribution,
    RandomSource,
    SamplingDomainError,
    block_interval,
    sample_adjacency,
)
from bimix.io import spec_from_dict
from bimix.metrics import separation_margins
from bimix.model import ModelSpec, make_planted_memberships, validate_model

from test_io import spec_to_dict
from test_model import P1

OMEGA = np.array([[0.9, 0.3], [0.2, 0.7]])


class TestRandomSource:
    def test_same_seed_same_stream_identical(self):
        d = EdgeDistribution("poisson")
        a = sample_adjacency(OMEGA * 5, d, RandomSource(123, 4))
        b = sample_adjacency(OMEGA * 5, d, RandomSource(123, 4))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        d = EdgeDistribution("normal", sigma2=1.0)
        a = sample_adjacency(OMEGA, d, RandomSource(123, 0))
        b = sample_adjacency(OMEGA, d, RandomSource(123, 1))
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_fractional_seed_and_stream_rejected(self):
        # 1.5 is not truncated to seed 1 or stream 1
        printed = "seed must be an integer in [0, 18446744073709551616), got 1.5"
        with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
            RandomSource(1.5)
        with pytest.raises(ValueError, match=re.escape("stream must be an integer in [0, inf), got 1.5")):
            RandomSource(1, 1.5)
        assert RandomSource(3.0, 2.0) == RandomSource(3, 2)

    @pytest.mark.parametrize("seed, stream, printed", [
        (True, 0, "seed must be an integer in [0, 18446744073709551616), got True"),
        (np.True_, 0, "seed must be an integer in [0, 18446744073709551616), got np.True_"),
        (False, 0, "seed must be an integer in [0, 18446744073709551616), got False"),
        (0, True, "stream must be an integer in [0, inf), got True"),
        (0, np.True_, "stream must be an integer in [0, inf), got np.True_"),
    ], ids=["seed-True", "seed-np.True_", "seed-False", "stream-True", "stream-np.True_"])
    def test_boolean_seed_and_stream_rejected(self, seed, stream, printed):
        # a bool is an int to Python, so True ran as seed or stream 1
        with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
            RandomSource(seed, stream)

    def test_non_finite_seed_and_stream_named(self):
        # inf raised OverflowError and nan int()'s own message, naming neither field
        for seed in (math.inf, -math.inf, math.nan):
            printed = f"seed must be an integer in [0, 18446744073709551616), got {seed!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
                RandomSource(seed)
        for stream in (math.inf, -math.inf, math.nan):
            printed = f"stream must be an integer in [0, inf), got {stream!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
                RandomSource(1, stream)


class TestDegenerateCases:
    def test_bernoulli_zero_and_one(self):
        omega = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = sample_adjacency(omega, EdgeDistribution("bernoulli"), RandomSource(5))
        np.testing.assert_array_equal(a, omega)

    def test_normal_zero_variance_reproduces_mean(self):
        omega = np.array([[1.5, -2.0], [0.0, 3.25]])
        a = sample_adjacency(omega, EdgeDistribution("normal", sigma2=0.0), RandomSource(5))
        np.testing.assert_array_equal(a, omega)

    def test_normal_draw_matches_numpy_normal_bit_for_bit(self):
        # the law draws omega + sqrt(sigma2) * z; numpy's normal(loc, scale)
        # is the oracle, over C, Fortran and strided means and zero variance
        rng = np.random.default_rng(0)
        for case in range(120):
            omega = rng.normal(size=tuple(rng.integers(1, 40, size=2))) * 10.0 ** rng.integers(-3, 4)
            omega = (omega, np.asfortranarray(omega), omega[:, ::2])[case % 3]
            sigma2 = (0.0, 1.0, 2.5, 1e-8, 1e6)[case % 5]
            source = RandomSource(case)
            got = sample_adjacency(omega, EdgeDistribution("normal", sigma2=sigma2), source)
            want = source.generator().normal(loc=omega, scale=math.sqrt(sigma2))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind, oracle", [
        ("signed", lambda g, omega: np.where(g.random(omega.shape) < (1.0 + omega) / 2.0, 1.0, -1.0)),
        ("uniform", lambda g, omega: g.uniform(low=0.0, high=2.0 * omega)),
        ("exponential", lambda g, omega: g.exponential(scale=omega)),
    ])
    def test_draw_matches_numpy_broadcasting_call_bit_for_bit(self, kind, oracle):
        # each law draws from the whole-matrix variates the way the normal law
        # does; numpy's broadcasting call is the oracle, over 50 seeds and C,
        # Fortran and strided means
        rng = np.random.default_rng(1)
        for case in range(50):
            shape = tuple(rng.integers(1, 40, size=2))
            if kind == "signed":  # every fifth case holds only the ends -1 and 1, and 0
                omega = (rng.uniform(-1.0, 1.0, shape) if case % 5 else
                         rng.choice([-1.0, 0.0, 1.0], shape))
            else:  # uniform takes a zero mean, the exponential law none
                omega = rng.exponential(size=shape) * 10.0 ** rng.integers(-3, 4)
                if kind == "uniform" and case % 4 == 0:
                    omega[:, 0] = 0.0
            omega = (omega, np.asfortranarray(omega), omega[:, ::2])[case % 3]
            source = RandomSource(case)
            got = sample_adjacency(omega, EdgeDistribution(kind), source)
            want = oracle(source.generator(), omega)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestPoissonMoments:
    def test_million_draw_mean_and_variance(self):
        omega = np.full((1000, 1000), 3.0)
        a = sample_adjacency(omega, EdgeDistribution("poisson"), RandomSource(11))
        assert abs(a.mean() - 3.0) < 0.01
        assert abs(a.var(ddof=1) - 3.0) < 0.03


class TestSupports:
    def test_bernoulli_binary(self):
        a = sample_adjacency(OMEGA, EdgeDistribution("bernoulli"), RandomSource(1))
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_signed_plus_minus_one(self):
        a = sample_adjacency(OMEGA - 0.5, EdgeDistribution("signed"), RandomSource(1))
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_poisson_nonnegative_integers(self):
        a = sample_adjacency(OMEGA * 4, EdgeDistribution("poisson"), RandomSource(1))
        assert np.all(a >= 0) and np.all(a == np.round(a))

    def test_binomial_bounded_integers(self):
        a = sample_adjacency(OMEGA * 5, EdgeDistribution("binomial", m=7), RandomSource(1))
        assert np.all((a >= 0) & (a <= 7)) and np.all(a == np.round(a))

    def test_exponential_positive(self):
        a = sample_adjacency(OMEGA, EdgeDistribution("exponential"), RandomSource(1))
        assert np.all(a > 0)

    def test_uniform_within_twice_mean(self):
        omega = OMEGA * 3
        a = sample_adjacency(omega, EdgeDistribution("uniform"), RandomSource(1))
        assert np.all(a >= 0) and np.all(a <= 2 * omega)


class TestDomainErrors:
    def test_bernoulli_mean_above_one(self):
        omega = np.array([[0.5, 1.2], [0.1, 0.3]])
        with pytest.raises(SamplingDomainError, match=r"\(0, 1\)|\[0, 1\]"):
            sample_adjacency(omega, EdgeDistribution("bernoulli"), RandomSource(1))

    def test_error_names_first_offender(self):
        omega = np.array([[0.5, 0.2], [-0.1, 1.7]])
        with pytest.raises(SamplingDomainError, match=r"\(1, 0\)"):
            sample_adjacency(omega, EdgeDistribution("bernoulli"), RandomSource(1))

    def test_exponential_rejects_zero_mean(self):
        omega = np.array([[0.5, 0.0], [0.1, 0.3]])
        with pytest.raises(SamplingDomainError):
            sample_adjacency(omega, EdgeDistribution("exponential"), RandomSource(1))

    def test_signed_rejects_out_of_range(self):
        omega = np.array([[0.5, -1.2], [0.1, 0.3]])
        with pytest.raises(SamplingDomainError):
            sample_adjacency(omega, EdgeDistribution("signed"), RandomSource(1))

    def test_binomial_rejects_mean_above_m(self):
        omega = np.array([[3.5, 2.0], [1.0, 7.5]])
        with pytest.raises(SamplingDomainError):
            sample_adjacency(omega, EdgeDistribution("binomial", m=7), RandomSource(1))


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


# law -> (its constructor, its mean domain as printed, means on or just inside
# the domain's ends, means just past them); laws with no bounded end accept any
# finite mean, and no infinite or nan one
MEAN_DOMAINS = {
    "bernoulli": (EdgeDistribution("bernoulli"), "[0, 1]", (0.0, 1.0), (_below(0.0), _above(1.0))),
    "poisson": (EdgeDistribution("poisson"), "[0, inf)", (0.0,), (_below(0.0),)),
    "binomial": (EdgeDistribution("binomial", m=7), "[0, 7]", (0.0, 7.0), (_below(0.0), _above(7.0))),
    "normal": (EdgeDistribution("normal", sigma2=1.0), "(-inf, inf)", (-1e300, 1e300), (-np.inf, np.nan)),
    "exponential": (EdgeDistribution("exponential"), "(0, inf)", (_above(0.0),), (0.0, -1.0)),
    "uniform": (EdgeDistribution("uniform"), "[0, inf)", (0.0,), (_below(0.0),)),
    "logistic": (EdgeDistribution("logistic", beta=1.0), "(-inf, inf)", (-1e300, 1e300), (np.inf, np.nan)),
    "signed": (EdgeDistribution("signed"), "[-1, 1]", (-1.0, 1.0), (_below(-1.0), _above(1.0))),
}


class TestDomainBoundaries:
    def test_every_law_listed(self):
        assert tuple(MEAN_DOMAINS) == KINDS

    @pytest.mark.parametrize("kind", KINDS)
    def test_ends_accepted_and_just_past_rejected(self, kind):
        dist, domain, inside, outside = MEAN_DOMAINS[kind]
        for mean in inside:
            sample_adjacency(np.full((2, 3), mean), dist, RandomSource(1))
        for mean in outside:
            omega = np.full((2, 3), 0.5)
            omega[1, 2] = mean
            printed = f"{kind} mean at entry (1, 2) is {mean!r}, outside {domain}"
            with pytest.raises(SamplingDomainError, match=f"^{re.escape(printed)}$"):
                sample_adjacency(omega, dist, RandomSource(1))

    def test_large_trial_count_printed_in_full(self):
        omega = np.array([[2e6]])
        with pytest.raises(SamplingDomainError, match=re.escape("outside [0, 1234567]")):
            sample_adjacency(omega, EdgeDistribution("binomial", m=1234567), RandomSource(1))


def gamma(dist, rho):
    """Normalized noise level: the law's variance bound at scale rho, over rho."""
    return _LAWS[dist.kind].variance(dist, rho) / rho


class TestGamma:
    def test_bernoulli_is_one(self):
        assert gamma(EdgeDistribution("bernoulli"), 0.4) == 1.0
        assert gamma(EdgeDistribution("bernoulli"), 1.0) == 1.0

    def test_logistic_cancellation(self):
        rho = math.pi**2 / 3.0
        assert gamma(EdgeDistribution("logistic", beta=1.0), rho) == pytest.approx(1.0)

    def test_uniform_third(self):
        assert gamma(EdgeDistribution("uniform"), 3.0) == pytest.approx(1.0)

    def test_remaining_kinds(self):
        assert gamma(EdgeDistribution("poisson"), 2.0) == 1.0
        assert gamma(EdgeDistribution("binomial", m=4), 2.0) == 1.0
        assert gamma(EdgeDistribution("normal", sigma2=2.0), 4.0) == pytest.approx(0.5)
        assert gamma(EdgeDistribution("exponential"), 5.0) == 5.0
        assert gamma(EdgeDistribution("signed"), 0.5) == pytest.approx(2.0)


def rho_report(dist, rho) -> list[str]:
    """validate_model's report on rho under ``dist``, with identity memberships and a positive P."""
    return validate_model(ModelSpec(P=P1, rho=rho, Pi_r=np.eye(2), Pi_c=np.eye(2), dist=dist))


def rho_admitted(dist, rho) -> bool:
    return not any(message.startswith("rho=") for message in rho_report(dist, rho))


class TestRhoInterval:
    def test_bernoulli_half_open(self):
        dist = EdgeDistribution("bernoulli")
        assert rho_report(dist, 0.0) == ["rho=0.0 outside admissible interval (0, 1] for bernoulli"]
        assert rho_admitted(dist, 1.0) and not rho_admitted(dist, 0.0) and not rho_admitted(dist, 1.01)

    def test_binomial_scales_with_m(self):
        dist = EdgeDistribution("binomial", m=7)
        assert rho_admitted(dist, 7.0) and not rho_admitted(dist, 7.5)

    def test_signed_open(self):
        dist = EdgeDistribution("signed")
        assert not rho_admitted(dist, 1.0) and rho_admitted(dist, 0.999)

    def test_unbounded_kinds(self):
        for dist in (EdgeDistribution("poisson"), EdgeDistribution("normal", sigma2=1.0),
                     EdgeDistribution("exponential"), EdgeDistribution("uniform"),
                     EdgeDistribution("logistic", beta=2.0)):
            assert rho_admitted(dist, 1e6) and not rho_admitted(dist, 0.0)


LIMIT_300 = 300 / math.log(300)  # the grid alpha that makes rho * P entry 1 at n = 300

# per law: the admissible entries of rho * P, the rho interval, and the
# grid-alpha range at n = 300 as (lo, hi, lo closed, hi closed)
LAW_DOMAINS = [
    (EdgeDistribution("bernoulli"), "[0, 1]", "(0, 1]", (0.0, LIMIT_300, True, True)),
    (EdgeDistribution("poisson"), "(0, inf)", "(0, inf)", (0.0, math.inf, False, False)),
    (EdgeDistribution("binomial", m=7), "[0, 7]", "(0, 7]", (0.0, 7 * LIMIT_300, True, True)),
    (EdgeDistribution("binomial", m=1234567), "[0, 1234567]", "(0, 1234567]",
     (0.0, 1234567 * LIMIT_300, True, True)),
    (EdgeDistribution("normal", sigma2=1.0), "(-inf, inf)", "(0, inf)", (-math.inf, math.inf, False, False)),
    (EdgeDistribution("exponential"), "(0, inf)", "(0, inf)", (0.0, math.inf, False, False)),
    (EdgeDistribution("uniform"), "[0, inf)", "(0, inf)", (0.0, math.inf, True, False)),
    (EdgeDistribution("logistic", beta=1.0), "(-inf, inf)", "(0, inf)", (-math.inf, math.inf, False, False)),
    (EdgeDistribution("signed"), "(-1, 1)", "(0, 1)", (-LIMIT_300, LIMIT_300, False, False)),
]


def _alpha_accepted(dist, alpha):
    try:
        separation_margins(dist, alpha, alpha, 300, tau=1.0)
    except ValueError:
        return False
    return True


class TestLawDomains:
    """Each law's rho * P entries, rho interval and grid-alpha range, as one table."""

    @pytest.mark.parametrize("dist, block, rho, alpha", LAW_DOMAINS,
                             ids=[d.kind if d.m is None else f"{d.kind}-{d.m}" for d, *_ in LAW_DOMAINS])
    def test_domain(self, dist, block, rho, alpha):
        assert str(block_interval(dist)) == block
        assert rho_report(dist, 0.0) == [f"rho=0.0 outside admissible interval {rho} for {dist.kind}"]
        lo, hi, lo_closed, hi_closed = alpha
        for end, closed, outward in ((lo, lo_closed, -math.inf), (hi, hi_closed, math.inf)):
            if math.isinf(end):
                assert _alpha_accepted(dist, math.copysign(1e300, end))
                assert not _alpha_accepted(dist, end)
            else:
                assert _alpha_accepted(dist, end) == closed
                assert _alpha_accepted(dist, math.nextafter(end, -outward))
                assert not _alpha_accepted(dist, math.nextafter(end, outward))
        assert not _alpha_accepted(dist, math.nan)


class TestEdgeDistributionParams:
    def test_required_params_enforced(self):
        with pytest.raises(ValueError, match="requires parameter"):
            EdgeDistribution("binomial")
        with pytest.raises(ValueError, match="requires parameter"):
            EdgeDistribution("normal")
        with pytest.raises(ValueError, match="requires parameter"):
            EdgeDistribution("logistic")

    def test_extraneous_params_rejected(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            EdgeDistribution("bernoulli", m=3)
        with pytest.raises(ValueError, match="takes no parameter"):
            EdgeDistribution("poisson", sigma2=1.0)

    def test_param_domains(self):
        with pytest.raises(ValueError):
            EdgeDistribution("binomial", m=0)
        with pytest.raises(ValueError):
            EdgeDistribution("normal", sigma2=-1.0)
        with pytest.raises(ValueError):
            EdgeDistribution("logistic", beta=0.0)

    # (kind, parameter, value): values outside the parameter's domain, each
    # named with the domain; the parameters' infinities were accepted, or
    # raised OverflowError, and binomial's nan raised int()'s own message.
    # m = 2**63 constructed and failed at sampling, past numpy's C long; an
    # integer beyond float range raised OverflowError from the interval test.
    # A bool is an int to Python and True equals its coercion, so m = True built m = 1
    @pytest.mark.parametrize("kind, param, value", [
        ("binomial", "m", 0), ("binomial", "m", 2.5), ("binomial", "m", math.inf),
        ("binomial", "m", math.nan), ("normal", "sigma2", -1.0), ("normal", "sigma2", math.inf),
        ("normal", "sigma2", math.nan), ("logistic", "beta", 0.0), ("logistic", "beta", math.inf),
        ("logistic", "beta", -math.inf), ("binomial", "m", 2**63), ("binomial", "m", 10**400),
        ("normal", "sigma2", 10**400), ("logistic", "beta", 10**400),
        ("binomial", "m", True), ("binomial", "m", np.True_), ("normal", "sigma2", True),
        ("normal", "sigma2", False), ("logistic", "beta", np.True_),
    ], ids=lambda v: "np.True_" if v is np.True_ else "10**400" if v == 10**400 else None)
    def test_param_outside_domain_named(self, kind, param, value):
        domain, kind_of = {"m": ("[1, 9223372036854775807]", "an integer"),
                           "sigma2": ("[0, inf)", "a number"), "beta": ("(0, inf)", "a number")}[param]
        printed = f"{kind} parameter {param} must be {kind_of} in {domain}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
            EdgeDistribution(kind, **{param: value})

    def test_dict_roundtrip(self):
        for dist in (EdgeDistribution("bernoulli"), EdgeDistribution("binomial", m=7),
                     EdgeDistribution("normal", sigma2=2.5), EdgeDistribution("logistic", beta=0.3)):
            spec = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(4, 2, 1),
                             Pi_c=make_planted_memberships(3, 2, 1), dist=dist)
            assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))).dist == dist

    def test_largest_trial_count_samples(self):
        dist = EdgeDistribution("binomial", m=2**63 - 1)
        A = sample_adjacency(np.full((2, 3), 3.0), dist, RandomSource(1))
        assert A.shape == (2, 3) and np.all((A >= 0) & (A == np.round(A)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution kind"):
            EdgeDistribution("cauchy")
