"""Model construction, validation and expectation-matrix tests."""

import math
import re

import numpy as np
import pytest

from bimix.model import (
    InvalidModelError,
    ModelSpec,
    block_violations,
    build_omega,
    make_planted_memberships,
    make_standard_two_block,
    membership_violations,
    validate_model,
)
from bimix.sampler import (
    EdgeDistribution,
    RandomSource,
    SamplingDomainError,
    admissible_rho_interval,
    sample_adjacency,
)

P1 = np.array([[1.0, 0.2], [0.3, 0.8]])


def random_valid_spec(rng, n_r, n_c, K, dist=None, rho=0.7):
    """Random spec: one pure row per community, dirichlet mixed rows."""

    def memberships(n):
        pi = rng.dirichlet(np.ones(K), size=n)
        for k in range(K):
            pi[k] = 0.0
            pi[k, k] = 1.0
        return pi

    P = rng.uniform(0.1, 1.0, (K, K))
    P = P + np.eye(K)  # keep the matrix comfortably nonsingular
    P = P / np.abs(P).max()
    return ModelSpec(
        P=P,
        rho=rho,
        Pi_r=memberships(n_r),
        Pi_c=memberships(n_c),
        dist=dist or EdgeDistribution("bernoulli"),
    )


class TestBuildOmega:
    def test_identity_memberships_reproduce_connectivity(self):
        spec = ModelSpec(P=P1, rho=1.0, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        np.testing.assert_array_equal(build_omega(spec), P1)

    def test_scaled_two_by_two(self):
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        np.testing.assert_allclose(build_omega(spec), [[0.5, 0.1], [0.15, 0.4]], atol=1e-15)

    def test_rank_is_exactly_k(self):
        rng = np.random.default_rng(7)
        spec = random_valid_spec(rng, n_r=40, n_c=30, K=3)
        omega = build_omega(spec)
        sv = np.linalg.svd(omega, compute_uv=False)  # full-decomposition oracle
        assert sv[3] / sv[0] < 1e-10

    def test_linear_in_rho(self):
        rng = np.random.default_rng(8)
        spec = random_valid_spec(rng, n_r=25, n_c=20, K=2, rho=0.3)
        doubled = ModelSpec(P=spec.P, rho=0.6, Pi_r=spec.Pi_r, Pi_c=spec.Pi_c, dist=spec.dist)
        np.testing.assert_allclose(build_omega(doubled), 2.0 * build_omega(spec), rtol=1e-14)

    def test_invalid_spec_raises_naming_violation(self):
        bad_pi = np.array([[0.9, 0.0], [0.0, 1.0], [0.5, 0.5]])  # row 0 sums to 0.9
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=bad_pi, Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        with pytest.raises(InvalidModelError, match="row 0 sums"):
            build_omega(spec)


class TestPlantedMemberships:
    def test_tiny_example(self):
        pi = make_planted_memberships(4, 2, 1)
        np.testing.assert_array_equal(pi, [[1, 0], [0, 1], [0.5, 0.5], [0.5, 0.5]])

    def test_blocked_layout(self):
        pi = make_planted_memberships(200, 2, 50)
        np.testing.assert_array_equal(pi[:50], np.tile([1.0, 0.0], (50, 1)))
        np.testing.assert_array_equal(pi[50:100], np.tile([0.0, 1.0], (50, 1)))
        np.testing.assert_array_equal(pi[100:], np.full((100, 2), 0.5))

    @pytest.mark.parametrize("n,K,n_pure", [(6, 2, 1), (30, 3, 4), (50, 4, 5), (12, 2, 6)])
    def test_invariants(self, n, K, n_pure):
        pi = make_planted_memberships(n, K, n_pure)
        assert membership_violations(pi, K, "membership") == []
        # exactly K * n_pure pure rows for K >= 2
        pure = np.sum(np.any(pi == 1.0, axis=1))
        assert pure == K * n_pure
        sv = np.linalg.svd(pi, compute_uv=False)
        assert sv[K - 1] > 1e-10 * sv[0]

    def test_overfull_raises(self):
        with pytest.raises(InvalidModelError, match="exceeds"):
            make_planted_memberships(5, 2, 3)

    def test_rank_deficient_named(self):
        # rows that are valid memberships but span only one direction
        assert membership_violations(np.full((4, 2), 0.5), 2, "membership") == [
            "membership: rank below the community count 2",
            "membership: community 0 has no pure row",
            "membership: community 1 has no pure row",
        ]
        assert "membership: rank below the community count 2" in membership_violations(
            np.zeros((3, 2)), 2, "membership"
        )

    def test_row_sum_printed_as_plain_float(self):
        # numpy 2 scalars repr as np.float64(...); the message, a sweep skip
        # reason, must print the bare number
        assert "membership: row 0 sums to 0.0, must be 1 within 1e-12" in membership_violations(
            np.zeros((3, 2)), 2, "membership"
        )


class TestStandardTwoBlock:
    def test_positive_pair(self):
        P, rho = make_standard_two_block(300, 30.0, 10.0)
        assert rho == pytest.approx(30.0 * math.log(300) / 300, rel=1e-15)
        np.testing.assert_allclose(P, [[1.0, 1 / 3], [1 / 3, 1.0]], rtol=1e-15)

    def test_equal_magnitude_raises(self):
        with pytest.raises(InvalidModelError, match="singular"):
            make_standard_two_block(300, 2.0, 2.0)
        with pytest.raises(InvalidModelError, match="singular"):
            make_standard_two_block(300, -5.0, 5.0)

    def test_negative_alpha_in(self):
        P, rho = make_standard_two_block(300, -50.0, 10.0)
        # recompute the normalization by hand
        assert rho == pytest.approx(50.0 * math.log(300) / 300, rel=1e-15)
        assert P[0, 0] == -1.0 and P[1, 1] == -1.0
        assert np.abs(P).max() == 1.0
        np.testing.assert_allclose(
            rho * P, np.array([[-50.0, 10.0], [10.0, -50.0]]) * math.log(300) / 300, rtol=1e-14
        )

    def test_grid_roundtrip_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a_in, a_out = rng.uniform(-40, 40, size=2)
            if abs(a_in) == abs(a_out):
                continue
            n = int(rng.integers(10, 500))
            P, rho = make_standard_two_block(n, a_in, a_out)
            assert np.abs(P).max() == pytest.approx(1.0, abs=1e-12)
            expected = np.array([[a_in, a_out], [a_out, a_in]]) * math.log(n) / n
            np.testing.assert_allclose(rho * P, expected, atol=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer in [3, inf), got 2")):
            make_standard_two_block(2, 3.0, 1.0)


class TestValidateModel:
    def test_valid_spec_empty_report(self):
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=make_planted_memberships(8, 2, 2),
                         Pi_c=make_planted_memberships(6, 2, 1), dist=EdgeDistribution("bernoulli"))
        assert validate_model(spec) == []

    def test_row_stochasticity_named(self):
        bad = np.array([[0.9, 0.0], [0.0, 1.0], [0.5, 0.5]])
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=bad, Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        report = validate_model(spec)
        assert any("sums to" in msg for msg in report)

    def test_sign_class_mismatch_named(self):
        P_neg = np.array([[1.0, -0.2], [0.3, -0.8]])
        spec = ModelSpec(P=P_neg, rho=0.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        assert validate_model(spec) == ["bernoulli rho * P at entry (0, 1) is -0.1, outside [0, 1]"]

    def test_poisson_requires_strictly_positive(self):
        P_zero = np.array([[1.0, 0.0], [0.3, 0.8]])
        spec = ModelSpec(P=P_zero, rho=1.0, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("poisson"))
        assert validate_model(spec) == ["poisson rho * P at entry (0, 1) is 0.0, outside (0, inf)"]

    def test_rho_interval_violation_named(self):
        spec = ModelSpec(P=P1, rho=1.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        assert any("rho" in msg and "interval" in msg for msg in validate_model(spec))

    def test_missing_pure_row_named(self):
        no_pure = np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]])
        spec = ModelSpec(P=P1, rho=0.5, Pi_r=no_pure, Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        assert any("no pure row" in msg for msg in validate_model(spec))

    def test_k_exceeds_node_count(self):
        spec = ModelSpec(P=np.eye(3), rho=0.5, Pi_r=make_planted_memberships(3, 3, 1),
                         Pi_c=make_planted_memberships(2, 2, 1), dist=EdgeDistribution("bernoulli"))
        assert any("exceeds" in msg or "columns" in msg for msg in validate_model(spec))


class TestModelSpecFields:
    """A bool or string rho or matrix entry is refused, not read as a number."""

    @pytest.mark.parametrize("rho, printed", [
        (True, "True"), (np.bool_(True), "np.True_"), ("0.5", "'0.5'"), (None, "None"),
        (np.array(True), "dtype bool"),
    ], ids=["bool", "numpy-bool", "string", "none", "0-d-bool-array"])
    def test_rho_not_a_number_rejected(self, rho, printed):
        # the first three were built as rho = 1.0, 1.0 and 0.5
        with pytest.raises(ValueError, match=f"^{re.escape(f'rho must hold only numbers, got {printed}')}$"):
            ModelSpec(P=P1, rho=rho, Pi_r=np.eye(2), Pi_c=np.eye(2), dist=EdgeDistribution("bernoulli"))

    def test_infinite_rho_left_to_validate_model(self):
        spec = ModelSpec(P=P1, rho=math.inf, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        assert validate_model(spec) == ["rho=inf outside admissible interval (0, 1] for bernoulli"]

    @pytest.mark.parametrize("field, value, printed", [
        ("P", [[True, "0.2"], [0.3, 0.8]], "True"),
        ("P", [[1.0, "0.2"], [0.3, 0.8]], "'0.2'"),
        ("P", ((1.0, 0.2), (0.3, np.bool_(False))), "np.False_"),
        ("P", True, "True"),
        ("Pi_r", [[1.0, 0.0], [0.0, None]], "None"),
        ("Pi_c", [[1.0, 0.0], [0.0, {}]], "{}"),
        ("Pi_c", np.eye(2, dtype=bool), "dtype bool"),
        ("Pi_r", np.array([["1", "0"], ["0", "1"]]), "dtype <U1"),
        ("P", np.array([[1.0, 0.2], [0.3, 0.8]], dtype=object), "dtype object"),
    ], ids=["P-bool", "P-string", "P-numpy-bool-in-tuples", "P-bool-scalar", "Pi_r-none",
            "Pi_c-dict", "Pi_c-bool-array", "Pi_r-string-array", "P-object-array"])
    def test_matrix_entry_not_a_number_rejected_naming_the_field(self, field, value, printed):
        # np.asarray(dtype=float) read True as 1.0 and "0.2" as 0.2, so validate_model passed them
        fields = {"P": P1, "Pi_r": np.eye(2), "Pi_c": np.eye(2), field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must hold only numbers, got {printed}')}$"):
            ModelSpec(rho=0.5, dist=EdgeDistribution("bernoulli"), **fields)

    def test_numbers_kept(self):
        spec = ModelSpec(P=[[1, np.float32(0.25)], (np.int64(0), 0.5)], rho=np.float64(0.5),
                         Pi_r=np.eye(2, dtype=np.uint8), Pi_c=np.eye(2, dtype=int),
                         dist=EdgeDistribution("bernoulli"))
        assert type(spec.rho) is float and spec.rho == 0.5
        np.testing.assert_array_equal(spec.P, [[1.0, 0.25], [0.0, 0.5]])
        assert {spec.P.dtype, spec.Pi_r.dtype, spec.Pi_c.dtype} == {np.dtype(float)}
        assert validate_model(spec) == []


# The rule validate_model applied before it checked rho * P entry by entry: rho
# in the law's interval, and P's sign class (the tightest one all its entries
# share) at least as strong as the class the law requires.
SIGN_CLASSES = ("any-real", "nonnegative", "strictly-positive")
REQUIRED_SIGN_CLASS = {
    "bernoulli": "nonnegative", "poisson": "strictly-positive", "binomial": "nonnegative",
    "normal": "any-real", "exponential": "strictly-positive", "uniform": "nonnegative",
    "logistic": "any-real", "signed": "any-real",
}


def sign_class_rule(spec: ModelSpec) -> bool:
    """The reference verdict on rho and P alone."""
    actual = 2 if np.all(spec.P > 0.0) else 1 if np.all(spec.P >= 0.0) else 0
    required = SIGN_CLASSES.index(REQUIRED_SIGN_CLASS[spec.dist.kind])
    return admissible_rho_interval(spec.dist).contains(spec.rho) and actual >= required


ORACLE_LAWS = [EdgeDistribution("bernoulli"), EdgeDistribution("poisson"), EdgeDistribution("binomial", m=7),
               EdgeDistribution("normal", sigma2=1.0), EdgeDistribution("exponential"),
               EdgeDistribution("uniform"), EdgeDistribution("logistic", beta=1.0),
               EdgeDistribution("signed")]
# full rank, unit maximum absolute entry
ORACLE_BLOCKS = {
    "positive": np.array([[1.0, 0.2], [0.3, 0.8]]),
    "one zero": np.array([[1.0, 0.0], [0.3, 0.8]]),
    "one negative": np.array([[1.0, -0.2], [0.3, 0.8]]),
    "unit -1": np.array([[0.5, 0.2], [0.3, -1.0]]),
}


def oracle_rhos(dist) -> list[float]:
    """Each end of the law's rho interval, one ulp past it, and values inside."""
    hi = admissible_rho_interval(dist).hi
    rhos = [0.0, math.nextafter(0.0, -math.inf), hi, 0.5]
    if math.isinf(hi):
        return rhos + [math.nextafter(hi, 0.0)]  # the largest finite rho
    return rhos + [math.nextafter(hi, math.inf), math.nextafter(hi, 0.0)]


class TestBlockInterval:
    """validate_model's rho * P check against the sign-class rule it replaced."""

    @pytest.mark.parametrize("dist", ORACLE_LAWS, ids=[d.kind for d in ORACLE_LAWS])
    @pytest.mark.parametrize("pattern", ORACLE_BLOCKS)
    def test_same_verdict_as_sign_class_rule(self, dist, pattern):
        for rho in oracle_rhos(dist):
            spec = ModelSpec(P=ORACLE_BLOCKS[pattern], rho=rho, Pi_r=np.eye(2), Pi_c=np.eye(2),
                             dist=dist)
            assert (validate_model(spec) == []) == sign_class_rule(spec), rho

    def test_rounded_entries_judged_as_the_sampler_judges_them(self):
        # The verdicts differ only where rounding takes a product out of the block
        # interval: an entry within block_violations' 1e-12 of unit size, or one that
        # underflows to 0.  The sign-class rule accepted both, and the sampler then
        # rejected the means they give pure rows.
        over = ModelSpec(P=np.array([[1.0 + 5e-13, 0.2], [0.3, 0.8]]), rho=1.0, Pi_r=np.eye(2),
                         Pi_c=np.eye(2), dist=EdgeDistribution("bernoulli"))
        under = ModelSpec(P=P1, rho=5e-324, Pi_r=np.eye(2), Pi_c=np.eye(2),
                          dist=EdgeDistribution("exponential"))
        assert validate_model(over) == [
            "bernoulli rho * P at entry (0, 0) is 1.0000000000005, outside [0, 1]"
        ]
        assert validate_model(under) == [
            "exponential rho * P at entry (0, 1) is 0.0, outside (0, inf)"
        ]
        for spec in (over, under):
            assert sign_class_rule(spec)
            with pytest.raises(SamplingDomainError):
                sample_adjacency(spec.rho * spec.P, spec.dist, RandomSource(0))

    @pytest.mark.parametrize("P, printed", [
        (np.array([1.0, -0.5]), "bernoulli rho * P at entry (1) is -0.25, outside [0, 1]"),
        (np.array([[1.0, 0.2], [0.3, 0.8], [-0.5, 0.5]]),
         "bernoulli rho * P at entry (2, 0) is -0.25, outside [0, 1]"),
    ], ids=["1-d", "3x2"])
    def test_non_square_block_gets_messages(self, P, printed):
        spec = ModelSpec(P=P, rho=0.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        report = validate_model(spec)
        assert f"block matrix: must be square, got shape {P.shape}" in report
        assert printed in report

    def test_scalar_block_reported(self):
        # a 0-d P has no first axis: validate_model raised IndexError from spec.K
        spec = ModelSpec(P=1.0, rho=0.5, Pi_r=np.eye(2), Pi_c=np.eye(2),
                         dist=EdgeDistribution("bernoulli"))
        assert validate_model(spec) == [
            "Pi_r: has 2 columns, expected K=0",
            "Pi_c: has 2 columns, expected K=0",
            "block matrix: must be square, got shape ()",
        ]
        with pytest.raises(InvalidModelError, match=r"block matrix: must be square, got shape \(\)"):
            build_omega(spec)


class TestSignClass:
    def test_block_violations(self):
        assert block_violations(P1) == []
        assert any("maximum absolute" in m for m in block_violations(P1 * 0.5))
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert any("rank" in m for m in block_violations(singular))

    def test_block_violations_zero_matrix(self):
        assert "block matrix: rank below 2" in block_violations(np.zeros((2, 2)))
        assert "block matrix: maximum absolute entry is 0.0, must equal 1" in block_violations(
            np.zeros((2, 2))
        )
