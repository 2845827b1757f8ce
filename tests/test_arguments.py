"""One rule for every count, seed, shape parameter and float argument, and one for every matrix argument.

Each row of ``ARGUMENTS`` names a public argument, how to call with it, its
interval and one admissible integer.  Every bad value raises
``ValueError("{name} must be an integer in {interval}, got {value!r}")``
("a number" for a float parameter), and the admissible integer gives the
same result as a Python int, an integral float and a numpy integer.

Each row of ``MATRICES`` names a public matrix argument, how to call with
it and one admissible matrix.  A 1-d or 3-d array raises ``ValueError("{name}
must be a 2-d matrix, got shape {shape}")``, and a nan or inf entry
``ValueError("{name} at entry (i, j) is {value}, outside (-inf, inf)")``.
"""

import math
import re

import numpy as np
import pytest

from bimix.disp import disp, memberships_from_embedding
from bimix.harness import STREAM_STRIDE, run_replicates, run_sweep, scenario
from bimix.metrics import empirical_tau_gamma, error_rate, hamm_rc, mixed_proportion, separation_margins
from bimix.model import make_planted_memberships, make_standard_two_block
from bimix.sampler import EdgeDistribution, RandomSource
from bimix.spectral import singular_values, top_k_svd

from test_spectral import planted_omega

OMEGA = planted_omega()  # 20 x 15
EMBEDDING = top_k_svd(OMEGA, 2).left
SETUP1 = scenario("setup1", replicates=2)  # 16 x 14, one grid point
BERNOULLI = EdgeDistribution("bernoulli")


# (id, call, printed name, interval, float parameter, value below, value above, admissible integer);
# an interval open to infinity has no value above but inf, which every row gets, and the
# real line none below
ARGUMENTS = [
    ("m", lambda v: EdgeDistribution("binomial", m=v), "binomial parameter m",
     "[1, 9223372036854775807]", False, 0, 2**63, 2),
    ("sigma2", lambda v: EdgeDistribution("normal", sigma2=v), "normal parameter sigma2",
     "[0, inf)", True, -5e-324, None, 2),
    ("beta", lambda v: EdgeDistribution("logistic", beta=v), "logistic parameter beta",
     "(0, inf)", True, 0, None, 2),
    ("seed", lambda v: RandomSource(v).generator().random(), "seed",
     "[0, 18446744073709551616)", False, -1, 2**64, 2),
    ("stream", lambda v: RandomSource(1, v).generator().random(), "stream",
     "[0, inf)", False, -1, None, 2),
    ("plan-replicates", lambda v: scenario("setup1", replicates=v).replicates, "replicates",
     f"[1, {STREAM_STRIDE})", False, 0, STREAM_STRIDE, 2),
    ("plan-seed", lambda v: scenario("setup1", master_seed=v).master_seed, "seed",
     "[0, 18446744073709551616)", False, -1, 2**64, 2),
    ("run_replicates", lambda v: run_replicates(SETUP1.base, v, 0), "replicates",
     f"[1, {STREAM_STRIDE})", False, 0, STREAM_STRIDE, 2),
    ("run_sweep", lambda v: run_sweep(SETUP1, v).to_csv_text(), "n_jobs",
     "[1, inf)", False, 0, None, 2),
    ("planted-n", lambda v: make_planted_memberships(v, 2, 1), "n",
     "[1, inf)", False, 0, None, 2),
    ("planted-K", lambda v: make_planted_memberships(6, v, 1), "K",
     "[1, inf)", False, 0, None, 2),
    ("planted-n_pure", lambda v: make_planted_memberships(6, 2, v), "n_pure_per_community",
     "[1, inf)", False, 0, None, 2),
    ("two_block", lambda v: make_standard_two_block(v, 2.0, 1.0), "n",
     "[3, inf)", False, 2, None, 3),
    ("separation_margins", lambda v: separation_margins(BERNOULLI, 2.0, 1.0, v, 1.0), "n",
     "[3, inf)", False, 2, None, 3),
    ("disp", lambda v: disp(OMEGA, v).Pi_r_hat, "K", "[1, 15]", False, 0, 16, 2),
    ("top_k_svd", lambda v: top_k_svd(OMEGA, v).left, "K", "[1, 15]", False, 0, 16, 2),
    ("singular_values", lambda v: singular_values(OMEGA, v), "k_max", "[1, 15]", False, 0, 16, 2),
    ("tau", lambda v: separation_margins(BERNOULLI, 2.0, 1.0, 10, v), "tau",
     "(0, inf)", True, 0, None, 2),
    ("empirical_tau_gamma", lambda v: empirical_tau_gamma(OMEGA, 0.5 * OMEGA, v), "rho",
     "(0, inf)", True, 0, None, 2),
    # admissible 0: at radius 2 every ball holds every row of the embedding (rows of norm <= 1),
    # so the vertices coincide
    ("radius", lambda v: memberships_from_embedding(EMBEDDING, v), "radius",
     "[0, inf)", True, -5e-324, None, 0),
    ("alpha_in", lambda v: make_standard_two_block(300, v, 1.0), "alpha_in",
     "(-inf, inf)", True, None, None, 2),
    ("alpha_out", lambda v: make_standard_two_block(300, 3.0, v), "alpha_out",
     "(-inf, inf)", True, None, None, 2),
    # a string or a bool alpha was once read as float(alpha)
    ("margin-alpha_in", lambda v: separation_margins(BERNOULLI, v, 1.0, 300, 1.0),
     "bernoulli alpha_in ([0, 1] * n/log(n))", "[0, 52.5967]", True, -5e-324, 60.0, 2),
    ("margin-alpha_out", lambda v: separation_margins(BERNOULLI, 2.0, v, 300, 1.0),
     "bernoulli alpha_out ([0, 1] * n/log(n))", "[0, 52.5967]", True, -5e-324, 60.0, 2),
]

FRACTION, HUGE = 2.5, 10**400  # HUGE lies beyond float range
BAD = [True, np.True_, FRACTION, math.inf, math.nan, HUGE, "2"]


def _bad_cases():
    for label, call, name, interval, is_float, below, above, _ in ARGUMENTS:
        values = [v for v in BAD if not (is_float and v is FRACTION)]  # 2.5 is a fine variance
        values += [v for v in (below, above) if v is not None]
        kind = "a number" if is_float else "an integer"
        for value in values:
            shown = "10**400" if value is HUGE else repr(value)
            yield pytest.param(call, f"{name} must be {kind} in {interval}, got {value!r}", value,
                               id=f"{label}-{shown}")


@pytest.mark.parametrize("call, printed, value", _bad_cases())
def test_bad_value_raises_the_one_message(call, printed, value):
    with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
        call(value)


@pytest.mark.parametrize("call, good", [pytest.param(row[1], row[-1], id=row[0]) for row in ARGUMENTS])
def test_integral_float_and_numpy_integer_equal_the_int(call, good):
    expected = call(good)
    for value in (float(good), np.int64(good)):
        np.testing.assert_equal(call(value), expected)


PI = make_planted_memberships(6, 2, 2)

# (id, call with the matrix argument, printed name, admissible matrix)
MATRICES = [
    ("top_k_svd", lambda M: top_k_svd(M, 1), "A", OMEGA),
    ("singular_values", lambda M: singular_values(M, 1), "A", OMEGA),
    ("disp", lambda M: disp(M, 2), "A", OMEGA),
    ("memberships_from_embedding", memberships_from_embedding, "X", EMBEDDING),
    ("error_rate-Pi_r_hat", lambda M: error_rate(M, PI, PI, PI), "Pi_r_hat", PI),
    ("error_rate-Pi_r", lambda M: error_rate(PI, M, PI, PI), "Pi_r", PI),
    ("error_rate-Pi_c_hat", lambda M: error_rate(PI, PI, M, PI), "Pi_c_hat", PI),
    ("error_rate-Pi_c", lambda M: error_rate(PI, PI, PI, M), "Pi_c", PI),
    ("hamm_rc-Pi_r_hat", lambda M: hamm_rc(M, PI), "Pi_r_hat", PI),
    ("hamm_rc-Pi_c_hat", lambda M: hamm_rc(PI, M), "Pi_c_hat", PI),
    ("mixed_proportion", mixed_proportion, "Pi_hat", PI),
    ("empirical_tau_gamma-A", lambda M: empirical_tau_gamma(M, OMEGA, 0.5), "A", OMEGA),
    ("empirical_tau_gamma-omega", lambda M: empirical_tau_gamma(OMEGA, M, 0.5), "omega", OMEGA),
]


def _bad_matrices():
    for label, call, name, good in MATRICES:
        for shown, bad in (("1-d", good[1]), ("3-d", good[None])):
            yield pytest.param(call, bad, f"{name} must be a 2-d matrix, got shape {bad.shape}",
                               id=f"{label}-{shown}")
        for value in (math.nan, math.inf):
            bad = good.copy()
            bad[1, 0] = value
            yield pytest.param(call, bad, f"{name} at entry (1, 0) is {value!r}, outside (-inf, inf)",
                               id=f"{label}-{value!r}")


@pytest.mark.parametrize("call, bad, printed", _bad_matrices())
def test_bad_matrix_raises_naming_the_argument(call, bad, printed):
    # vertex_matrix failed inside einsum on a 1-d X and the metrics returned nan or inf
    with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
        call(bad)


@pytest.mark.parametrize("call, good", [pytest.param(row[1], row[3], id=row[0]) for row in MATRICES])
def test_good_matrix_accepted(call, good):
    call(good)


@pytest.mark.parametrize("shape", [(0, 2), (5, 0), (1, 2)], ids=str)
def test_embedding_without_k_rows_rejected(shape):
    # K is the embedding's column count, and SPA picks K distinct rows
    n, k = shape
    printed = f"K must be an integer in [1, {n}], got {k}"
    with pytest.raises(ValueError, match=f"^{re.escape(printed)}$"):
        memberships_from_embedding(np.ones(shape))
