"""Entrywise sampling of weighted adjacency matrices.

Every supported edge-weight law produces independent entries A(i, j) whose
expectation equals the supplied mean matrix entry omega(i, j).  The mean
matrix must lie inside the law's admissible domain, which is checked before
any random draw happens.

Each law is one record in ``_LAWS``: its shape parameter and that
parameter's interval, its admissible means and scaled connectivity entries,
its variance bound and its draw.
Every function below reads the record; none switches on the kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# exact types: an isinstance test on numbers.Real alone took about half of checked's time
_NUMBER_TYPES = (int, float, np.integer, np.floating)
_FLOAT_MAX = sys.float_info.max


class SamplingDomainError(ValueError):
    """A mean-matrix entry lies outside the edge law's admissible domain."""


@dataclass(frozen=True)
class RhoInterval:
    """Interval of admissible values, with open or closed ends.

    One bounds the means of an edge law, the entries of rho * P, rho itself,
    a shape parameter, a count, a seed or a float argument.  No non-finite
    value lies inside one.
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = False

    def _inside(self, x):
        # elementwise on arrays; nan compares false, so it is inside nothing
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return above & below

    def contains(self, x: float) -> bool:
        # finite as a float: nan, +-inf and integers beyond float range lie in none
        return abs(x) <= _FLOAT_MAX and bool(self._inside(x))

    def first_outside(self, values: np.ndarray) -> str:
        """``""`` if every entry of ``values`` lies inside; else a text naming the first that does not."""
        bad = ~(np.isfinite(values) & self._inside(values))
        if not bad.any():
            return ""
        index = tuple(np.argwhere(bad)[0])
        return f"entry ({', '.join(map(str, index))}) is {float(values[index])!r}, outside {self}"

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        # integer ends print in full, like a binomial trial count
        lo, hi = (str(v) if isinstance(v, int) else f"{v:g}" for v in (self.lo, self.hi))
        return f"{left}{lo}, {hi}{right}"


def is_number(value) -> bool:
    """True for a real number, not a bool, that ``float`` holds without overflow (inf and nan, not ``10**400``).

    The one number test of every argument, model field and grid value.
    """
    # True is an int to Python; np.bool_ is none of the types
    return (isinstance(value, _NUMBER_TYPES) and type(value) is not bool
            and (not isinstance(value, int) or abs(value) <= _FLOAT_MAX))


def checked(value, name: str, interval: RhoInterval, coerce=float):
    """``coerce(value)`` if ``value`` is a number inside ``interval`` that ``coerce`` leaves equal.

    Every count, seed, shape parameter and float argument is checked here;
    with ``coerce=int`` ``2.0`` passes as ``2``.  Anything else, a bool or a
    string included, raises ``ValueError`` naming ``name``, the interval and
    the value.
    """
    # the interval test comes before coerce, which raises on inf and nan
    if is_number(value) and interval.contains(value) and coerce(value) == value:
        return coerce(value)
    kind = "an integer" if coerce is int else "a number"
    raise ValueError(f"{name} must be {kind} in {interval}, got {value!r}")


def finite_matrix(value, name: str) -> np.ndarray:
    """``value`` as a float array if it is 2-d and finite; else ``ValueError`` naming ``name``.

    Every public function that takes a matrix from its caller checks it here.
    """
    M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} at {REALS.first_outside(M)}")
    return M


REALS = RhoInterval(-math.inf, math.inf, hi_open=True)  # every finite number
POSITIVE = RhoInterval(0.0, math.inf, hi_open=True)
NONNEGATIVE = RhoInterval(0.0, math.inf, lo_open=False, hi_open=True)
_SEEDS = RhoInterval(0, 2**64, lo_open=False, hi_open=True)  # numpy's SeedSequence entropy
COUNTS = RhoInterval(1, math.inf, lo_open=False, hi_open=True)  # a count of nodes, communities or jobs
GRID_NODES = RhoInterval(3, math.inf, lo_open=False, hi_open=True)  # n of a log(n)/n alpha grid


@dataclass(frozen=True)
class _Law:
    """One edge law's rules.

    ``mean(dist)`` bounds the entries of the mean matrix, and ``block(dist)``
    the entries of the scaled connectivity rho * P where they differ (it
    defaults to ``mean``); a model is admissible when every entry of rho * P
    lies in ``block``, and the rho range and the two-community grid alphas
    follow from it.  ``variance(dist, rho)`` bounds Var[A(i, j)] at scale
    rho, so the normalized noise level gamma is ``variance / rho``.
    ``draw`` makes the law's numpy calls for a whole mean matrix.  A law
    with a shape parameter names it in ``param``; ``checked`` admits a value
    that lies in ``domain`` and that ``coerce`` leaves equal, and it is stored
    as ``coerce`` returns it.  The default admits any finite mean.
    """

    variance: Callable
    draw: Callable
    mean: Callable = lambda d: REALS
    block: Callable | None = None
    param: str | None = None
    domain: RhoInterval | None = None
    coerce: Callable | None = None


_LAWS = {
    "bernoulli": _Law(
        mean=lambda d: RhoInterval(0.0, 1.0, lo_open=False),
        variance=lambda d, rho: rho,
        draw=lambda g, omega, d: (g.random(omega.shape) < omega).astype(float),
    ),
    "poisson": _Law(
        mean=lambda d: NONNEGATIVE,
        block=lambda d: POSITIVE,
        variance=lambda d, rho: rho,
        draw=lambda g, omega, d: g.poisson(omega).astype(float),
    ),
    "binomial": _Law(
        mean=lambda d: RhoInterval(0, d.m, lo_open=False),
        variance=lambda d, rho: rho,
        draw=lambda g, omega, d: g.binomial(d.m, omega / d.m).astype(float),
        param="m",
        # numpy's binomial takes at most a C long
        domain=RhoInterval(1, 2**63 - 1, lo_open=False),
        coerce=int,
    ),
    "normal": _Law(
        variance=lambda d, rho: d.sigma2,
        # bit-equal to g.normal(loc=omega, scale=sqrt(sigma2)), which computes
        # loc + scale * z over the same variates but broadcasts entry by entry
        # (40% slower at 300 x 300); scale 0 reproduces the mean exactly
        draw=lambda g, omega, d: omega + math.sqrt(d.sigma2) * g.standard_normal(omega.shape),
        param="sigma2",
        domain=NONNEGATIVE,
        coerce=float,
    ),
    "exponential": _Law(
        mean=lambda d: POSITIVE,
        variance=lambda d, rho: rho * rho,
        # bit-equal to g.exponential(scale=omega), which computes scale * e over
        # the same standard exponential variates but broadcasts entry by entry
        draw=lambda g, omega, d: omega * g.standard_exponential(omega.shape),
    ),
    "uniform": _Law(
        mean=lambda d: NONNEGATIVE,
        variance=lambda d, rho: rho * rho / 3.0,
        # bit-equal to g.uniform(low=0.0, high=2.0 * omega), which computes
        # low + (high - low) * u over the same variates but broadcasts entry by
        # entry; 0.0 + x is x, and the product is 2.0 * omega times u
        draw=lambda g, omega, d: (2.0 * omega) * g.random(omega.shape),
    ),
    "logistic": _Law(
        variance=lambda d, rho: math.pi**2 * d.beta**2 / 3.0,
        draw=lambda g, omega, d: g.logistic(loc=omega, scale=d.beta),
        param="beta",
        domain=POSITIVE,
        coerce=float,
    ),
    "signed": _Law(
        mean=lambda d: RhoInterval(-1.0, 1.0, lo_open=False),
        block=lambda d: RhoInterval(-1.0, 1.0, hi_open=True),
        variance=lambda d, rho: 1.0,
        # +1 with probability (1 + omega) / 2, else -1: the same values as
        # np.where(u < (1 + omega) / 2, 1.0, -1.0) from one multiply-add pass
        # over the comparison, without np.where's per-entry select
        draw=lambda g, omega, d: 2.0 * (g.random(omega.shape) < (1.0 + omega) / 2.0) - 1.0,
    ),
}

KINDS = tuple(_LAWS)

# the edge law each shape parameter belongs to, in EdgeDistribution's field order
PARAM_KINDS = {law.param: kind for kind, law in _LAWS.items() if law.param}


@dataclass(frozen=True)
class EdgeDistribution:
    """One of the supported edge-weight laws plus its shape parameters.

    Parameters are present exactly for the kinds that need them: ``m``
    (trial count) for binomial, ``sigma2`` (variance) for normal, ``beta``
    (scale) for logistic.
    """

    kind: str
    m: int | None = None
    sigma2: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        law = _LAWS[self.kind]
        for param in PARAM_KINDS:
            value = getattr(self, param)
            if param != law.param:
                if value is not None:
                    raise ValueError(f"{self.kind} distribution takes no parameter {param!r}")
            elif value is None:
                raise ValueError(f"{self.kind} distribution requires parameter {param!r}")
            else:
                value = checked(value, f"{self.kind} parameter {param}", law.domain, law.coerce)
                object.__setattr__(self, param, value)


@dataclass(frozen=True)
class RandomSource:
    """Seedable random source with indexed substreams.

    Identical ``(seed, stream)`` pairs yield identical draw sequences on
    every run.  Substreams are independent, so replicates and grid points
    can be sampled in any order (or in parallel) without changing results.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", checked(self.seed, "seed", _SEEDS, int))
        object.__setattr__(self, "stream", checked(self.stream, "stream", NONNEGATIVE, int))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def block_interval(dist: EdgeDistribution) -> RhoInterval:
    """Admissible entries of the scaled connectivity rho * P under ``dist``."""
    law = _LAWS[dist.kind]
    return (law.block or law.mean)(dist)


def _check_domain(omega: np.ndarray, dist: EdgeDistribution) -> None:
    outside = _LAWS[dist.kind].mean(dist).first_outside(omega)
    if outside:
        raise SamplingDomainError(f"{dist.kind} mean at {outside}")


def sample_adjacency(
    omega: np.ndarray, dist: EdgeDistribution, rng: RandomSource
) -> np.ndarray:
    """Draw an adjacency matrix with independent entries and mean ``omega``.

    Entry supports per kind: bernoulli in {0, 1}, poisson in the nonnegative
    integers, binomial in {0, ..., m}, signed in {-1, 1}, exponential in
    (0, inf), uniform in [0, 2 omega(i, j)], normal and logistic anywhere on
    the real line.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2:
        raise ValueError(f"mean matrix must be 2-dimensional, got shape {omega.shape}")
    _check_domain(omega, dist)
    return _LAWS[dist.kind].draw(rng.generator(), omega, dist)
