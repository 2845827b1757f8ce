"""Generative model parameters for overlapping bipartite weighted networks.

The expectation of the adjacency matrix is ``rho * Pi_r @ P @ Pi_c.T``: the
membership matrices Pi_r (rows) and Pi_c (columns) are row stochastic with
rank K, the K x K connectivity matrix P has unit maximum absolute entry and
full rank, and rho > 0 scales the whole expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import (COUNTS, GRID_NODES, REALS, EdgeDistribution, RhoInterval, block_interval, checked,
                      is_number)

# sigma_K must exceed RANK_RTOL * sigma_1 for a matrix to count as rank K
RANK_RTOL = 1e-10
# a row sum, a pure row's weight and P's largest absolute entry must equal 1 within this
UNIT_ATOL = 1e-12


class InvalidModelError(ValueError):
    """Model parameters violate a structural constraint."""


def _rank_deficient(M: np.ndarray, k: int) -> bool:
    sv = np.linalg.svd(M, compute_uv=False)
    return len(sv) < k or k > 0 and sv[k - 1] <= RANK_RTOL * sv[0]


def _membership_violations(pi: np.ndarray, K: int, name: str) -> list[str]:
    """One message per violated invariant of one membership matrix.

    Every community must own at least one pure row (a row whose weight on
    that community is 1).
    """
    k = pi.shape[1]
    out = []
    if k != K:
        out.append(f"{name}: has {k} columns, expected K={K}")
    if not np.all(np.isfinite(pi)):
        out.append(f"{name}: contains non-finite entries")
        return out
    if np.any(pi < 0.0) or np.any(pi > 1.0):
        out.append(f"{name}: entries must lie in [0, 1]")
    sums = pi.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > UNIT_ATOL):
        i = int(np.argmax(off))
        out.append(f"{name}: row {i} sums to {float(sums[i])!r}, must be 1 within {UNIT_ATOL:g}")
    if _rank_deficient(pi, k):
        out.append(f"{name}: rank below the community count {k}")
    for community in range(k):
        if not np.any(pi[:, community] >= 1.0 - UNIT_ATOL):
            out.append(f"{name}: community {community} has no pure row")
    return out


def _block_violations(P: np.ndarray) -> list[str]:
    """One message per violated invariant of the connectivity matrix."""
    if P.shape[0] != P.shape[1]:
        return [f"block matrix: must be square, got shape {P.shape}"]
    if not P.size:
        return ["block matrix: has no entries, K must be at least 1"]
    if not np.all(np.isfinite(P)):
        return ["block matrix: contains non-finite entries"]
    out = []
    if abs(np.max(np.abs(P)) - 1.0) > UNIT_ATOL:
        out.append(f"block matrix: maximum absolute entry is {float(np.max(np.abs(P)))!r}, must equal 1")
    if _rank_deficient(P, P.shape[0]):
        out.append(f"block matrix: rank below {P.shape[0]}")
    return out


def _non_number(value) -> str:
    """``""`` if every entry of ``value`` is a real number; else a text naming the first that is not.

    A bool or a string is not a number, though ``np.asarray(..., dtype=float)``
    reads True as 1.0 and "0.2" as 0.2.  Nested lists and tuples are checked
    entry by entry; an ndarray by its dtype alone, so rebuilding a spec from
    float arrays, as every sweep point does, checks no entry.
    """
    if isinstance(value, np.ndarray):
        return "" if value.dtype.kind in "iuf" else f"dtype {value.dtype}"
    if isinstance(value, (list, tuple)):
        return next(filter(None, map(_non_number, value)), "")
    return "" if is_number(value) else repr(value)


@dataclass(frozen=True)
class ModelSpec:
    """Complete parameter bundle: connectivity, scale, memberships, edge law."""

    P: np.ndarray
    rho: float
    Pi_r: np.ndarray
    Pi_c: np.ndarray
    dist: EdgeDistribution

    def __post_init__(self):
        # validate_model reports a rho or an entry that is not finite or out of range
        for name in ("P", "Pi_r", "Pi_c"):
            if bad := _non_number(getattr(self, name)):
                raise ValueError(f"{name} must hold only numbers, got {bad}")
            matrix = np.asarray(getattr(self, name), dtype=float)
            if matrix.ndim != 2:
                raise ValueError(f"{name} must be a 2-d matrix, got shape {matrix.shape}")
            object.__setattr__(self, name, matrix)
        if _non_number(self.rho) or np.ndim(self.rho):
            raise ValueError(f"rho must be one number, got {self.rho!r}")
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def n_r(self) -> int:
        return self.Pi_r.shape[0]

    @property
    def n_c(self) -> int:
        return self.Pi_c.shape[0]

    @property
    def K(self) -> int:
        return self.P.shape[0]


def validate_model(spec: ModelSpec) -> list[str]:
    """Report every violated model invariant; an empty list means valid.

    The edge law bounds every entry of rho * P, so rho up to P's unit top
    entry: Bernoulli means are probabilities so rho <= 1, binomial success
    probabilities cap rho at the trial count m, and the signed law needs the
    two point probabilities (1 +/- omega)/2 inside (0, 1), so rho < 1.
    """
    out = _membership_violations(spec.Pi_r, spec.K, "Pi_r")
    out += _membership_violations(spec.Pi_c, spec.K, "Pi_c")
    out += _block_violations(spec.P)
    block = block_interval(spec.dist)
    rhos = RhoInterval(0.0, block.hi, hi_open=block.hi_open)
    if not rhos.contains(spec.rho):
        out.append(f"rho={spec.rho!r} outside admissible interval {rhos} for {spec.dist.kind}")
    elif outside := block.first_outside(spec.rho * spec.P):
        out.append(f"{spec.dist.kind} rho * P at {outside}")
    return out


def build_omega(spec: ModelSpec) -> np.ndarray:
    """Expectation adjacency matrix ``rho * Pi_r @ P @ Pi_c.T`` (rank exactly K).

    Each mean averages entries of rho * P, which lie in the law's block
    interval; only rounding and row sums within ``UNIT_ATOL`` of 1 take one
    past an end, so means are clipped to the interval's closed hull.
    Raises ``InvalidModelError`` carrying ``validate_model``'s messages joined by "; ".
    """
    violations = validate_model(spec)
    if violations:
        raise InvalidModelError("; ".join(violations))
    block = block_interval(spec.dist)
    omega = spec.rho * (spec.Pi_r @ spec.P @ spec.Pi_c.T)
    return np.clip(omega, block.lo, block.hi, out=omega)


def make_planted_memberships(n: int, K: int, n_pure_per_community: int) -> np.ndarray:
    """Planted membership matrix: pure blocks first, then uniformly mixed rows.

    Rows are laid out community by community: community k owns the pure rows
    k*n_pure .. (k+1)*n_pure - 1, and every remaining row carries the uniform
    weight vector (1/K, ..., 1/K).
    """
    n, K = checked(n, "n", COUNTS, int), checked(K, "K", COUNTS, int)
    n_pure = checked(n_pure_per_community, "n_pure_per_community", COUNTS, int)
    if K * n_pure > n:
        raise InvalidModelError(
            f"K * n_pure_per_community = {K * n_pure} exceeds the node count n = {n}"
        )
    pi = np.full((n, K), 1.0 / K)
    for k in range(K):
        pi[k * n_pure : (k + 1) * n_pure, :] = 0.0
        pi[k * n_pure : (k + 1) * n_pure, k] = 1.0
    return pi


def make_standard_two_block(n: int, alpha_in: float, alpha_out: float) -> tuple[np.ndarray, float]:
    """Two-community connectivity from an (alpha_in, alpha_out) grid point.

    The scaled connectivity ``rho * P`` equals
    ``[[alpha_in, alpha_out], [alpha_out, alpha_in]] * log(n) / n``, split so
    that ``rho = max(|alpha_in|, |alpha_out|) * log(n) / n`` and P has unit
    maximum absolute entry.  Equal magnitudes make the matrix singular and
    are rejected.
    """
    n = checked(n, "n", GRID_NODES, int)
    alpha_in, alpha_out = checked(alpha_in, "alpha_in", REALS), checked(alpha_out, "alpha_out", REALS)
    scale = max(abs(alpha_in), abs(alpha_out))
    if abs(alpha_in) == abs(alpha_out):
        raise InvalidModelError(
            f"|alpha_in| = |alpha_out| = {scale} makes the scaled connectivity singular"
        )
    rho = scale * math.log(n) / n
    P = np.array([[alpha_in, alpha_out], [alpha_out, alpha_in]]) / scale
    return P, rho
