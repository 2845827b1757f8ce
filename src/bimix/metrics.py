"""Evaluation metrics and theory-side diagnostics for membership estimates.

The matrix l1 norm used throughout is the entrywise absolute sum, so the
per-node normalization below yields the average l1 discrepancy of a node's
membership vector.  Permutation minimization enumerates all K! column
permutations, which is ample at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sampler import (_LAWS, GRID_NODES, POSITIVE, EdgeDistribution, RhoInterval, block_interval, checked,
                      finite_matrix)

PERMUTATION_LIMIT = 10
HIGHLY_MIXED = 0.8  # a node is highly mixed when no membership weight exceeds this


def _check_pair(est: np.ndarray, ref: np.ndarray, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    est, ref = finite_matrix(est, names[0]), finite_matrix(ref, names[1])
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    if est.shape[1] > PERMUTATION_LIMIT:
        raise ValueError(f"K={est.shape[1]} exceeds the permutation-search limit {PERMUTATION_LIMIT}")
    return est, ref


def _min_permutation_l1(est: np.ndarray, ref: np.ndarray) -> float:
    k = est.shape[1]
    best = math.inf
    for perm in itertools.permutations(range(k)):
        total = float(np.abs(est[:, perm] - ref).sum())
        if total < best:
            best = total
    return best


def error_rate(
    Pi_r_hat: np.ndarray, Pi_r: np.ndarray, Pi_c_hat: np.ndarray, Pi_c: np.ndarray
) -> float:
    """Worst side of the permutation-minimized, node-averaged l1 discrepancy.

    Row and column sides minimize over column permutations independently;
    each side's entrywise absolute sum is divided by its node count.
    """
    Pi_r_hat, Pi_r = _check_pair(Pi_r_hat, Pi_r, ("Pi_r_hat", "Pi_r"))
    Pi_c_hat, Pi_c = _check_pair(Pi_c_hat, Pi_c, ("Pi_c_hat", "Pi_c"))
    row = _min_permutation_l1(Pi_r_hat, Pi_r) / Pi_r.shape[0]
    col = _min_permutation_l1(Pi_c_hat, Pi_c) / Pi_c.shape[0]
    return max(row, col)


def hamm_rc(Pi_r_hat: np.ndarray, Pi_c_hat: np.ndarray) -> float:
    """Permutation-minimized l1 distance between row and column memberships.

    Zero for an undirected network; large values flag heavy asymmetry
    between row-side and column-side community structure.
    """
    Pi_r_hat, Pi_c_hat = _check_pair(Pi_r_hat, Pi_c_hat, ("Pi_r_hat", "Pi_c_hat"))
    return _min_permutation_l1(Pi_r_hat, Pi_c_hat) / Pi_r_hat.shape[0]


def mixed_proportion(Pi_hat: np.ndarray) -> float:
    """Share of nodes whose largest membership weight is at most ``HIGHLY_MIXED``; 0 at K=1."""
    return float(np.mean(finite_matrix(Pi_hat, "Pi_hat").max(axis=1) <= HIGHLY_MIXED))


@dataclass(frozen=True)
class SeparationMargins:
    """Slack in the two-part separation condition of a two-community grid point.

    ``magnitude_margin`` is the kind-specialized left side of the magnitude
    inequality minus tau^2; ``gap_margin`` is ||alpha_in| - |alpha_out||
    divided by tau.  Margins are reported, never thresholded: how much slack
    counts as "comfortably separated" has no universal constant.
    """

    magnitude_margin: float
    gap_margin: float


def separation_margins(
    dist: EdgeDistribution, alpha_in: float, alpha_out: float, n: int, tau: float
) -> SeparationMargins:
    """Margins of the kind-specialized separation condition at one grid point.

    The magnitude condition's left side is the law's variance bound
    gamma * rho at ``rho = max(|alpha_in|, |alpha_out|) * log(n) / n``,
    times n / log(n): it is max(|alpha_in|, |alpha_out|) for
    bernoulli/poisson/binomial, sigma2 * n / log(n) for normal,
    max(alpha^2) * log(n) / n for exponential (divided by 3 for uniform),
    pi^2 beta^2 n / (3 log n) for logistic, and n / log(n) for the signed
    law.  Canonical tau values are 1 (bernoulli), m (binomial) and 2
    (signed); for unbounded laws pass a plug-in estimate.  Each alpha must
    lie in the law's admissible rho * P entries times n / log(n).
    """
    n, tau = checked(n, "n", GRID_NODES, int), checked(tau, "tau", POSITIVE)
    block, log_n = block_interval(dist), math.log(n)
    limit = n / log_n
    interval = RhoInterval(block.lo * limit, block.hi * limit, block.lo_open, block.hi_open)
    alpha_in = checked(alpha_in, f"{dist.kind} alpha_in ({block} * n/log(n))", interval)
    alpha_out = checked(alpha_out, f"{dist.kind} alpha_out ({block} * n/log(n))", interval)

    rho = max(abs(alpha_in), abs(alpha_out)) * log_n / n
    magnitude = _LAWS[dist.kind].variance(dist, rho) * n / log_n
    return SeparationMargins(
        magnitude_margin=magnitude - tau**2,
        gap_margin=abs(abs(alpha_in) - abs(alpha_out)) / tau,
    )


def empirical_tau_gamma(A: np.ndarray, omega: np.ndarray, rho: float) -> tuple[float, float]:
    """Single-sample plug-in estimates of the deviation bound and noise level.

    tau_hat is the largest absolute deviation of A from its expectation;
    gamma_hat is the largest squared deviation divided by rho.  Both are
    plug-ins from one realization, not expectations.
    """
    A, omega = finite_matrix(A, "A"), finite_matrix(omega, "omega")
    if A.shape != omega.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {omega.shape}")
    rho = checked(rho, "rho", POSITIVE)
    dev = np.abs(A - omega)
    tau_hat = float(dev.max())
    gamma_hat = float((dev**2).max() / rho)
    return tau_hat, gamma_hat
