"""Successive projection: greedy selection of the rows spanning a simplex.

On input X = Pi @ B with row-stochastic Pi holding at least one pure row per
community and nonsingular B, the selected rows are exactly pure rows, one
per community.  Selection repeatedly takes the row with the largest residual
norm and deflates every row against it.
"""

from __future__ import annotations

import numpy as np

from .sampler import NONNEGATIVE, RhoInterval, checked, finite_matrix

# residual norms at or below RESIDUAL_RTOL times the initial maximum norm
# signal rank deficiency
RESIDUAL_RTOL = 1e-12


class RankDeficientInputError(ValueError):
    """The residual collapsed before the requested number of selections."""


def spa(X: np.ndarray, K: int) -> tuple[int, ...]:
    """Select K vertex rows of X, in selection order.

    Ties in the maximum residual norm break toward the lowest row index.
    Raises RankDeficientInputError when the residual matrix runs out of mass
    before K rows are chosen.
    """
    X = finite_matrix(X, "X")
    K = checked(K, "K", RhoInterval(1, X.shape[0], lo_open=False), int)

    R = X.copy()
    norms = np.sqrt((R * R).sum(axis=1))
    floor = RESIDUAL_RTOL * norms.max()
    selected: list[int] = []
    directions: list[np.ndarray] = []
    for _ in range(K):
        norms = np.sqrt((R * R).sum(axis=1))
        j = int(np.argmax(norms))  # first maximum: lowest-index tie rule
        if norms[j] <= floor:
            raise RankDeficientInputError(
                f"residual collapsed after {len(selected)} of {K} selections"
            )
        u = R[j].copy()
        # re-orthogonalize against earlier directions to limit drift
        for _ in range(2):
            for d in directions:
                u -= (u @ d) * d
        u /= np.linalg.norm(u)
        R -= np.outer(R @ u, u)
        directions.append(u)
        selected.append(j)
    return tuple(selected)


def vertex_matrix(X: np.ndarray, idx, radius: float = 0.0) -> np.ndarray:
    """Stack the cited rows of X in the given order, each averaged over its ball.

    Vertex v is the mean of the rows of X within Euclidean distance
    ``radius`` of cited row X_j, so it moves at most ``radius`` from X_j.  On
    a noisy embedding the row SPA cites is the most extreme one, noise
    included; the ball mean averages that noise out.  At radius 0 the ball
    holds only exact copies of X_j and the cited rows come back unchanged.
    """
    X = finite_matrix(X, "X")
    rows = RhoInterval(0, X.shape[0] - 1, lo_open=False)
    idx = [checked(i, "row index", rows, int) for i in idx]
    radius = checked(radius, "radius", NONNEGATIVE)
    B = X[np.asarray(idx, dtype=int)]
    for v, j in enumerate(idx):
        D = X - X[j]
        near = np.einsum("ij,ij->i", D, D) <= radius * radius
        # shift X_j by the mean offset: exact copies add exactly zero
        B[v] += D[near].mean(axis=0)
    return B
