"""DiSP: spectral estimation of row and column memberships from an adjacency matrix.

Pipeline: top-K SVD of A; vertex hunting (SPA) on the rows of each
singular-vector matrix; each vertex refined to the mean of the embedding rows
within r = (noise_edge/sigma_K) * sqrt(K/n) of SPA's pick; inversion
against the refined vertices; clamp negatives to zero; normalize each row to
sum 1.

r is the noise scale of the singular-vector rows: sqrt(K/n) is their typical
norm and noise_edge/sigma_K the relative size of the noise, where
noise_edge, the bulk edge of the residual noise (see ``spectral``), stands in
for sigma_{K+1} so that the SVD converges only the top K triples.  Plain SPA
takes the single noisiest extreme row as a vertex, which pulls every
estimated membership toward the middle; the ball mean removes that bias.
When A has numerical rank K, or K = min(n_r, n_c), r is 0 and the fit is
plain SPA, so running it on the exact expectation matrix recovers the
planted memberships up to a column permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import NONNEGATIVE, RhoInterval, checked, finite_matrix
from .spectral import top_k_svd

COND_LIMIT = 1e12
DEGENERATE_ROW_TOL = 1e-12
# residual norms at or below RESIDUAL_RTOL times the initial maximum norm
# signal rank deficiency
RESIDUAL_RTOL = 1e-12


class IllPosedFitError(RuntimeError):
    """The embedding holds no K invertible vertex rows: SPA collapsed or they are near singular."""


@dataclass(frozen=True)
class FitResult:
    """Estimated memberships plus fit diagnostics.

    The fields after the two membership matrices are the schema of ``bimix
    fit``'s ``diagnostics.json``, in order, after ``k``, ``n_r`` and ``n_c``.

    ``noise_edge`` is the SVD's bulk-edge noise scale, which sets the ball
    radius (0 when A has numerical rank K, or K = min(n_r, n_c)); sigma_{K+1}
    itself is ``spectral.singular_values(A, K + 1)[K]``.
    ``degenerate_rows`` and ``degenerate_cols`` count the nodes on each side
    whose clamped weights vanished, so they got the uniform membership (a
    node with no edges, for one).  A rank-deficient ``A`` need not raise
    them: its K-th singular vectors are arbitrary.  ``rank_deficient`` flags
    it: sigma_K is at most ``sigma_1 * max(n_r, n_c) * eps``, numpy's
    ``matrix_rank`` tolerance, so A has numerical rank below K.  The fit
    still returns memberships; nothing raises.
    """

    Pi_r_hat: np.ndarray
    Pi_c_hat: np.ndarray
    singular_values: np.ndarray
    pure_rows: tuple[int, ...]
    pure_cols: tuple[int, ...]
    cond_row_vertices: float
    cond_col_vertices: float
    noise_edge: float
    degenerate_rows: int
    degenerate_cols: int
    rank_deficient: bool


def spa(X: np.ndarray, K: int) -> tuple[int, ...]:
    """Successive projection: select K vertex rows of X, in selection order.

    On input X = Pi @ B with row-stochastic Pi holding at least one pure row
    per community and nonsingular B, the selected rows are exactly pure rows,
    one per community.  Selection repeatedly takes the row with the largest
    residual norm and deflates every row against it.  Ties in the maximum
    residual norm break toward the lowest row index.  Raises IllPosedFitError
    when the residual matrix runs out of mass before K rows are chosen.
    """
    R = X.copy()
    norms = np.sqrt((R * R).sum(axis=1))
    floor = RESIDUAL_RTOL * norms.max()
    selected: list[int] = []
    directions: list[np.ndarray] = []
    for _ in range(K):
        norms = np.sqrt((R * R).sum(axis=1))
        j = int(np.argmax(norms))  # first maximum: lowest-index tie rule
        if norms[j] <= floor:
            raise IllPosedFitError(
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


def vertex_matrix(X: np.ndarray, idx, radius: float) -> np.ndarray:
    """Stack the cited rows of X in the given order, each averaged over its ball.

    Vertex v is the mean of the rows of X within Euclidean distance
    ``radius`` of cited row X_j, so it moves at most ``radius`` from X_j.  On
    a noisy embedding the row SPA cites is the most extreme one, noise
    included; the ball mean averages that noise out.  At radius 0 the ball
    holds only exact copies of X_j and the cited rows come back unchanged.
    """
    B = X[np.asarray(idx, dtype=int)]
    for v, j in enumerate(idx):
        D = X - X[j]
        near = np.einsum("ij,ij->i", D, D) <= radius * radius
        # shift X_j by the mean offset: exact copies add exactly zero
        B[v] += D[near].mean(axis=0)
    return B


def memberships_from_embedding(X: np.ndarray, radius: float = 0.0):
    """Vertex hunting plus simplex inversion on the rows of an embedding.

    SPA selects one vertex row per column of ``X`` (K = ``X.shape[1]``); each
    vertex is then the mean of the rows within ``radius`` of SPA's pick
    (radius 0 keeps the picks as they are).  ``X``, ``K <= n`` and ``radius >= 0``
    are checked here, once for both steps; IllPosedFitError reports an embedding
    without K invertible vertex rows.
    Returns (memberships, SPA's selected rows, condition number of the
    refined vertex matrix, count of rows given the uniform vector): rows whose
    clamped weights sum below ``1e-12`` carry no usable sign information.
    """
    X = finite_matrix(X, "X")
    k = checked(X.shape[1], "K", RhoInterval(1, X.shape[0], lo_open=False), int)
    radius = checked(radius, "radius", NONNEGATIVE)
    idx = spa(X, k)
    B = vertex_matrix(X, idx, radius)
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllPosedFitError(
            f"vertex matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )
    # solve Y B = X column-block-wise instead of forming an explicit inverse
    Y = np.linalg.solve(B.T, X.T).T
    Y = np.maximum(Y, 0.0)
    sums = Y.sum(axis=1)
    degenerate = sums < DEGENERATE_ROW_TOL
    pi = np.empty_like(Y)
    pi[degenerate] = 1.0 / k
    ok = ~degenerate
    pi[ok] = Y[ok] / sums[ok, None]
    return pi, idx, cond, int(degenerate.sum())


def disp(A: np.ndarray, K: int) -> FitResult:
    """Estimate row and column memberships of a bipartite weighted network."""
    tsvd = top_k_svd(A, K)
    n_r, n_c = len(tsvd.left), len(tsvd.right)
    sv = tsvd.singular_values
    ratio = tsvd.noise_edge / sv[-1] if tsvd.noise_edge else 0.0
    pi_r, pure_rows, cond_r, degenerate_r = memberships_from_embedding(tsvd.left, ratio * np.sqrt(K / n_r))
    pi_c, pure_cols, cond_c, degenerate_c = memberships_from_embedding(tsvd.right, ratio * np.sqrt(K / n_c))
    return FitResult(
        Pi_r_hat=pi_r,
        Pi_c_hat=pi_c,
        singular_values=sv,
        pure_rows=pure_rows,
        pure_cols=pure_cols,
        cond_row_vertices=cond_r,
        cond_col_vertices=cond_c,
        noise_edge=tsvd.noise_edge,
        degenerate_rows=degenerate_r,
        degenerate_cols=degenerate_c,
        rank_deficient=bool(sv[-1] <= sv[0] * max(n_r, n_c) * np.finfo(float).eps),
    )

