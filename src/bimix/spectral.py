"""Deterministic truncated singular value decomposition and community-count estimation.

The top k singular triples come from a randomized block Krylov method
(Halko, Martinsson & Tropp, SIAM Rev. 2011; Musco & Musco, NeurIPS 2015)
that needs only numpy.  With M = A or A.T, whichever has fewer rows, and a
fixed Gaussian start block G of k + 2 columns, it grows an orthonormal basis
Q of span{MG, (MM^T)MG, (MM^T)^2 MG, ...}, one block at a time, each new
block orthogonalized twice against the basis (CGS2).  The basis and its
image are stored as rows, so each product has the thin block on the left
and reads M in storage order: on a 1302-node network a block of 5 took
1.0 ms as q^T M and 2.6-3.4 ms as M^T q (2 OpenBLAS threads; 1.7-2.1 and
6.3-7.0 ms at one).  After each block the top-k Ritz values (square roots of
the top eigenvalues of the Gram matrix Q^T M M^T Q) are compared with the
previous block's; the iteration stops once none moves by more than
``KRYLOV_RTOL`` times the largest (``KRYLOV_RTOL_VECTORS`` for vectors,
which converge about as the square root of their values).  A Rayleigh-Ritz
step then takes the SVD of M projected onto the top-k Ritz vectors, so
values are not computed through their squares.

Each CGS pass ends with a Cholesky QR of the block (as in CholeskyQR2,
Fukaya, Nakatsukasa, Yanagisawa & Yamamoto, 2014): with L L^T = Y Y^T, the
rows of L^-1 Y are orthonormal.  It works on the b x b Gram matrix, and on
300-node sampled networks it cut ``top_k_svd`` by about 15% against
Householder QR (BENCH_28.json).  L^-1 comes from ``np.linalg.inv``: numpy
has no triangular solve, and ``np.linalg.solve(L, Y)`` runs an LU with one
right-hand side per column of Y.  A zero, rank-one or exactly
rank-deficient block has a Gram matrix that is not numerically positive
definite; ``cholesky`` then raises, and that block is orthonormalized by
``np.linalg.qr``.

The basis is thick-restarted (Wu & Simon, SIAM J. Matrix Anal. Appl. 2000;
Baglama & Reichel, SIAM J. Sci. Comput. 2005) so that it never holds more
than ``RESTART_BLOCKS`` blocks: when the next block would pass that, it is
orthonormalized against the whole basis (by the block-Lanczos relation it
holds the residual of every Ritz vector), and the basis then shrinks to
its top ``KEEP_BLOCKS`` blocks' worth of Ritz vectors, on which the Gram
matrix is the diagonal of their eigenvalues.  The eigenproblem and the
CGS2 projections of each block thus stay bounded; without the restart they
grew with every block and took two thirds of a 300-node SVD.  Blocks
before the first restart are those of the unrestarted method.

A full LAPACK SVD is used instead when the shorter side has fewer than
``KRYLOV_MIN_BLOCKS`` blocks' worth of rows (``KRYLOV_MIN_BLOCKS_VALUES``
when no vectors are wanted), sizes at which it was measured to be faster,
and when as many blocks as that side has blocks' worth of rows leave the
Ritz values unsettled.  The start
block comes from a fixed seed, so results are reproducible bit for bit at a
fixed BLAS thread count; they agree with the full SVD to rounding and to the
Krylov stopping tolerance.  Left singular vectors are oriented so their
largest absolute entry is positive.

``top_k_svd`` converges only the top K triples; the noise beyond them is
summarized by the bulk edge of an i.i.d. noise matrix with the residual's
mean square, s * (sqrt(n_r) + sqrt(n_c)) with s^2 = (||A||_F^2 -
sum_{i<=K} sigma_i^2) / (n_r n_c) (Bai & Yin, Ann. Probab. 1988; Bandeira &
van Handel, Ann. Probab. 2016 for unequal variances).  Converging
sigma_{K+1} took twice the blocks; ``singular_values(A, K + 1)[K]`` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import REALS, RhoInterval, checked, finite_matrix

RATIO_FLOOR_RTOL = 1e-12
KRYLOV_RTOL = 1e-10  # stop once no Ritz value moves by more than this times sigma_1
# Ritz vectors converge about as the square root of their values: with only
# the top K converged, 1e-10 left the K-th singular subspace up to 5e-7 away
# from LAPACK's on planted-plus-noise matrices (K = 2..4), 1e-12 up to 2e-8
KRYLOV_RTOL_VECTORS = 1e-12
# Shorter sides below this many blocks take the full LAPACK SVD.  Measured on
# sampled and planted networks (BENCH_5.json), the Krylov path wins from 32
# blocks with vectors (K = 2..4), and from 43-73 blocks for values alone,
# whose LAPACK SVD costs about half as much
KRYLOV_MIN_BLOCKS = 32
KRYLOV_MIN_BLOCKS_VALUES = 48
# Thick restart: the basis holds at most RESTART_BLOCKS blocks and keeps
# KEEP_BLOCKS blocks' worth of Ritz vectors.  On sampled 300-node networks,
# caps of 6-12 blocks keeping 2-4 ran 15.5-17.0 blocks per fit (15.3
# unrestarted) and timed within noise of each other
RESTART_BLOCKS = 8
KEEP_BLOCKS = 3
REORTH_KEEP = 0.5  # a column keeping less norm under the second CGS pass is noise


@dataclass(frozen=True)
class TruncatedSVD:
    """Top-K singular triple: orthonormal columns, nonincreasing values.

    ``noise_edge`` is the bulk edge s * (sqrt(n_r) + sqrt(n_c)) of the noise
    left after the top K triples, the scale sigma_{K+1} has when A is a
    low-rank signal plus i.i.d. noise.  It is 0 when A has numerical rank K
    (the residual mean square s^2 is at most ``max(n_r, n_c) * eps`` times
    ``||A||_F^2 / (n_r n_c)``), and so when K = min(n_r, n_c).
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    noise_edge: float = 0.0


def _validate_input(A: np.ndarray, k: int, what: str) -> tuple[np.ndarray, int]:
    A = finite_matrix(A, "A")
    return A, checked(k, what, RhoInterval(1, min(A.shape), lo_open=False), int)


def _apply_sign_convention(U: np.ndarray, V: np.ndarray) -> None:
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))  # argmax ties break toward lower index
        if U[i, j] < 0.0:
            U[:, j] *= -1.0
            V[:, j] *= -1.0


def _full_svd(A: np.ndarray, k: int, compute_uv: bool):
    """Top-k values of a full LAPACK SVD, with their vectors if ``compute_uv``."""
    if not compute_uv:
        return None, np.linalg.svd(A, compute_uv=False)[:k], None
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    return U[:, :k], sv[:k], Vt[:k].T


def _orthonormalize(Y: np.ndarray, Q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal rows spanning Y's part orthogonal to Q's rows, by CGS2.

    After the first pass, a row of Y that lay in Q's row space is rounding
    noise, which also lies there; the second pass then removes most of its
    norm.  Such a row adds no direction and is replaced by a random vector
    (the "twice is enough" test of Kahan and Parlett).
    """
    Y -= (Y @ Q.T) @ Q
    Y = _orthonormal_rows(Y)
    Y -= (Y @ Q.T) @ Q
    spent = np.linalg.norm(Y, axis=1) < REORTH_KEEP
    if spent.any():
        fresh = rng.standard_normal((Y.shape[1], int(spent.sum()))).T
        Y[spent] = fresh - (fresh @ Q.T) @ Q
    return _orthonormal_rows(Y)


def _orthonormal_rows(Y: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning Y's rows: L^-1 Y with L L^T = Y Y^T, else Householder QR.

    The QR runs only when ``cholesky`` raises, on a Gram matrix that is not
    numerically positive definite.
    """
    try:
        return np.linalg.inv(np.linalg.cholesky(Y @ Y.T)) @ Y
    except np.linalg.LinAlgError:
        return np.linalg.qr(Y.T)[0].T


def _top_k(A: np.ndarray, k: int, compute_uv: bool):
    """Top-k singular values of A, nonincreasing, with their vectors if ``compute_uv``.

    Returns ``(U, values, V)``, with ``U`` and ``V`` None when not
    ``compute_uv``.  Block Krylov iteration with blocks of k + 2 rows,
    restarted whenever the next block would pass ``RESTART_BLOCKS`` blocks:
    the pending block is first orthonormalized against the whole basis, since
    by the block-Lanczos relation it holds every Ritz vector's residual, and
    the basis then shrinks to the top ``KEEP_BLOCKS`` blocks' worth of Ritz
    vectors, on which the Gram matrix is diagonal.  Full LAPACK SVD when A
    is small or ``min(A.shape) / (k + 2)`` blocks leave the values unsettled.
    """
    b = k + 2
    p, q = min(A.shape), max(A.shape)
    if p < (KRYLOV_MIN_BLOCKS if compute_uv else KRYLOV_MIN_BLOCKS_VALUES) * b:
        return _full_svd(A, k, compute_uv)
    M = A if A.shape[0] == p else A.T  # the basis lives in the shorter dimension
    rtol = KRYLOV_RTOL_VECTORS if compute_uv else KRYLOV_RTOL
    cap, keep = RESTART_BLOCKS * b, KEEP_BLOCKS * b
    rng = np.random.default_rng(0)
    Q = np.empty((cap, p))  # the basis as rows, so each product reads M in storage order
    W = np.empty((cap, q))  # W = Q @ M
    gram = np.empty((cap, cap))  # W @ W.T
    Y = rng.standard_normal((q, b)).T @ M.T
    ritz, m = None, 0
    for _ in range(p // b):
        Y = _orthonormalize(Y, Q[:m], rng)
        if m == cap:  # thick restart onto the top Ritz vectors, Z's columns
            lam, Z = np.linalg.eigh(gram)
            Z = Z[:, ::-1][:, :keep]
            Q[:keep], W[:keep] = Z.T @ Q, Z.T @ W
            gram[:keep, :keep] = np.diag(lam[::-1][:keep])
            m = keep
        new = slice(m, m + b)
        Q[new] = Y
        W[new] = Q[new] @ M
        gram[: m + b, new] = W[: m + b] @ W[new].T
        gram[new, :m] = gram[:m, new].T
        lam = np.linalg.eigvalsh(gram[: m + b, : m + b])[::-1][:k]
        previous, ritz = ritz, np.sqrt(np.maximum(lam, 0.0))
        if previous is not None and np.all(np.abs(ritz - previous) <= rtol * ritz[0]):
            break
        Y = W[new] @ M.T
        m += b
    else:
        return _full_svd(A, k, compute_uv)
    # Rayleigh-Ritz on the top-k Ritz vectors: Z spans them inside the basis,
    # and the SVD of M.T @ (Q.T Z) = W.T Z gives values without squaring them
    Z = np.linalg.eigh(gram[: m + b, : m + b])[1][:, ::-1][:, :k]
    WZ = W[: m + b].T @ Z
    if not compute_uv:
        return None, np.linalg.svd(WZ, compute_uv=False), None
    X, sv, Yt = np.linalg.svd(WZ, full_matrices=False)
    left, right = Q[: m + b].T @ (Z @ Yt.T), X
    if M is not A:
        left, right = right, left
    return left, sv, right


def top_k_svd(A: np.ndarray, K: int) -> TruncatedSVD:
    """Top-K singular value decomposition of a dense matrix, with its noise edge.

    Converges only the top K triples; ``noise_edge`` comes from the
    Frobenius norm of A.  Raises on non-finite input or K outside
    [1, min(n_r, n_c)]; LAPACK convergence failures propagate as LinAlgError.
    """
    A, K = _validate_input(A, K, "K")
    U, sv, V = _top_k(A, K, compute_uv=True)
    U, V = np.ascontiguousarray(U), np.ascontiguousarray(V)
    _apply_sign_convention(U, V)
    n_r, n_c = A.shape
    # numpy's own sum, so the edge does not depend on the BLAS thread count
    total = float(np.einsum("ij,ij->", A, A))
    residual = total - float(sv @ sv)
    noise_edge = 0.0  # at K = min(n_r, n_c) the residual is rounding alone
    if K < min(n_r, n_c) and residual > max(n_r, n_c) * np.finfo(float).eps * total:
        noise_edge = np.sqrt(residual / (n_r * n_c)) * (np.sqrt(n_r) + np.sqrt(n_c))
    return TruncatedSVD(left=U, singular_values=sv, right=V, noise_edge=float(noise_edge))


def singular_values(A: np.ndarray, k_max: int) -> np.ndarray:
    """Top ``k_max`` singular values of A, nonincreasing."""
    A, k_max = _validate_input(A, k_max, "k_max")
    return _top_k(A, k_max, compute_uv=False)[1]


def estimate_k_eigengap(sigmas, method: str = "difference") -> int:
    """Community count suggested by the largest drop in the singular spectrum.

    ``difference`` maximizes sigma_k - sigma_{k+1}; ``ratio`` maximizes
    sigma_k / sigma_{k+1} with the denominator floored at 1e-12 * sigma_1.
    Ties break toward the smaller count.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 1 or len(sigmas) < 2:
        raise ValueError("need at least 2 singular values")
    if outside := REALS.first_outside(sigmas):
        raise ValueError(f"sigmas at {outside}")
    if not sigmas[0] > 0.0:
        raise ValueError("leading singular value must be positive")
    if np.any(np.diff(sigmas) > RATIO_FLOOR_RTOL * sigmas[0]):
        raise ValueError("singular values must be nonincreasing")
    if method == "difference":
        gaps = sigmas[:-1] - sigmas[1:]
    elif method == "ratio":
        floor = RATIO_FLOOR_RTOL * sigmas[0]
        gaps = sigmas[:-1] / np.maximum(sigmas[1:], floor)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'difference' or 'ratio'")
    return int(np.argmax(gaps)) + 1
