"""Vertex-hunting tests: exact recovery on separable input, ties, invariances."""

import re

import numpy as np
import pytest

from bimix.model import make_planted_memberships
from bimix.spa import RankDeficientInputError, spa, vertex_matrix


def in_convex_hull(point, vertices, tol=1e-9):
    """Solve for hull coefficients; feasible iff nonnegative and sum to 1."""
    coeffs, residual, *_ = np.linalg.lstsq(vertices.T, point, rcond=None)
    recon = vertices.T @ coeffs
    return (
        np.linalg.norm(recon - point) < tol
        and np.all(coeffs > -tol)
        and abs(coeffs.sum() - 1.0) < 1e-6
    )


class TestSPA:
    def test_identity_selects_in_index_order(self):
        assert spa(np.eye(2), 2) == (0, 1)

    def test_planted_rows_recovered(self):
        rng = np.random.default_rng(0)
        pi = make_planted_memberships(6, 2, 1)  # pure rows are 0 and 1
        for _ in range(10):
            B = rng.normal(size=(2, 2))
            if abs(np.linalg.det(B)) < 0.1:
                continue
            X = pi @ B
            assert set(spa(X, 2)) == {0, 1}

    def test_selected_rows_span_hull(self):
        # every row must lie in the convex hull of the selected rows
        rng = np.random.default_rng(1)
        pi = make_planted_memberships(9, 3, 1)
        B = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        X = pi @ B
        idx = spa(X, 3)
        vertices = X[list(idx)]
        assert all(in_convex_hull(X[i], vertices) for i in range(9))

    def test_duplicate_max_norm_rows_pick_lowest_index(self):
        X = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert spa(X, 2)[0] == 0

    def test_tie_after_projection(self):
        X = np.array([[0.0, 3.0], [1.0, 0.0], [1.0, 0.0]])
        assert spa(X, 2) == (0, 1)

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(2)
        pi = make_planted_memberships(12, 3, 2)
        B = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        X = pi @ B
        base = spa(X, 3)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            assert spa(X @ Q, 3) == base

    def test_column_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 3))
        D = np.diag([1.0, -1.0, 1.0])
        assert spa(X @ D, 3) == spa(X, 3)

    def test_rank_deficient_raises(self):
        X = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])  # rank 1
        with pytest.raises(RankDeficientInputError):
            spa(X, 2)

    def test_k_bounds(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            spa(X, 0)
        with pytest.raises(ValueError):
            spa(X, 4)


class TestVertexMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(vertex_matrix(np.eye(2), (0, 1)), np.eye(2))

    def test_rows_cited_in_order(self):
        X = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(vertex_matrix(X, (2, 0)), X[[2, 0]])

    def test_recovers_ideal_vertex_rows(self):
        rng = np.random.default_rng(4)
        pi = make_planted_memberships(10, 2, 2)
        B = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        X = pi @ B
        got = vertex_matrix(X, spa(X, 2))
        # equals B up to a row permutation
        direct = np.abs(got - B).max()
        swapped = np.abs(got[::-1] - B).max()
        assert min(direct, swapped) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("row index must be an integer in [0, 2], got 3")):
            vertex_matrix(np.eye(3), (0, 3))

    def test_ball_mean(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0], [0.1, 0.8]])
        got = vertex_matrix(X, (0, 3), radius=0.3)
        np.testing.assert_allclose(got, [[0.95, 0.05], [0.05, 0.9]], atol=1e-15)

    def test_zero_radius_keeps_rows_with_exact_copies(self):
        X = np.array([[0.1, 0.7], [0.1, 0.7], [0.1, 0.7], [0.3, 0.2]])
        np.testing.assert_array_equal(vertex_matrix(X, (0, 3)), X[[0, 3]])

    def test_vertex_moves_at_most_radius(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        idx = spa(X, 3)
        got = vertex_matrix(X, idx, radius=0.4)
        assert np.all(np.linalg.norm(got - X[list(idx)], axis=1) <= 0.4)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            vertex_matrix(np.eye(2), (0, 1), radius=-1.0)
