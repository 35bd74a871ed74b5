import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedarena.errors import DegenerateGradient, DimensionMismatch
from fedarena.vectors import (
    NORM_FLOOR,
    angle_between,
    angles_to,
    pairwise_angles,
    pairwise_sq_distances,
    unit_rows,
)

finite_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=16
)


def naive_angle(u, v):
    """Independent recomputation: explicit loops, math.acos."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return math.acos(max(-1.0, min(1.0, dot / (nu * nv))))


class TestAngleBetween:
    def test_identical_is_zero(self):
        g = np.array([0.3, -1.2, 4.0])
        assert angle_between(g, g) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        assert angle_between([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_45_degrees(self):
        assert angle_between([1, 0], [1, 1]) == pytest.approx(math.pi / 4)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGradient):
            angle_between([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateGradient):
            angle_between([1e-13, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            angle_between([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(DegenerateGradient):
            angle_between([np.nan, 1.0], [1.0, 0.0])

    def test_near_parallel_clamps_instead_of_nan(self):
        u = np.array([1.0, 1e-9])
        v = np.array([1.0, -1e-9])
        a = angle_between(u, v)
        assert np.isfinite(a) and 0 <= a <= math.pi

    @given(finite_vec, finite_vec, st.floats(min_value=0.01, max_value=50))
    @settings(max_examples=200)
    def test_symmetry_and_scale_invariance(self, u, v, c):
        n = min(len(u), len(v))
        u, v = np.array(u[:n]), np.array(v[:n])
        if np.linalg.norm(u) <= 1e-6 or np.linalg.norm(v) <= 1e-6:
            return
        a = angle_between(u, v)
        assert a == pytest.approx(angle_between(v, u), abs=1e-12)
        assert a == pytest.approx(angle_between(c * u, v), abs=1e-7)
        assert 0 <= a <= math.pi

    @given(finite_vec)
    @settings(max_examples=100)
    def test_antiparallel(self, u):
        u = np.array(u)
        if np.linalg.norm(u) <= 1e-6:
            return
        assert angle_between(u, -u) == pytest.approx(math.pi, abs=1e-7)


class TestPairwiseAngles:
    def test_basis_vectors(self):
        A = pairwise_angles(np.eye(3))
        off = A[~np.eye(3, dtype=bool)]
        assert np.allclose(off, math.pi / 2)
        assert np.allclose(np.diag(A), 0.0)

    def test_identical_gradients(self):
        g = np.array([1.0, 2.0, 3.0])
        A = pairwise_angles([g, g, g])
        assert np.allclose(A, 0.0, atol=1e-7)

    def test_matches_double_loop_oracle(self, rng):
        G = rng.normal(size=(6, 9))
        A = pairwise_angles(G)
        for i in range(6):
            for j in range(6):
                expected = 0.0 if i == j else naive_angle(G[i], G[j])
                assert A[i, j] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_row_sits_at_pi(self):
        # a row with norm <= NORM_FLOOR has no direction: pi to every other
        # row, zero to itself, and the other pairs keep their angles
        G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [3e-13, 0.0]])
        A = pairwise_angles(G)
        assert np.all(A[[1, 3]][:, [0, 2]] == math.pi)
        assert A[1, 3] == A[3, 1] == math.pi
        assert np.all(np.diag(A) == 0.0)
        assert A[0, 2] == math.pi / 2

    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            pairwise_angles([[1.0, 2.0], [1.0, 2.0, 3.0]])

    @given(st.integers(2, 7), st.integers(2, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matrix_invariants(self, n, d, seed):
        G = np.random.default_rng(seed).normal(size=(n, d))
        if np.any(np.linalg.norm(G, axis=1) <= 1e-6):
            return
        A = pairwise_angles(G)
        assert np.array_equal(A, A.T)
        assert np.allclose(np.diag(A), 0.0)
        assert np.all((A >= 0) & (A <= math.pi))

    @given(st.integers(2, 9), st.sampled_from([1, 2, 7, 8, 13, 64, 257]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_symmetric_and_permutation_invariant(self, n, d, seed):
        # each entry depends only on its two rows, so a kept block of
        # `angles_to` rows equals a recompute bit for bit
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, d))
        if n > 2:
            G[n - 1] = G[0]  # a duplicated row
        A = pairwise_angles(G)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)
        p = rng.permutation(n)
        assert np.array_equal(pairwise_angles(G[p]), A[np.ix_(p, p)])
        U, norms = unit_rows(G)
        bad = norms <= NORM_FLOOR
        for i in range(n):
            row = angles_to(U, bad, U[i], bad[i])
            row[i] = 0.0
            assert np.array_equal(row, A[i])

    @given(
        st.integers(2, 40),
        st.sampled_from([1, 2, 3, 4, 7, 8, 9, 16, 33, 257, 2179]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_equals_per_row_angles_to(self, n, d, seed):
        # the one-expression block is bitwise the block built from one
        # `angles_to` row per gradient, with an all-zero row and a row whose
        # norm overflows among them
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        zero, huge = rng.choice(n, size=2, replace=False)
        G[zero] = 0.0
        G[huge] = 1e306 * np.where(G[huge] < 0, -1.0, 1.0)
        U, norms = unit_rows(G)
        bad = norms <= NORM_FLOOR
        expected = np.array([angles_to(U, bad, U[i], bad[i]) for i in range(n)])
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(pairwise_angles(G), expected)

    def test_overflowing_norm_is_orthogonal_to_every_row(self, rng):
        # a row whose norm overflows keeps no direction: an all-zero unit
        # row, at pi/2 to every other row (and pi to a zero-norm one)
        G = rng.normal(size=(5, 50))
        G[2] = 1e306 * np.sign(G[2])
        G[4] = 0.0
        U, norms = unit_rows(G)
        assert norms[2] == np.inf and not U[2].any()
        A = pairwise_angles(G)
        assert np.all(A[2, [0, 1, 3]] == math.pi / 2)
        assert A[2, 4] == math.pi and A[2, 2] == 0.0


class TestPairwiseSqDistances:
    def test_equals_difference_tensor(self, rng):
        for n, d in [(1, 3), (2, 1), (7, 40), (23, 300)]:
            G = rng.normal(size=(n, d))
            G[n // 2] = G[0]  # a duplicated row: an exact zero off the diagonal
            diffs = G[:, None, :] - G[None, :, :]
            assert np.array_equal(
                pairwise_sq_distances(G), np.einsum("ijk,ijk->ij", diffs, diffs)
            )
