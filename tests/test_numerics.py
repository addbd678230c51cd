import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import ContractViolation, SeededRng, SingularSystem, sym_eig
from dynolearn.numerics import solve_normal_system


class TestSymEig:
    def test_identity(self):
        evals, vecs = sym_eig(np.eye(3))
        np.testing.assert_allclose(evals, [1.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    def test_hilbert_2x2_closed_form(self):
        # characteristic polynomial: trace 4/3, det 1/12
        tr, det = 1.0 + 1.0 / 3.0, 1.0 / 3.0 - 0.25
        disc = math.sqrt(tr * tr - 4.0 * det)
        expected = [(tr + disc) / 2.0, (tr - disc) / 2.0]
        evals, _ = sym_eig([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        np.testing.assert_allclose(evals, expected, rtol=1e-13)
        np.testing.assert_allclose(expected, [(4 + math.sqrt(13)) / 6, (4 - math.sqrt(13)) / 6])

    def test_diagonal_sorted_descending(self):
        evals, vecs = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(evals, [3.0, 2.0, 1.0], atol=1e-14)
        # eigenvectors are a signed permutation of the standard basis
        np.testing.assert_allclose(np.sort(np.abs(vecs), axis=0)[-1], [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(np.abs(vecs).sum(axis=0), [1, 1, 1], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolation, match="symmetric"):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolation):
            sym_eig(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            sym_eig([[np.nan, 0.0], [0.0, 1.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_reconstruction_and_orthonormality(self, seed, n):
        g = np.random.default_rng(seed)
        A = g.standard_normal((n, n))
        M = 0.5 * (A + A.T)
        evals, vecs = sym_eig(M)
        assert (np.diff(evals) <= 1e-12).all()
        scale = 1.0 + np.abs(M).max()
        assert np.abs(M @ vecs - vecs * evals[None, :]).max() <= 1e-9 * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-10


def _eliminate(G, b):
    """Dense Gaussian elimination with partial pivoting (independent oracle)."""
    G = G.astype(float).copy()
    b = b.astype(float).copy()
    n = G.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(G[col:, col])))
        G[[col, piv]] = G[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = G[row, col] / G[col, col]
            G[row, col:] -= f * G[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - G[row, row + 1 :] @ x[row + 1 :]) / G[row, row]
    return x


def ridge_solve(X, y, reg):
    """argmin_w ||X w - y||^2 + reg ||w||^2 from its normal equations (X^T X + reg I) w = X^T y."""
    return solve_normal_system(X.T @ X, X.T @ y, ridge=reg)


class TestRidgeSolve:
    def test_square_invertible_interpolates(self):
        g = np.random.default_rng(0)
        X = g.standard_normal((5, 5)) + 5 * np.eye(5)
        y = g.standard_normal(5)
        w = ridge_solve(X, y, 0.0)
        np.testing.assert_allclose(X @ w, y, atol=1e-9)

    def test_identity_design_halves_target(self):
        y = np.array([2.0, -4.0, 6.0])
        np.testing.assert_allclose(ridge_solve(np.eye(3), y, 1.0), y / 2.0, rtol=1e-14)

    def test_matches_elimination_oracle(self):
        g = np.random.default_rng(7)
        X = g.standard_normal((20, 5))
        y = g.standard_normal(20)
        reg = 0.1
        w = ridge_solve(X, y, reg)
        expected = _eliminate(X.T @ X + reg * np.eye(5), X.T @ y)
        np.testing.assert_allclose(w, expected, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 30), st.floats(1e-8, 10.0))
    def test_normal_equations_residual(self, seed, m, n, reg):
        g = np.random.default_rng(seed)
        X = g.standard_normal((n, m))
        y = g.standard_normal(n)
        w = ridge_solve(X, y, reg)
        lhs = (X.T @ X + reg * np.eye(m)) @ w
        rhs = X.T @ y
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1.0 + np.abs(rhs).max())

    def test_rank_deficient_unregularized_raises(self):
        X = np.ones((4, 3))  # rank one
        with pytest.raises(SingularSystem):
            ridge_solve(X, np.ones(4), 0.0)

    def test_rejects_negative_reg(self):
        with pytest.raises(ContractViolation):
            ridge_solve(np.eye(2), np.ones(2), -1.0)

    def test_solve_normal_system_matrix_rhs(self):
        g = np.random.default_rng(3)
        G = g.standard_normal((4, 4))
        G = G @ G.T + np.eye(4)
        B = g.standard_normal((4, 2))
        W = solve_normal_system(G, B, ridge=0.5)
        np.testing.assert_allclose((G + 0.5 * np.eye(4)) @ W, B, atol=1e-10)


class TestSeededRng:
    def test_zero_stdev_is_constant(self):
        rng = SeededRng(1)
        draws = rng.normals(100, mean=3.0, stdev=0.0)
        assert (draws == 3.0).all()

    def test_replay_identical_first_million(self):
        a = SeededRng(12345).normals(10**6)
        b = SeededRng(12345).normals(10**6)
        assert (a == b).all()

    def test_law_of_large_numbers(self):
        draws = SeededRng(99).normals(10**6)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_children_are_distinct_and_deterministic(self):
        root = SeededRng(5)
        kids = [root.child(i) for i in range(4)]
        again = [SeededRng(5).child(i) for i in range(4)]
        for k, k2 in zip(kids, again):
            assert (k.normals(32) == k2.normals(32)).all()
        flat = [tuple(k.normals(8)) for k in [SeededRng(5).child(i) for i in range(4)]]
        assert len(set(flat)) == 4

    def test_child_independent_of_parent_consumption(self):
        a = SeededRng(7)
        a.normals(1000)
        child_after = a.child(3).normals(16)
        child_fresh = SeededRng(7).child(3).normals(16)
        assert (child_after == child_fresh).all()

    def test_chunked_draws_match_bulk_draws(self):
        rng = SeededRng(11)
        head = np.concatenate([rng.normals(16, mean=1.0, stdev=2.0) for _ in range(4)])
        bulk = SeededRng(11).normals(8192, mean=1.0, stdev=2.0)[:64]
        np.testing.assert_array_equal(head, bulk)

    @pytest.mark.parametrize("mean,stdev", [(0.0, 0.1), (1.0, 2.0), (-3.5, 0.0)])
    def test_in_place_draws_equal_mean_plus_stdev_times_z(self, mean, stdev):
        # the draws are scaled and shifted in place, into `out` when given;
        # the bits are those of mean + stdev * z on the same stream
        z = SeededRng(21).generator.standard_normal((5, 3))
        expected = mean + stdev * z
        out = np.empty((4, 5, 3))
        drawn = SeededRng(21).normals((5, 3), mean, stdev, out=out[2])
        assert np.shares_memory(drawn, out[2])
        assert out[2].tobytes() == expected.tobytes()
        assert SeededRng(21).normals((5, 3), mean, stdev).tobytes() == expected.tobytes()

    def test_rejects_bad_seed_and_stdev(self):
        with pytest.raises(ContractViolation):
            SeededRng(-1)
        with pytest.raises(ContractViolation):
            SeededRng(0).normals(3, stdev=-0.5)
