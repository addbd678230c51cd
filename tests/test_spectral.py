import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    build_filter_bank,
    hilbert_matrix,
    reliable_filter_cap,
    sym_eig,
)
from conftest import (
    residual_energy,
    shifted_features_reference,
    trajectory_features,
    window_features,
)
from dynolearn.spectral import _feature_blocks, positive_filter_limit


class TestHilbertMatrix:
    def test_size_one(self):
        np.testing.assert_array_equal(hilbert_matrix(1), [[1.0]])

    def test_size_two(self):
        np.testing.assert_array_equal(hilbert_matrix(2), [[1.0, 0.5], [0.5, 1.0 / 3.0]])

    def test_size_64_entries(self):
        H = hilbert_matrix(64)
        assert H.shape == (64, 64)
        np.testing.assert_array_equal(H, H.T)
        assert (H > 0).all() and (H <= 1.0).all()
        assert H[63, 63] == 1.0 / 127.0

    def test_rejects_bad_window(self):
        with pytest.raises(ContractViolation):
            hilbert_matrix(0)

    def test_leading_spectrum_matches_extended_precision(self):
        # Backs the decay-rate target of acceptance check C1: the float64
        # eigenvalues and their ln-slope over i = 2..12 are not rounding noise
        mpmath = pytest.importorskip("mpmath")
        window = 64
        evals, _ = sym_eig(hilbert_matrix(window))
        with mpmath.workdps(30):
            H = mpmath.matrix(window, window)
            for i in range(window):
                for j in range(window):
                    H[i, j] = mpmath.mpf(1) / (i + j + 1)
            exact = sorted((float(e) for e in mpmath.eigsy(H, eigvals_only=True)), reverse=True)
        exact = np.array(exact[:12])
        np.testing.assert_allclose(evals[:12], exact, rtol=1e-6)
        idx = np.arange(2, 13)
        slope = np.polyfit(idx, np.log(evals[idx - 1]), 1)[0]
        exact_slope = np.polyfit(idx, np.log(exact[idx - 1]), 1)[0]
        assert abs(slope - exact_slope) <= 1e-6


class TestFilterBank:
    def test_trivial_bank(self):
        bank = build_filter_bank(1, 1)
        np.testing.assert_allclose(bank.phis, [[1.0]])
        np.testing.assert_allclose(bank.mus, [1.0])

    def test_window_two_closed_form(self):
        bank = build_filter_bank(2, 2)
        expected = [(4 + math.sqrt(13)) / 6, (4 - math.sqrt(13)) / 6]
        np.testing.assert_allclose(bank.mus, expected, rtol=1e-12)
        np.testing.assert_allclose(bank.phis.T @ bank.phis, np.eye(2), atol=1e-12)

    def test_rejects_beyond_positive_limit(self):
        limit = positive_filter_limit(64)
        with pytest.raises(ContractViolation, match=str(limit)):
            build_filter_bank(64, limit + 1)

    def test_warns_above_reliable_cap(self):
        cap = reliable_filter_cap(100)
        assert cap < 20  # the tail of the window-100 spectrum is below the floor
        with pytest.warns(UserWarning, match=f"cap {cap}"):
            bank = build_filter_bank(100, 20)
        assert bank.reliable_m == cap
        # the bank is still numerically orthonormal
        assert np.abs(bank.phis.T @ bank.phis - np.eye(20)).max() <= 1e-8

    def test_mus_positive_descending(self):
        bank = build_filter_bank(64, 12)
        assert (bank.mus > 0).all()
        assert (np.diff(bank.mus) < 0).all()

    def test_smaller_bank_is_prefix(self):
        # m* reads each filter count as the first columns of the largest bank
        bank = build_filter_bank(32, 8)
        sub = build_filter_bank(32, 3)
        np.testing.assert_array_equal(sub.phis, bank.phis[:, :3])
        np.testing.assert_array_equal(sub.mus, bank.mus[:3])

    def test_sign_augmented_filters(self):
        bank = build_filter_bank(16, 4, sign_augmented=True)
        assert bank.feature_count == 8
        F = bank.filter_matrix()
        assert F.shape == (16, 8)
        signs = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(F[:, 4:], bank.phis * signs[:, None])


class TestFeatures:
    """`trajectory_features`: row t holds the features of the observations up to t."""

    def test_filter_history_recovers_basis_vector(self):
        bank = build_filter_bank(16, 5)
        z = trajectory_features(bank, bank.phis[::-1, 0])[-1]  # newest observation last
        np.testing.assert_allclose(z, np.eye(5)[0], atol=1e-12)

    def test_zero_history(self):
        bank = build_filter_bank(16, 5)
        np.testing.assert_array_equal(trajectory_features(bank, np.zeros(16)), np.zeros((16, 5)))
        # before the first observation the learners' features are zero
        push = _feature_blocks(bank.filter_matrix(), (2, 16, 1), 16)
        _, _, Z, _ = next(push(np.ones((2, 16, 1))))
        np.testing.assert_array_equal(Z[:, 0], np.zeros((2, 5)))

    def test_impulse_reads_first_filter_row(self):
        # an impulse t steps back reads filter row t
        bank = build_filter_bank(16, 5)
        impulse = np.zeros(20)
        impulse[0] = 1.0
        Z = trajectory_features(bank, impulse)
        np.testing.assert_allclose(Z[:16], bank.phis, atol=1e-14)
        np.testing.assert_array_equal(Z[16:], np.zeros((4, 5)))

    def test_short_history_zero_padded(self):
        bank = build_filter_bank(16, 5)
        short = trajectory_features(bank, [1.0, 2.0])[-1]
        padded = trajectory_features(bank, [0.0] * 14 + [1.0, 2.0])[-1]
        np.testing.assert_array_equal(short, padded)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3))
    def test_linearity(self, seed, alpha):
        bank = build_filter_bank(12, 4)
        g = np.random.default_rng(seed)
        h1, h2 = g.standard_normal(30), g.standard_normal(30)
        lhs = trajectory_features(bank, alpha * h1 + h2)
        rhs = alpha * trajectory_features(bank, h1) + trajectory_features(bank, h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_multicoordinate_concatenation(self):
        bank = build_filter_bank(8, 3)
        g = np.random.default_rng(1)
        ys = g.standard_normal((20, 2))
        Z = trajectory_features(bank, ys)
        np.testing.assert_allclose(Z[:, :3], trajectory_features(bank, ys[:, 0]))
        np.testing.assert_allclose(Z[:, 3:], trajectory_features(bank, ys[:, 1]))

    @pytest.mark.parametrize("p", [1, 2])
    def test_trajectory_features_match_per_step(self, p):
        bank = build_filter_bank(10, 4)
        g = np.random.default_rng(5)
        ys = g.standard_normal((40, p))
        Z = trajectory_features(bank, ys)
        for t in range(40):
            z = window_features(bank, ys[: t + 1][::-1])
            np.testing.assert_allclose(Z[t], z, atol=1e-12)


class TestResidualEnergy:
    def test_full_basis_annihilates(self):
        bank = build_filter_bank(8, positive_filter_limit(8))
        for lam in (0.0, 0.3, 0.9, 1.0, -0.7):
            assert residual_energy(bank, lam) <= 1e-9

    def test_monotone_in_filter_count(self):
        grid = np.linspace(0, 0.99, 34)
        prev = None
        for m in range(2, 11):
            bank = build_filter_bank(40, m)
            vals = np.array([residual_energy(bank, lam) for lam in grid])
            if prev is not None:
                assert (vals <= prev + 1e-12).all()
            prev = vals

    def test_mean_residual_identity_accurate_quadrature(self):
        # E_{lam~U[0,1]}[(v_lam . phi_i)^2] equals mu_i exactly; verify with
        # Gauss-Legendre, which integrates these polynomials to machine precision
        window, m = 32, 6
        bank = build_filter_bank(window, m)
        nodes, weights = np.polynomial.legendre.leggauss(400)
        lam = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        V = lam[:, None] ** np.arange(window)[None, :]
        proj = V @ bank.phis  # (nodes, m)
        quad = (w[:, None] * proj**2).sum(axis=0)
        np.testing.assert_allclose(quad, bank.mus, rtol=1e-10, atol=1e-14)

    def test_sign_augmentation_covers_negative_spectrum(self):
        plain = build_filter_bank(32, 8)
        augmented = build_filter_bank(32, 8, sign_augmented=True)
        assert residual_energy(plain, -0.9) > 1e-3
        assert residual_energy(augmented, -0.9) < 1e-8

    def test_rejects_out_of_range(self):
        bank = build_filter_bank(8, 3)
        with pytest.raises(ContractViolation):
            residual_energy(bank, 1.5)


class TestFeatureBlocks:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        H=st.integers(1, 40),
        p=st.sampled_from([1, 2, 3]),
        window=st.integers(1, 24),
        block=st.integers(1, 20),
        sign_augmented=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_shifted_trajectory_features(
        self, n, H, p, window, block, sign_augmented, seed, data
    ):
        # H < window, H not a multiple of the block and m in {2, 3} are inside the drawn ranges
        m = data.draw(st.integers(1, min(6, reliable_filter_cap(window))), label="m")
        bank = build_filter_bank(window, m, sign_augmented=sign_augmented)
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        expected = shifted_features_reference(bank, Ys)
        starts, got = [], []
        for s, e, Z, Y in _feature_blocks(bank.filter_matrix(), Ys.shape, block)(Ys):
            assert Z.shape == (n, e - s, bank.feature_count * p)
            assert Y.tobytes() == Ys[:, s:e].tobytes()  # the block's targets
            starts.append(s)
            got.append(Z.copy())  # the next block overwrites Z
        assert starts == list(range(0, H, block))
        got = np.concatenate(got, axis=1)
        # the block products sum in the whole product's order except where
        # BLAS groups rows differently; every row stays within rounding
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        H=st.integers(1, 60),
        p=st.sampled_from([1, 3]),
        window=st.integers(1, 24),
        block=st.sampled_from([1, 3, 4, 16]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_pushed_pieces_give_the_blocks_of_one_push(self, n, H, p, window, block, seed, data):
        # rows pushed as they arrive, in pieces that need not line up with the
        # blocks, give every block's features and targets bit for bit
        bank = build_filter_bank(window, min(3, reliable_filter_cap(window)))
        F = bank.filter_matrix()
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        blocks = _feature_blocks(F, Ys.shape, block)(Ys)
        whole = [(s, e, Z.copy(), Y.copy()) for s, e, Z, Y in blocks]
        cuts = sorted(data.draw(st.lists(st.integers(0, H), max_size=6), label="cuts"))
        push = _feature_blocks(F, Ys.shape, block)
        pieces = []
        for a, b in zip([0, *cuts], [*cuts, H]):
            pieces += [(s, e, Z.copy(), Y.copy()) for s, e, Z, Y in push(Ys[:, a:b])]
        assert [(s, e) for s, e, _, _ in pieces] == [(s, e) for s, e, _, _ in whole]
        for (_, _, Z, Y), (_, _, Zw, Yw) in zip(pieces, whole):
            assert Z.tobytes() == Zw.tobytes() and Y.tobytes() == Yw.tobytes()
        with pytest.raises(ContractViolation, match="past the horizon"):
            next(push(Ys[:, :1]))
