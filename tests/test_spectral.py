import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    build_filter_bank,
    default_filter_count,
    features,
    hilbert_matrix,
    reliable_filter_cap,
    residual_energy,
    trajectory_features,
    truncate_bank,
)
from dynolearn.spectral import positive_filter_limit, shifted_features


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

    def test_truncate(self):
        bank = build_filter_bank(32, 8)
        sub = truncate_bank(bank, 3)
        np.testing.assert_array_equal(sub.phis, bank.phis[:, :3])
        np.testing.assert_array_equal(sub.mus, bank.mus[:3])
        with pytest.raises(ContractViolation):
            truncate_bank(bank, 9)

    def test_default_filter_count(self):
        m = default_filter_count(256, 1e-3)
        assert m == math.ceil(math.log(256) * math.log(1e3))
        assert default_filter_count(4, 1e-12) <= positive_filter_limit(4)

    def test_sign_augmented_filters(self):
        bank = build_filter_bank(16, 4, sign_augmented=True)
        assert bank.feature_count == 8
        F = bank.filter_matrix()
        assert F.shape == (16, 8)
        signs = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
        np.testing.assert_array_equal(F[:, 4:], bank.phis * signs[:, None])


class TestFeatures:
    def test_filter_history_recovers_basis_vector(self):
        bank = build_filter_bank(16, 5)
        z = features(bank, bank.phis[:, 0])
        np.testing.assert_allclose(z, np.eye(5)[0], atol=1e-12)

    def test_zero_history(self):
        bank = build_filter_bank(16, 5)
        np.testing.assert_array_equal(features(bank, np.zeros(16)), np.zeros(5))
        np.testing.assert_array_equal(features(bank, np.zeros(0)), np.zeros(5))

    def test_impulse_reads_first_filter_row(self):
        bank = build_filter_bank(16, 5)
        impulse = np.zeros(16)
        impulse[0] = 1.0
        np.testing.assert_allclose(features(bank, impulse), bank.phis[0], atol=1e-14)

    def test_short_history_zero_padded(self):
        bank = build_filter_bank(16, 5)
        short = features(bank, [2.0, 1.0])
        padded = features(bank, [2.0, 1.0] + [0.0] * 14)
        np.testing.assert_array_equal(short, padded)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3))
    def test_linearity(self, seed, alpha):
        bank = build_filter_bank(12, 4)
        g = np.random.default_rng(seed)
        h1, h2 = g.standard_normal(12), g.standard_normal(12)
        lhs = features(bank, alpha * h1 + h2)
        rhs = alpha * features(bank, h1) + features(bank, h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_multicoordinate_concatenation(self):
        bank = build_filter_bank(8, 3)
        g = np.random.default_rng(1)
        h = g.standard_normal((8, 2))
        z = features(bank, h)
        np.testing.assert_allclose(z[:3], features(bank, h[:, 0]))
        np.testing.assert_allclose(z[3:], features(bank, h[:, 1]))

    @pytest.mark.parametrize("p", [1, 2])
    def test_trajectory_features_match_per_step(self, p):
        bank = build_filter_bank(10, 4)
        g = np.random.default_rng(5)
        ys = g.standard_normal((40, p))
        Z = trajectory_features(bank, ys)
        for t in range(40):
            z = features(bank, ys[: t + 1][::-1])
            np.testing.assert_allclose(Z[t], z, atol=1e-12)


class TestResidualEnergy:
    def test_full_basis_annihilates(self):
        bank = build_filter_bank(8, positive_filter_limit(8))
        for lam in (0.0, 0.3, 0.9, 1.0, -0.7):
            assert residual_energy(bank, lam) <= 1e-9

    def test_monotone_in_filter_count(self):
        big = build_filter_bank(40, 10)
        grid = np.linspace(0, 0.99, 34)
        prev = None
        for m in range(2, 11):
            bank = truncate_bank(big, m)
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


class TestShiftedFeatures:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        H=st.integers(1, 40),
        p=st.sampled_from([1, 2, 3]),
        window=st.integers(1, 24),
        sign_augmented=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_bitwise_equal_to_shifted_trajectory_features(
        self, n, H, p, window, sign_augmented, seed, data
    ):
        # H < window and m in {2, 3} are inside the drawn ranges
        m = data.draw(st.integers(1, min(6, reliable_filter_cap(window))), label="m")
        bank = build_filter_bank(window, m, sign_augmented=sign_augmented)
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        Zfull = np.stack([trajectory_features(bank, Ys[i]) for i in range(n)])
        expected = np.concatenate([np.zeros((n, 1, Zfull.shape[2])), Zfull[:, : H - 1]], axis=1)
        got = shifted_features(bank, Ys)
        assert got.shape == expected.shape == (n, H, bank.feature_count * p)
        assert got.tobytes() == expected.tobytes()
