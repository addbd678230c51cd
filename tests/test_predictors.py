import ast
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    SingularSystem,
    InitPolicy,
    LdsSpec,
    NoiseSpec,
    SeededRng,
    SpectralPredictor,
    build_filter_bank,
    simulate_ensemble,
)
from conftest import (
    SRC,
    baseline_map,
    lds_reference,
    run_whole,
    shifted_features_reference,
    shifted_lags_reference,
    stream_predictions,
    streaming_ridge_reference,
    whole_array_ridges,
    window_features,
)
from dynolearn.predictors import _Arms, _effective_ridge
from dynolearn.spectral import _bank_columns, _feature_blocks, reliable_filter_cap


@pytest.fixture(scope="module")
def small_bank():
    return build_filter_bank(10, 4)


class TestSpectralPredictor:
    def test_zero_readout_predicts_zero(self, small_bank):
        # no refit within 10 steps: the readout stays zero, whatever the data
        pred = SpectralPredictor(small_bank, refit_period=16)
        preds, readouts = run_whole(pred, np.ones((2, 10, 1)))
        assert readouts.shape == (2, small_bank.m, 1)
        assert (readouts == 0).all()
        assert (preds == 0).all()

    def test_zero_until_first_refit(self, small_bank, scalar_spec):
        ys, _ = lds_reference(scalar_spec, 40, [1.0], 0)
        preds = run_whole(SpectralPredictor(small_bank, refit_period=16), ys[None])[0][0]
        assert (preds[:16] == 0.0).all()
        assert (preds[16:] != 0.0).any()

    def test_realizable_data_interpolated(self, small_bank):
        # targets generated exactly linear in the spectral features
        g = np.random.default_rng(0)
        w_star = 0.3 * g.standard_normal(small_bank.m)
        H = 400
        ys = np.zeros(H)
        ys[0] = 1.0
        for t in range(1, H):
            z = window_features(small_bank, ys[:t][::-1, None])
            ys[t] = w_star @ z
        pred = SpectralPredictor(small_bank, reg=1e-10)
        preds = run_whole(pred, ys[None, :, None])[0][0, :, 0]
        err = np.abs(preds[64:] - ys[64:]).max()
        assert err <= 1e-8

    def test_rank_one_normal_equations(self, small_bank):
        # one nonzero feature row, z = 2 F[0] before y = 1.5 at the last step: the
        # Gram z z^T has rank one, and the ridge alone makes the refit unique
        H = 32
        Ys = np.zeros((1, H, 1))
        Ys[0, H - 2, 0], Ys[0, H - 1, 0] = 2.0, 1.5
        preds, readouts = run_whole(SpectralPredictor(small_bank, reg=0.5, refit_period=16), Ys)
        z = 2.0 * small_bank.filter_matrix()[0]
        ridge = 0.5 * (z @ z) / (small_bank.m * H**0.75)
        w = readouts[0, :, 0]
        np.testing.assert_allclose(w, 1.5 * z / (z @ z + ridge), rtol=1e-12)
        lhs = (np.outer(z, z) + ridge * np.eye(small_bank.m)) @ w
        np.testing.assert_allclose(lhs, 1.5 * z, atol=1e-12)
        assert (preds == 0).all()  # the refit at step 16 saw no signal

    def test_readout_is_scale_free(self, small_bank, scalar_spec):
        # Gram, moment and ridge all scale by c^2: the readout is unchanged
        ys, _ = lds_reference(scalar_spec, 64, [1.0], 1)
        pred = SpectralPredictor(small_bank)
        preds, readouts = run_whole(pred, ys[None])
        preds2, readouts2 = run_whole(pred, 2.0 * ys[None])
        assert readouts2.tobytes() == readouts.tobytes()
        assert preds2.tobytes() == (2.0 * preds).tobytes()

    def test_refit_matches_ridge_solve_recomputation(self, small_bank, scalar_spec):
        ys, _ = lds_reference(scalar_spec, 96, [1.0], 2)
        _, readouts = run_whole(SpectralPredictor(small_bank, reg=1.0, refit_period=16), ys[None])
        # rebuild the design matrix the accumulators summarize; ridge-solve it
        Z = np.zeros((96, small_bank.m))
        for t in range(1, 96):
            Z[t] = window_features(small_bank, ys[:t][::-1])
        gram = Z.T @ Z
        ridge = 1.0 * np.trace(gram) / (small_bank.m * 96**0.75)
        w = np.linalg.solve(gram + ridge * np.eye(small_bank.m), Z.T @ ys[:, 0])
        np.testing.assert_allclose(readouts[0, :, 0], w, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_blocked_run_matches_per_step(self, p):
        bank = build_filter_bank(12, 5)
        spec = LdsSpec(
            A=np.diag([0.8, 0.4]),
            C=np.eye(2)[:p],
            noise=NoiseSpec(stdev_process=0.3, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys, _ = lds_reference(spec, 150, [1.0, -1.0], 7)
        fast = run_whole(SpectralPredictor(bank, obs_dim=p), ys[None])[0][0]
        slow = stream_predictions(SpectralPredictor(bank, obs_dim=p), ys)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_state_size_independent_of_hidden_dimension(self, small_bank):
        sizes = []
        for d in (2, 20, 100):
            g = np.random.default_rng(d)
            q, _ = np.linalg.qr(g.standard_normal((d, d)))
            A = (q * (0.5 * g.random(d))[None, :]) @ q.T
            spec = LdsSpec(
                A=0.5 * (A + A.T),
                C=np.ones((1, d)) / np.sqrt(d),
                noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
                init=InitPolicy(kind="fixed", x0=tuple(np.zeros(d))),
            )
            ys, _ = lds_reference(spec, 64, np.zeros(d), 0)
            pred = SpectralPredictor(small_bank)
            _, readouts = run_whole(pred, ys[None])
            sizes.append((pred.state_size, readouts.shape))
        assert len(set(sizes)) == 1
        assert sizes[0] == (small_bank.m**2 + 2 * small_bank.m, (1, small_bank.m, 1))

    def test_run_is_pure(self, small_bank, scalar_spec):
        ys, _ = lds_reference(scalar_spec, 50, [1.0], 3)
        pred = SpectralPredictor(small_bank)
        before = dict(vars(pred))
        first, readouts = run_whole(pred, ys[None])
        assert vars(pred) == before
        run_whole(pred, -ys[None])
        again, readouts_again = run_whole(pred, ys[None])
        assert again.tobytes() == first.tobytes()
        assert readouts_again.tobytes() == readouts.tobytes()

    def test_sign_augmentation_handles_negative_pole(self):
        # low observation SNR with a strongly negative pole: the predictive
        # kernel alternates slowly, which the base filters cannot represent
        from dynolearn import KalmanPredictor, LdsSpec, NoiseSpec, InitPolicy

        spec = LdsSpec(
            A=[[-0.95]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.3, stdev_obs=1.0),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        rngs = [SeededRng(3).child(0, i) for i in range(150)]
        Ys = simulate_ensemble(spec, 3000, np.array([1.0]), rngs)
        tail = slice(2900, 2980)
        kal = ((run_whole(KalmanPredictor(spec), Ys)[0] - Ys) ** 2)[:, tail].mean()
        excess = {}
        for aug in (False, True):
            bank = build_filter_bank(64, 10, sign_augmented=aug)
            sf = SpectralPredictor(bank, obs_dim=1)
            excess[aug] = ((run_whole(sf, Ys)[0] - Ys) ** 2)[:, tail].mean() - kal
        assert excess[True] < 0.2 * excess[False]
        assert excess[True] <= 0.01 * kal

    def test_mse_close_to_kalman_after_training(self, scalar_spec):
        from dynolearn import KalmanPredictor

        bank = build_filter_bank(100, 15)
        rngs = [SeededRng(12).child(i) for i in range(120)]
        Ys = simulate_ensemble(scalar_spec, 2000, np.array([1.0]), rngs)
        sf = run_whole(SpectralPredictor(bank), Ys)[0]
        kal = run_whole(KalmanPredictor(scalar_spec), Ys)[0]
        tail = slice(1900, 2000)
        mse_sf = ((sf - Ys) ** 2)[:, tail].mean()
        mse_k = ((kal - Ys) ** 2)[:, tail].mean()
        assert mse_sf <= 1.10 * mse_k


class TestBaselines:
    def test_zero(self):
        preds = run_whole(SpectralPredictor.baseline("zero"), np.ones((1, 10, 1)))[0]
        assert (preds == 0).all()
        zero = SpectralPredictor.baseline("zero", obs_dim=2)
        assert (run_whole(zero, np.ones((3, 5, 2)))[0] == 0).all()

    def test_last_value_constant_sequence(self):
        pred = SpectralPredictor.baseline("last_value")
        ys = np.full(10, 3.3)
        preds = run_whole(pred, ys[None, :, None])[0][0, :, 0]
        assert preds[0] == 0.0
        np.testing.assert_array_equal(preds[1:], ys[1:])  # zero loss from step 2

    def test_ar1_identifies_decay_coefficient(self):
        ys = (0.5 ** np.arange(60))[:, None]
        pred = SpectralPredictor.ar(1, reg=1e-10, refit_period=16)
        preds = run_whole(pred, ys[None])[0][0]
        # rows 48..59 read the readout refit at step 48: y_hat_t = w y_{t-1}
        np.testing.assert_allclose(preds[48:, 0] / ys[47:-1, 0], 0.5, rtol=0, atol=1e-6)

    def test_ar_matches_batch_least_squares(self, scalar_spec):
        k = 3
        ys, _ = lds_reference(scalar_spec, 128, [1.0], 9)
        preds = run_whole(SpectralPredictor.ar(k, reg=0.7, refit_period=16), ys[None])[0][0]
        Z = np.zeros((128, k))
        for t in range(1, 128):
            lag = ys[max(0, t - k) : t][::-1, 0]
            Z[t, : lag.size] = lag
        # the readout refit at step 112, by batch ridge, predicts rows 112..127
        gram = Z[:112].T @ Z[:112]
        ridge = 0.7 * np.trace(gram) / (k * 112**0.75)
        w = np.linalg.solve(gram + ridge * np.eye(k), Z[:112].T @ ys[:112, 0])
        np.testing.assert_allclose(preds[112:, 0], Z[112:] @ w, atol=1e-9)

    def test_ar_blocked_matches_per_step(self, scalar_spec):
        # the per-step reference reads the identity bank's window features:
        # the last 4 observations, coordinate-major as in the engine
        three = LdsSpec(
            A=np.diag([0.9, 0.5, -0.3]),
            C=np.eye(3),
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0, 0.5)),
        )
        for spec, x0 in ((scalar_spec, [1.0]), (three, [1.0, -1.0, 0.5])):
            ys, _ = lds_reference(spec, 150, x0, 4)
            pred = SpectralPredictor.ar(4, spec.p)
            fast = run_whole(pred, ys[None])[0][0]
            np.testing.assert_allclose(fast, stream_predictions(pred, ys), rtol=1e-9, atol=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractViolation):
            SpectralPredictor.baseline("median")

    def test_ar_is_a_learner_not_a_baseline_kind(self):
        # AR(k) is `SpectralPredictor.ar`; the baselines are the fixed linear maps
        with pytest.raises(ContractViolation, match="unknown baseline kind 'ar'"):
            SpectralPredictor.baseline("ar")
        for kind in ("zero", "last_value"):  # each runs as one frozen arm, at its readout
            baseline = SpectralPredictor.baseline(kind)
            (ridge,) = baseline.stream((2, 5, 1)).ridges
            assert ridge.frozen and ridge.w[0].tobytes() == baseline.arms[0][2].tobytes()

    @pytest.mark.parametrize("p", [1, 3])
    def test_baselines_are_frozen_learners_over_the_last_observation(self, p):
        Ys = np.random.default_rng(p).standard_normal((2, 40, p))
        for kind, readout in (("zero", np.zeros((p, p))), ("last_value", np.eye(p))):
            baseline = SpectralPredictor.baseline(kind, obs_dim=p)
            assert isinstance(baseline, SpectralPredictor) and baseline.label == kind
            assert baseline.bank.filter_matrix().tobytes() == np.eye(1).tobytes()
            (arm,) = baseline.arms
            assert arm[:2] == (None, 0.0) and arm[2].tobytes() == readout.tobytes()
            preds, readouts = run_whole(baseline, Ys)  # it fits nothing: the readout stays fixed
            assert all(w.tobytes() == readout.tobytes() for w in readouts)
            assert preds.tobytes() == baseline_map(kind, Ys).tobytes()
        assert SpectralPredictor.ar(2, reg=0.7).arms == [(None, 0.7)]  # one learned arm

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_ar_is_the_learner_over_the_identity(self, k, p):
        Ys = np.random.default_rng(10 * k + p).standard_normal((3, 90, p))
        ar = SpectralPredictor.ar(k, p, 0.7, 8)
        assert (ar.label, ar.bank.window, ar.bank.feature_count) == (f"ar{k}", k, k)
        assert ar.bank.filter_matrix().tobytes() == np.eye(k).tobytes()
        (ridge,) = whole_array_ridges(np.eye(k), Ys, [(None, 0.7)], 8)
        preds, readouts = run_whole(ar, Ys)
        assert preds.tobytes() == ridge.preds.tobytes() == run_whole(ar, Ys)[0].tobytes()
        assert readouts.tobytes() == ridge.w.tobytes()

    def test_ar_order_below_one_is_refused(self):
        with pytest.raises(ContractViolation, match="ar order must be >= 1"):
            SpectralPredictor.ar(0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_last_value_shifts(self, seed):
        g = np.random.default_rng(seed)
        ys = g.standard_normal(20)
        preds = run_whole(SpectralPredictor.baseline("last_value"), ys[None, :, None])[0][0, :, 0]
        np.testing.assert_array_equal(preds[1:], ys[:-1])


def _coordinate_major(Z, k):
    """Lag-major (n, H, k * p) lag features reordered into the filter layout,
    coordinate-major (n, H, p * k)."""
    n, H, kp = Z.shape
    return Z.reshape(n, H, k, kp // k).transpose(0, 1, 3, 2).reshape(n, H, kp)


class TestKernels:
    @staticmethod
    def _lag_matrix(Y, k):
        # one trajectory's unshifted lag rows: newest first, zero padded
        H, p = Y.shape
        out = np.zeros((H, k, p))
        for j in range(min(k, H)):
            out[j:, j, :] = Y[: H - j]
        return out.reshape(H, k * p)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        H=st.integers(1, 30),
        p=st.sampled_from([1, 2, 3]),
        k=st.integers(1, 8),
        block=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_lags_bitwise_equal_to_shifted_lag_rows(self, n, H, p, k, block, seed):
        # the identity filters' blocks, reordered lag-major, and the
        # whole-tensor reference: products with the identity are exact
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        Zfull = np.stack([self._lag_matrix(Ys[i], k) for i in range(n)])
        expected = np.concatenate([np.zeros((n, 1, k * p)), Zfull[:, : H - 1]], axis=1)
        blocks = _feature_blocks(np.eye(k), Ys.shape, block)(Ys)
        got = np.concatenate([Z.copy() for _, _, Z, _ in blocks], axis=1)
        assert got.shape == expected.shape
        lag_major = got.reshape(n, H, p, k).transpose(0, 1, 3, 2).reshape(n, H, k * p)
        assert lag_major.tobytes() == expected.tobytes()
        assert shifted_lags_reference(Ys, k).tobytes() == expected.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        reg=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        traces=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e12)), min_size=1, max_size=12
        ),
        q=st.integers(1, 90),
        steps=st.integers(0, 10**6),
    )
    def test_array_ridge_bitwise_equal_to_scalar(self, reg, traces, q, steps):
        arr = np.asarray(traces)
        ridges = _effective_ridge(reg, arr, q, steps)
        assert ridges.shape == arr.shape
        for tr, got in zip(arr, ridges):  # tr is an np.float64, as in the refit loop
            want = np.float64(_effective_ridge(reg, tr, q, steps))
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == np.float64(_effective_ridge(reg, float(tr), q, steps)).tobytes()
        if reg == 0.0 or steps == 0:
            assert (ridges == 0.0).all()


def _close(got, want):
    # rounding-level drift may sit on predictions that cancel to near zero
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


class TestBlockedEngine:
    """The blocked learner against the whole-tensor reference path it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        H=st.integers(1, 70),
        p=st.sampled_from([1, 2, 3]),
        window=st.integers(1, 24),
        refit_period=st.integers(1, 20),
        sign_augmented=st.booleans(),
        reg=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_spectral_matches_reference(
        self, n, H, p, window, refit_period, sign_augmented, reg, seed, data
    ):
        # H < window and H not a multiple of refit_period are inside the drawn ranges
        m = data.draw(st.integers(1, min(6, reliable_filter_cap(window))), label="m")
        bank = build_filter_bank(window, m, sign_augmented=sign_augmented)
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        got = run_whole(SpectralPredictor(bank, p, reg, refit_period), Ys)[0]
        Z = shifted_features_reference(bank, Ys)
        want = streaming_ridge_reference(Z, Ys, reg, refit_period)
        _close(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        H=st.integers(1, 70),
        p=st.sampled_from([1, 2, 3]),
        order=st.integers(1, 8),
        refit_period=st.integers(1, 20),
        reg=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ar_matches_reference(self, n, H, p, order, refit_period, reg, seed):
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        got = run_whole(SpectralPredictor.ar(order, p, reg, refit_period), Ys)[0]
        Z = _coordinate_major(shifted_lags_reference(Ys, order), order)
        want = streaming_ridge_reference(Z, Ys, reg, refit_period)
        assert got.tobytes() == want.tobytes()  # exact features in one layout: the same arithmetic

    @pytest.mark.parametrize(
        "kind, window_or_order, m, p, H",
        [
            ("spectral", 100, 15, 1, 2016),
            ("spectral", 32, 13, 3, 1016),
            ("ar", 1, 0, 1, 2016),
            ("ar", 5, 0, 1, 2016),
        ],
    )
    def test_bitwise_on_benchmark_shapes(self, kind, window_or_order, m, p, H):
        Ys = np.random.default_rng(H + p).standard_normal((4, H, p))
        if kind == "spectral":
            bank = build_filter_bank(window_or_order, m)
            got = run_whole(SpectralPredictor(bank, p), Ys)[0]
            Z = shifted_features_reference(bank, Ys)
        else:
            got = run_whole(SpectralPredictor.ar(window_or_order, p), Ys)[0]
            Z = shifted_lags_reference(Ys, window_or_order)
        want = streaming_ridge_reference(Z, Ys, 2.0, 16)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p, sign_augmented", [(1, False), (3, False), (2, True)])
    def test_sweep_columns_equal_each_arms_own_features(self, p, sign_augmented):
        big = build_filter_bank(32, 13, sign_augmented=sign_augmented)
        Ys = np.random.default_rng(p).standard_normal((3, 200, p))
        F = big.filter_matrix()
        blocks = _feature_blocks(F, Ys.shape, 16)(Ys)
        shared = np.concatenate([Z.copy() for _, _, Z, _ in blocks], axis=1)
        for m in (1, 2, 5, 12, 13):
            own_F = build_filter_bank(32, m, sign_augmented=sign_augmented).filter_matrix()
            blocks = _feature_blocks(own_F, Ys.shape, 16)(Ys)
            own = np.concatenate([Z.copy() for _, _, Z, _ in blocks], axis=1)
            np.testing.assert_allclose(
                shared[:, :, _bank_columns(big, m, p)], own, rtol=1e-12, atol=1e-13
            )

    def test_sweep_matches_each_predictor_run_alone(self, scalar_spec):
        # m*'s arms: each filter count as columns of the largest bank
        big = build_filter_bank(100, 15)
        ms, regs = (1, 4, 10, 15), (2.0, 0.5, 2.0, 1.0)
        arms = [(None if m == big.m else _bank_columns(big, m, 1), reg) for m, reg in zip(ms, regs)]
        Ys = simulate_ensemble(scalar_spec, 400, [1.0], [SeededRng(i) for i in range(5)])
        got = [ridge.preds for ridge in whole_array_ridges(big.filter_matrix(), Ys, arms, 16)]
        kept = whole_array_ridges(big.filter_matrix(), Ys, arms, 16, np.arange(400) >= 150)
        for preds, ridge in zip(got, kept):
            assert ridge.preds.tobytes() == preds[:, 150:].tobytes()
        for m, reg, preds in zip(ms, regs, got):
            alone = run_whole(SpectralPredictor(build_filter_bank(100, m), reg=reg), Ys)[0]
            if m == big.m:  # the largest arm reads the convolution it would run alone
                assert preds.tobytes() == alone.tobytes()
            np.testing.assert_allclose(preds, alone, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("sign_augmented", [False, True])
    def test_readouts_solve_blocks_of_one_shared_gram(self, p, sign_augmented):
        # the stream keeps one Gram and moment; arm m's readout is the solve
        # of its columns' block of them plus its own ridge, the full arm's of all
        g = np.random.default_rng(p)
        bank = build_filter_bank(12, 4, sign_augmented=sign_augmented)
        arms = [(None, 2.0), (_bank_columns(bank, 1, p), 0.5), (_bank_columns(bank, 3, p), 1.0)]
        base, free = g.standard_normal((3, 64, p)), g.standard_normal((2, 64, p))
        stream = _Arms(bank.filter_matrix(), base.shape, arms, 16, k=2)
        stream.push(base, free)
        assert stream.gram.shape == (6, bank.feature_count * p, bank.feature_count * p)
        for ridge, (cols, reg) in zip(stream.ridges, arms):
            cols = np.arange(stream.gram.shape[1]) if cols is None else cols
            lhs = np.ascontiguousarray(stream.gram[:, cols][:, :, cols])
            traces = np.trace(lhs, axis1=1, axis2=2)
            diag = np.arange(len(cols))
            lhs[:, diag, diag] += _effective_ridge(reg, traces, len(cols), 64)[:, None]
            w = np.linalg.solve(lhs, stream.moment[:, cols])
            assert ridge.w.tobytes() == w.tobytes()

    def test_memory_flat_in_horizon(self):
        # lorenz-long's learner shape; the (n, H, p) observations and
        # predictions grow with H, the learner's working set must not
        import tracemalloc

        bank = build_filter_bank(32, 13)
        pred = SpectralPredictor(bank, obs_dim=3)
        above = []
        for H in (10016, 40016):
            Ys = np.random.default_rng(H).standard_normal((16, H, 3))
            tracemalloc.start()
            try:
                preds = run_whole(pred, Ys)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above.append((peak - preds.nbytes) / 2**20)
        assert abs(above[1] - above[0]) < 2.0, above

    def test_memory_grows_with_the_x0_grid_by_state_and_kept_rows(self):
        # d50's learner shape and read rows: with k free responses the ridges
        # and their kept predictions grow with k, the block temporaries must not
        import tracemalloc

        n, H = 200, 2016
        pred = SpectralPredictor(build_filter_bank(100, 15))
        rows = np.zeros(H, dtype=bool)
        for t in np.unique(np.geomspace(25, 2000, 24).round().astype(int)):
            rows[t : t + 16] = True  # d50's grid windows
        assert rows.sum() == 341
        g = np.random.default_rng(3)
        base = g.standard_normal((n, H, 1))
        peaks = {}
        for k in (2, 10):
            free = g.standard_normal((k, H, 1))
            tracemalloc.start()
            try:
                pred.stream(base.shape, rows, k).push(base, free)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_x0 = n * (pred.state_size + rows.sum()) * 8 + H * 8
        assert peaks[10] - peaks[2] <= 8 * per_x0 + 2**20, (peaks, per_x0)

    def test_memory_of_many_column_arms_is_one_stream_and_their_readouts(self):
        # d50's m* shape: 20 filter counts as columns of one bank's features
        # on 8 x0; they solve from one Gram and moment, so beside a single
        # arm's stream they hold only their readouts and kept rows
        import tracemalloc

        n, H, k = 200, 1016, 8
        with pytest.warns(UserWarning, match="reliable cap"):
            big = build_filter_bank(100, 20)
        rows = np.arange(H) >= 1000  # m*'s rows, from t_eval
        g = np.random.default_rng(6)
        base, free = g.standard_normal((n, H, 1)), g.standard_normal((k, H, 1))
        one = SpectralPredictor(big)
        arms = [(None if m == 20 else _bank_columns(big, m, 1), 2.0) for m in range(1, 21)]
        sweep = SpectralPredictor(big, arms=arms)
        peaks = []
        for pred in (one, sweep):
            tracemalloc.start()
            try:
                pred.stream(base.shape, rows, k).push(base, free)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        readouts = n * k * sum(range(1, 21)) * 8
        kept = 20 * n * k * rows.sum() * 8
        assert peaks[1] <= peaks[0] + readouts + kept + 2**20, (peaks, readouts, kept)

    @pytest.mark.parametrize("reg", [-1.0, np.nan, np.inf])
    def test_refuses_a_ridge_outside_zero_to_infinity(self, reg):
        # NaN would write NaN risks, and inf would zero every readout
        Ys = np.random.default_rng(0).standard_normal((2, 40, 1))
        with pytest.raises(ContractViolation, match="nonnegative and finite"):
            whole_array_ridges(np.eye(3), Ys, [(None, 0.5), (None, reg)], 8)



def _read_mask(H, data):
    """Rows a loss reads: the windows [t, t + window) after some grid times,
    or (m*) every row from t_eval."""
    rows = np.zeros(H, dtype=bool)
    if data.draw(st.booleans(), label="tail"):
        rows[data.draw(st.integers(0, H - 1), label="t_eval") :] = True
        return rows
    window = data.draw(st.integers(1, 20), label="window")
    for t in data.draw(st.lists(st.integers(0, H - 1), min_size=1, max_size=6), label="grid"):
        rows[t : t + window] = True
    return rows


class TestRowRestrictedEngine:
    """A ridge told which rows are read predicts those rows with the full
    run's bits, and solves only the refits they use."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 3),
        H=st.integers(1, 90),
        p=st.sampled_from([1, 2, 3]),
        refit_period=st.integers(1, 20),
        reg=st.sampled_from([0.0, 0.3, 2.0]),
        kind=st.sampled_from(["spectral", "ar", "columns"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_read_rows_equal_the_full_run(self, n, H, p, refit_period, reg, kind, seed, data):
        # H not a multiple of refit_period and refit_period > H are inside the drawn ranges
        if kind == "ar":
            F = np.eye(data.draw(st.integers(1, 4), label="order"))
            arms = [(None, reg)]
        else:
            bank = build_filter_bank(data.draw(st.integers(4, 24), label="window"), 4)
            F = bank.filter_matrix()
            # m*'s arms: filter counts as columns of the largest bank's features
            arms = [(None, reg)]
            if kind == "columns":
                arms = [(_bank_columns(bank, m, p), reg) for m in (1, 3)]
        rows = _read_mask(H, data)
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        try:
            full = whole_array_ridges(F, Ys, arms, refit_period)
        except SingularSystem:
            assume(False)  # reg = 0 with a structurally singular Gram: see test_singular_refit_*
        kept = whole_array_ridges(F, Ys, arms, refit_period, rows)
        read = np.flatnonzero(rows)
        # the Gram has a positive trace from e = 2 on: row 0's features are zero
        boundaries = [e for e in range(refit_period, H + 1, refit_period) if e >= 2]
        for whole, part in zip(full, kept):
            assert part.preds.shape == (n, read.size, p)
            assert part.preds.tobytes() == whole.preds[:, read].tobytes()
            assert whole.solves == len(boundaries)
            assert part.solves == sum(rows[e : e + refit_period].any() for e in boundaries)

    def test_public_runs_keep_every_row_and_the_final_readout(self):
        Ys = np.random.default_rng(5).standard_normal((3, 64, 2))
        pred = SpectralPredictor(build_filter_bank(20, 4), obs_dim=2, refit_period=16)
        (ridge,) = whole_array_ridges(pred.bank.filter_matrix(), Ys, [(None, pred.reg)], 16)
        assert ridge.solves == 4  # the refit at e = H = 64 included
        preds, readouts = run_whole(pred, Ys)
        assert preds.tobytes() == ridge.preds.tobytes() == run_whole(pred, Ys)[0].tobytes()
        assert readouts.tobytes() == ridge.w.tobytes()
        rows = np.zeros(64, dtype=bool)
        rows[40:44] = True
        (part,) = whole_array_ridges(pred.bank.filter_matrix(), Ys, [(None, pred.reg)], 16, rows)
        assert part.solves == 1  # only the refit at 32 feeds rows 40..43
        assert part.preds.tobytes() == preds[:, 40:44].tobytes()

    def test_solves_count_refits_not_x0_slices(self):
        # with k free responses each block is fed one x0's ensemble at a
        # time; a refit is still one solve, as a run of one x0 counts it
        g = np.random.default_rng(4)
        bank = build_filter_bank(12, 4)
        F = bank.filter_matrix()
        readout = g.standard_normal((F.shape[1], 1))
        arms = [(None, 2.0), (_bank_columns(bank, 2, 1), 0.5), (None, 0.0, readout)]
        base, free = g.standard_normal((4, 120, 1)), g.standard_normal((3, 120, 1))
        rows = np.zeros(120, dtype=bool)
        rows[[20, 21, 75, 119]] = True  # the periods from 16, 72 and 112
        counts = []
        for k in (1, 3):
            stream = _Arms(F, base.shape, arms, 8, rows, k)
            stream.push(base, free[:k])
            counts.append([ridge.solves for ridge in stream.ridges])
        assert counts[1] == counts[0] == [3, 3, 0]

    def test_singular_refit_that_no_read_row_uses_is_skipped(self):
        # AR(2) with reg = 0: the Gram of rows 0 and 1 has a zero lag-2 column,
        # so the refit at e = 2 is singular; the refit at 4 is not
        Ys = np.random.default_rng(2).standard_normal((3, 40, 1))
        ar2 = SpectralPredictor.ar(2, reg=0.0, refit_period=2)
        with pytest.raises(SingularSystem, match="step 2"):
            run_whole(ar2, Ys)  # a run without a row mask solves every refit
        rows = np.zeros(40, dtype=bool)
        rows[10:20] = True
        stream = ar2.stream(Ys.shape, rows)  # as the harness runs it
        stream.push(Ys)
        (ridge,) = stream.ridges
        assert ridge.preds.shape == (3, 10, 1) and np.isfinite(ridge.preds).all()
        rows[3] = True  # row 3 reads the refit at 2
        with pytest.raises(SingularSystem, match="step 2"):
            ar2.stream(Ys.shape, rows).push(Ys)


class TestFrozenArm:
    """An arm given a fixed readout predicts with it and never learns."""

    @pytest.mark.parametrize("read", ["all", "mask"])
    def test_predicts_its_readout_and_never_accumulates(self, read):
        g = np.random.default_rng(9)
        Ys = g.standard_normal((3, 70, 2))
        F = build_filter_bank(12, 3, sign_augmented=True).filter_matrix()
        readout = g.standard_normal((F.shape[1] * 2, 2))
        rows = None
        if read == "mask":
            rows = np.zeros(70, dtype=bool)
            rows[[21, 22, 50, 69]] = True
        arms = [(None, 2.0), (None, 0.0, readout)]

        def pushed(arms_):
            stream = _Arms(F, Ys.shape, arms_, 8, rows)
            stream.push(Ys)
            return stream

        both, only_frozen, only_learner = pushed(arms), pushed(arms[1:]), pushed(arms[:1])
        learner, frozen = both.ridges
        assert all(w.tobytes() == readout.tobytes() for w in frozen.w)
        assert frozen.solves == 0
        # a stream whose arms are all frozen holds no Gram or moment: it never accumulates
        assert only_frozen.gram is None and only_frozen.moment is None
        assert only_frozen.ridges[0].preds.tobytes() == frozen.preds.tobytes()
        # beside a learner it adds nothing to the stream's accumulation, and
        # the learner keeps the bits it has alone
        assert both.gram.tobytes() == only_learner.gram.tobytes()
        assert both.moment.tobytes() == only_learner.moment.tobytes()
        (alone,) = only_learner.ridges
        assert learner.preds.tobytes() == alone.preds.tobytes()
        assert learner.solves == alone.solves > 0
        blocks = _feature_blocks(F, Ys.shape, 8)(Ys)
        expected = np.concatenate([Z @ readout for _, _, Z, _ in blocks], axis=1)
        read_rows = np.arange(70) if rows is None else np.flatnonzero(rows)
        assert frozen.preds.tobytes() == expected[:, read_rows].tobytes()


class TestKeptRows:
    """A ridge keeps the predictions of the rows its mask marks, in order, and
    no others, with the bits of one push however the rows arrive."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        H=st.integers(1, 60),
        p=st.sampled_from([1, 2]),
        refit_period=st.integers(1, 12),
        k=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_preds_hold_exactly_the_marked_rows(self, n, H, p, refit_period, k, seed, data):
        g = np.random.default_rng(seed)
        bank = build_filter_bank(8, 3)
        F = bank.filter_matrix()
        readout = g.standard_normal((F.shape[1] * p, p))
        arms = [(None, 1.0), (_bank_columns(bank, 2, p), 0.5), (None, 0.0, readout)]
        # share 0 is the bias/variance reference fit's mask, which reads no row
        rows = g.random(H) < data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="share")
        Ys, free = g.standard_normal((n, H, p)), g.standard_normal((k, H, p))
        cuts = sorted(data.draw(st.lists(st.integers(0, H), min_size=1, max_size=5), label="cuts"))

        def pushed(F_, arms_, mask, pieces):
            stream = _Arms(F_, Ys.shape, arms_, refit_period, mask, k)
            for a, b in zip([0, *pieces], [*pieces, H]):
                stream.push(Ys[:, a:b], free[:, a:b])
            return [ridge.preds.tobytes() for ridge in stream.ridges]

        for F_, arms_ in ((F, arms), (np.eye(2), [(None, 1.0)])):  # spectral and AR(2)
            for ridge in whole_array_ridges(F_, Ys, arms_, refit_period, rows):
                assert ridge.preds.shape == (n, rows.sum(), p)
            # a base and its free responses pushed in uneven pieces, as one push
            for mask in (None, rows):
                assert pushed(F_, arms_, mask, cuts) == pushed(F_, arms_, mask, [])


def _nodes_by_scope(tree):
    """(enclosing def/class names, node) of every node in a module."""
    nodes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            nodes.append((scope, child))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(tree, ())
    return nodes


def _calls_by_scope(tree):
    """(enclosing def/class names, callee name) of every call in a module."""
    return [
        (scope, f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
        for scope, node in _nodes_by_scope(tree)
        if isinstance(node, ast.Call)
        for f in (node.func,)
    ]


def _library_callers(callee):
    """(module file, enclosing scope) of every library call of `callee`."""
    callers = set()
    for path in sorted((SRC / "dynolearn").glob("*.py")):
        for scope, name in _calls_by_scope(ast.parse(path.read_text())):
            if name == callee:
                callers.add((path.name, scope))
    return callers


@pytest.mark.parametrize("callee", ["_feature_blocks", "_EnsembleRidge"])
def test_one_streaming_ridge_path(callee):
    # every learner, baseline, reference fit and frozen readout runs through
    # _Arms: it is the one library caller of the block kernel and of the ridge
    assert _library_callers(callee) == {("predictors.py", ("_Arms", "__init__"))}


def test_one_learner_runs_the_ridge():
    # every predictor of the learner class (learner, AR(k), baseline, or a
    # measurement's re-armed copy) and the kernel oracle, a frozen arm over
    # its taps, runs as its stream: their `stream` methods make every _Arms,
    # and no layer turns predictors into engines or tuples
    assert _library_callers("_Arms") == {
        ("predictors.py", ("SpectralPredictor", "stream")),
        ("oracles.py", ("KernelOracle", "stream")),
    }
    gone = {"_engine", "_stream", "_run_arms", "_learner_engine", "_check_ensemble"}
    gone |= {"_KernelStream", "_Stream"}  # oracles keeps one stream class, _KalmanStream
    defined = [
        (path.name, node.name)
        for path in (SRC / "dynolearn").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone
    ]
    assert defined == []
    # a learner's normal equations, qf^2 + qf p once per stream whatever its
    # arms, are counted in state_size alone
    state = re.compile(r"(\w+) \* \1 \+ \1 \* \w+")
    sized = set()
    for path in sorted((SRC / "dynolearn").glob("*.py")):
        for scope, node in _nodes_by_scope(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and state.fullmatch(ast.unparse(node)):
                sized.add((path.name, scope))
    assert sized == {("predictors.py", ("SpectralPredictor", "state_size"))}


def test_measurements_take_built_predictors():
    # every measurement takes its learner built (bank, reg and refit period
    # included): the harness builds no bank and reads no ridge default
    tree = ast.parse((SRC / "dynolearn" / "learnability.py").read_text())
    called = {name for _, name in _calls_by_scope(tree)}
    assert not called & {"build_filter_bank", "identity"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"build_filter_bank", "FilterBank", "DEFAULT_REG", "DEFAULT_REFIT_PERIOD"}
