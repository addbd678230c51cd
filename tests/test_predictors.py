import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    BaselinePredictor,
    ContractViolation,
    InitPolicy,
    LdsSpec,
    NoiseSpec,
    SeededRng,
    SpectralPredictor,
    build_filter_bank,
    features,
    iterate_forecast,
    ridge_solve,
    simulate_lds,
    simulate_lds_ensemble,
)
from conftest import stream_predictions
from dynolearn.predictors import _effective_ridge, _shifted_lags


@pytest.fixture(scope="module")
def small_bank():
    return build_filter_bank(10, 4)


class TestSpectralPredictor:
    def test_zero_readout_predicts_zero(self, small_bank):
        pred = SpectralPredictor(small_bank)
        assert pred.predict(np.ones(10)) == pytest.approx(0.0)

    def test_zero_until_first_refit(self, small_bank, scalar_spec):
        ys = simulate_lds(scalar_spec, 40, [1.0], 0).ys
        preds = SpectralPredictor(small_bank, refit_period=16).run(ys)
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
            z = features(small_bank, ys[:t][::-1])
            ys[t] = w_star @ z
        pred = SpectralPredictor(small_bank, reg=1e-10)
        preds = pred.run(ys)
        err = np.abs(preds[64:] - ys[64:]).max()
        assert err <= 1e-8

    def test_rank_one_normal_equations(self, small_bank):
        pred = SpectralPredictor(small_bank, reg=0.5, refit_period=16)
        history = np.zeros(10)
        history[0] = 2.0
        z = features(small_bank, history)
        y = np.array([1.5])
        n = 32
        for _ in range(n):
            pred.observe(y, history)
        ridge = pred.effective_ridge()
        assert ridge == pytest.approx(0.5 * n * (z @ z) / (small_bank.m * n**0.75))
        lhs = (n * np.outer(z, z) + ridge * np.eye(small_bank.m)) @ pred.w[:, 0]
        rhs = n * z * y[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_replay_doubles_accumulators(self, small_bank, scalar_spec):
        ys = simulate_lds(scalar_spec, 64, [1.0], 1).ys
        pred = SpectralPredictor(small_bank)
        stream_predictions(pred, ys)
        gram_once = pred.gram.copy()
        moment_once = pred.moment.copy()
        stream_predictions(pred, ys)
        np.testing.assert_allclose(pred.gram, 2.0 * gram_once, rtol=1e-13)
        np.testing.assert_allclose(pred.moment, 2.0 * moment_once, rtol=1e-13)
        assert pred.steps_seen == 128

    def test_refit_matches_ridge_solve_recomputation(self, small_bank, scalar_spec):
        ys = simulate_lds(scalar_spec, 96, [1.0], 2).ys
        pred = SpectralPredictor(small_bank, reg=1.0, refit_period=16)
        stream_predictions(pred, ys)
        # rebuild the design matrix the accumulators summarize
        Z = np.zeros((96, small_bank.m))
        for t in range(1, 96):
            Z[t] = features(small_bank, ys[:t][::-1])
        w = ridge_solve(Z, ys[:, 0], pred.effective_ridge())
        np.testing.assert_allclose(pred.w[:, 0], w, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_blocked_run_matches_per_step(self, p):
        bank = build_filter_bank(12, 5)
        spec = LdsSpec(
            A=np.diag([0.8, 0.4]),
            C=np.eye(2)[:p],
            noise=NoiseSpec(stdev_process=0.3, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys = simulate_lds(spec, 150, [1.0, -1.0], 7).ys
        fast = SpectralPredictor(bank, obs_dim=p).run_ensemble(ys[None])[0]
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
            ys = simulate_lds(spec, 64, np.zeros(d), 0).ys
            pred = SpectralPredictor(small_bank)
            pred.run(ys)  # run_ensemble is pure; the state stays bank-sized
            stream_predictions(pred, ys)
            sizes.append(pred.state_size)
        assert len(set(sizes)) == 1

    def test_run_is_pure(self, small_bank, scalar_spec):
        ys = simulate_lds(scalar_spec, 50, [1.0], 3).ys
        pred = SpectralPredictor(small_bank)
        pred.run(ys)
        assert pred.steps_seen == 0
        assert (pred.w == 0).all()

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
        Ys = simulate_lds_ensemble(spec, 3000, np.array([1.0]), rngs)
        tail = slice(2900, 2980)
        kal = ((KalmanPredictor(spec).run_ensemble(Ys) - Ys) ** 2)[:, tail].mean()
        excess = {}
        for aug in (False, True):
            bank = build_filter_bank(64, 10, sign_augmented=aug)
            sf = SpectralPredictor(bank, obs_dim=1)
            excess[aug] = ((sf.run_ensemble(Ys) - Ys) ** 2)[:, tail].mean() - kal
        assert excess[True] < 0.2 * excess[False]
        assert excess[True] <= 0.01 * kal

    def test_mse_close_to_kalman_after_training(self, scalar_spec):
        from dynolearn import KalmanPredictor

        bank = build_filter_bank(100, 15)
        rngs = SeededRng(12).split(120)
        Ys = simulate_lds_ensemble(scalar_spec, 2000, np.array([1.0]), rngs)
        sf = SpectralPredictor(bank).run_ensemble(Ys)
        kal = KalmanPredictor(scalar_spec).run_ensemble(Ys)
        tail = slice(1900, 2000)
        mse_sf = ((sf - Ys) ** 2)[:, tail].mean()
        mse_k = ((kal - Ys) ** 2)[:, tail].mean()
        assert mse_sf <= 1.10 * mse_k


class TestBaselines:
    def test_zero(self):
        pred = BaselinePredictor("zero")
        assert pred.predict(np.ones(5)) == pytest.approx(0.0)
        preds = pred.run(np.ones(10))
        assert (preds == 0).all()

    def test_last_value_constant_sequence(self):
        pred = BaselinePredictor("last_value")
        ys = np.full(10, 3.3)
        preds = pred.run(ys)
        assert preds[0] == 0.0
        np.testing.assert_array_equal(preds[1:], ys[1:])  # zero loss from step 2

    def test_ar1_identifies_decay_coefficient(self):
        ys = (0.5 ** np.arange(60))[:, None]
        pred = BaselinePredictor("ar", order=1, reg=1e-10, refit_period=16)
        stream_predictions(pred, ys)
        assert pred.w[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_ar_matches_batch_least_squares(self, scalar_spec):
        k = 3
        ys = simulate_lds(scalar_spec, 128, [1.0], 9).ys
        pred = BaselinePredictor("ar", order=k, reg=0.7, refit_period=16)
        stream_predictions(pred, ys)
        Z = np.zeros((128, k))
        for t in range(1, 128):
            lag = ys[max(0, t - k) : t][::-1, 0]
            Z[t, : lag.size] = lag
        w = ridge_solve(Z, ys[:, 0], pred._core.effective_ridge())
        np.testing.assert_allclose(pred.w[:, 0], w, atol=1e-9)

    def test_ar_blocked_matches_per_step(self, scalar_spec):
        ys = simulate_lds(scalar_spec, 150, [1.0], 4).ys
        fast = BaselinePredictor("ar", order=4).run(ys[:, 0])
        slow = stream_predictions(BaselinePredictor("ar", order=4), ys)[:, 0]
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractViolation):
            BaselinePredictor("median")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_last_value_shifts(self, seed):
        g = np.random.default_rng(seed)
        ys = g.standard_normal(20)
        preds = BaselinePredictor("last_value").run(ys)
        np.testing.assert_array_equal(preds[1:], ys[:-1])


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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_lags_bitwise_equal_to_shifted_lag_rows(self, n, H, p, k, seed):
        Ys = np.random.default_rng(seed).standard_normal((n, H, p))
        Zfull = np.stack([self._lag_matrix(Ys[i], k) for i in range(n)])
        expected = np.concatenate([np.zeros((n, 1, k * p)), Zfull[:, : H - 1]], axis=1)
        got = _shifted_lags(Ys, k)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

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


class TestIterateForecast:
    def test_last_value_forecast_is_constant(self):
        pred = BaselinePredictor("last_value")
        out = iterate_forecast(pred, np.array([2.0, 1.0, 0.0]), steps=5)
        np.testing.assert_array_equal(out, np.full((5, 1), 2.0))

    def test_linear_model_matches_manual_rollout(self, small_bank):
        pred = SpectralPredictor(small_bank)
        ys = (0.9 ** np.arange(80))[:, None]
        stream_predictions(pred, ys)
        hist = ys[::-1]
        out = iterate_forecast(pred, hist, steps=3)
        h = hist.copy()
        for s in range(3):
            expected = pred.predict(h)
            np.testing.assert_allclose(out[s], expected)
            h = np.concatenate([expected[None, :], h], axis=0)

    def test_rejects_bad_steps(self, small_bank):
        with pytest.raises(ContractViolation):
            iterate_forecast(SpectralPredictor(small_bank), np.ones(3), steps=0)
