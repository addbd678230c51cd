import math
import time

import numpy as np
import pytest

from dynolearn import (
    ContractViolation,
    InitPolicy,
    KalmanPredictor,
    KalmanState,
    KernelOracle,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    SeededRng,
    TruthOracle,
    default_kernel_truncation,
    deterministic_truth,
    estimate_excess_risk,
    kalman_step,
    simulate_lds,
    simulate_lorenz,
)
from dynolearn.errors import IncompatiblePairing


def _spec(a, c=1.0, q=0.01, r=0.01, x0=(1.0,)):
    return LdsSpec(
        A=[[a]],
        C=[[c]],
        noise=NoiseSpec(stdev_process=math.sqrt(q), stdev_obs=math.sqrt(r)),
        init=InitPolicy(kind="fixed", x0=x0),
    )


class TestKalman:
    def test_full_observation_collapses_posterior(self):
        A = np.array([[0.6, 0.2], [0.2, 0.3]])
        spec = LdsSpec(
            A=A,
            C=np.eye(2),
            noise=NoiseSpec(stdev_process=0.5, stdev_obs=0.0),
            init=InitPolicy(kind="fixed", x0=(1.0, 1.0)),
        )
        kal = KalmanPredictor(spec, init_cov=1.0)
        y = np.array([0.3, -0.7])
        state, yhat = kal.step(kal.initial_state(), y)
        np.testing.assert_allclose(yhat, A @ y, atol=1e-12)
        np.testing.assert_allclose(state.xhat, A @ y, atol=1e-12)

    def test_memoryless_system_predicts_zero(self):
        spec = _spec(a=0.0)
        kal = KalmanPredictor(spec)
        state = kal.initial_state()
        rng = np.random.default_rng(0)
        for _ in range(20):
            state, yhat = kal.step(state, rng.standard_normal(1))
            assert yhat == pytest.approx(0.0, abs=1e-15)

    def test_scalar_riccati_steady_state(self):
        a, c, q, r = 0.9, 1.0, 0.01, 0.01
        spec = _spec(a, c, q, r)
        kal = KalmanPredictor(spec, init_cov=1.0)
        _, _, Ps = kal.gain_schedule(1001)
        # positive root of p = a^2 p r / (p + r) + q, solved in closed form
        bcoef = r - q - a * a * r
        p_star = (-bcoef + math.sqrt(bcoef * bcoef + 4 * q * r)) / 2.0
        assert abs(float(Ps[1000, 0, 0]) - p_star) < 1e-10

    def test_covariance_stays_psd_and_bounded(self):
        spec = LdsSpec(
            A=[[0.9, 0.05], [0.05, 0.5]],
            C=[[1.0, 0.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="ball_grid", radius=1.0, points=4),
        )
        kal = KalmanPredictor(spec)
        _, _, Ps = kal.gain_schedule(10**5)
        traces = np.trace(Ps, axis1=1, axis2=2)
        assert np.isfinite(traces).all()
        assert traces.max() <= traces[0] + 1.0  # no divergence over 1e5 steps
        for t in (0, 10, 100, 10**5 - 1):
            evals = np.linalg.eigvalsh(Ps[t])
            assert evals.min() >= -1e-10

    def test_run_ensemble_matches_step_loop(self):
        spec = LdsSpec(
            A=[[0.8, 0.1], [0.1, 0.6]],
            C=[[1.0, -1.0]],
            noise=NoiseSpec(stdev_process=0.2, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, 0.0)),
        )
        ys = simulate_lds(spec, 200, [1.0, 0.0], 3).ys
        kal = KalmanPredictor(spec)
        state = kal.initial_state()
        preds = np.zeros_like(ys)
        for t in range(200):
            preds[t] = kal.C @ state.xhat
            state, _ = kal.step(state, ys[t])
        fast = kal.run(ys)
        np.testing.assert_allclose(fast, preds, rtol=1e-9, atol=1e-12)

    def test_zero_obs_noise_regularizes_singular_innovation(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        kal = KalmanPredictor(spec, init_cov=0.0)  # P = 0 and R = 0: singular S
        state, yhat = kal.step(kal.initial_state(), np.zeros(1))
        assert kal.regularized_steps == 1  # singular innovation was flagged
        assert np.isfinite(yhat).all()

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_schedule_built_once_under_threads(self, n_workers, monkeypatch):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        kal = KalmanPredictor(spec)  # P0 = 0 and R = 0: every innovation is singular
        builds = []
        build = kal._build_schedule

        def slow_build(horizon):
            builds.append(horizon)
            time.sleep(0.05)  # a worker that misses the cache meanwhile would build again
            return build(horizon)

        monkeypatch.setattr(kal, "_build_schedule", slow_build)
        x0_grid = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0]]
        estimate_excess_risk(
            spec, kal, kal, (4, 8), n_traj=2, x0_grid=x0_grid, window=2, n_workers=n_workers
        )
        assert builds == [10]  # horizon 8 + 2
        assert kal.regularized_steps == 10

    def test_kalman_step_function_wrapper(self):
        spec = _spec(a=0.5)
        state = KalmanState(np.zeros(1), np.eye(1))
        new_state, yhat = kalman_step(spec, state, np.array([1.0]))
        assert np.isfinite(yhat).all()
        assert new_state.P.shape == (1, 1)

    def test_requires_linear_system(self):
        with pytest.raises(IncompatiblePairing):
            KalmanPredictor(LorenzSpec())

    def test_init_cov_from_policy(self):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="ball_grid", radius=3.0, points=2),
        )
        assert KalmanPredictor(spec).P0[0, 0] == pytest.approx(9.0)


class TestKernelOracle:
    def test_scalar_coefficients_are_powers(self):
        spec = _spec(a=0.7)
        oracle = KernelOracle(spec, k_trunc=20)
        np.testing.assert_allclose(oracle.betas[:, 0, 0], 0.7 ** np.arange(20), rtol=1e-13)

    def test_newest_observation_weight_is_identity_for_unit_c(self):
        spec = _spec(a=0.5)
        oracle = KernelOracle(spec, k_trunc=10)
        history = np.zeros(10)
        history[0] = 1.0  # newest-first impulse
        assert oracle.predict(history)[0] == pytest.approx(1.0)

    def test_matches_matrix_power_oracle(self):
        A = np.diag([0.9, 0.4])
        spec = LdsSpec(
            A=A,
            C=[[1.0, 1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.0),
            init=InitPolicy(kind="fixed", x0=(0.0, 0.0)),
        )
        oracle = KernelOracle(spec, k_trunc=50)
        M = np.eye(2)
        for k in range(50):
            expected = np.array([[1.0, 1.0]]) @ M @ np.array([[1.0], [1.0]])
            assert abs(oracle.betas[k, 0, 0] - expected[0, 0]) < 1e-12
            assert abs(oracle.betas[k, 0, 0] - (0.9**k + 0.4**k)) < 1e-12
            M = M @ A

    def test_coefficient_envelope_nonincreasing(self):
        oracle = KernelOracle(_spec(a=0.8), k_trunc=30)
        norms = np.abs(oracle.betas[:, 0, 0])
        assert (np.diff(norms) <= 1e-15).all()

    def test_truncation_tail_negligible(self):
        spec = _spec(a=0.9)
        k = default_kernel_truncation(spec)
        assert 0.9**k <= 1e-8
        g = np.random.default_rng(0)
        history = g.standard_normal(k + 200)
        short = KernelOracle(spec, k_trunc=k).predict(history)
        long = KernelOracle(spec, k_trunc=k + 200).predict(history)
        assert abs(short[0] - long[0]) <= 1e-6 * np.abs(history).max()

    def test_linearity(self):
        oracle = KernelOracle(_spec(a=0.6), k_trunc=15)
        g = np.random.default_rng(2)
        h1, h2 = g.standard_normal(30), g.standard_normal(30)
        lhs = oracle.predict(2.5 * h1 + h2)
        rhs = 2.5 * oracle.predict(h1) + oracle.predict(h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_run_ensemble_matches_predict_loop(self):
        spec = LdsSpec(
            A=np.diag([0.8, 0.3]),
            C=np.array([[1.0, 0.5], [0.0, 1.0]]),
            noise=NoiseSpec(stdev_process=0.2, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys = simulate_lds(spec, 120, [1.0, -1.0], 1).ys
        oracle = KernelOracle(spec, k_trunc=40)
        preds = np.zeros_like(ys)
        for t in range(1, 120):
            preds[t] = oracle.predict(ys[:t][::-1])
        fast = oracle.run(ys)
        np.testing.assert_allclose(fast, preds, rtol=1e-11, atol=1e-12)

    def test_default_truncation_edge_cases(self):
        assert default_kernel_truncation(_spec(a=0.0)) == 1
        spec_marginal = LdsSpec(
            A=[[1.0]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        assert default_kernel_truncation(spec_marginal) == 10_000


class TestDeterministicTruth:
    def test_noiseless_lds_zero_loss(self):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        traj = simulate_lds(spec, 50, [1.0], 0, record_states=True)
        preds = deterministic_truth(traj, spec)
        assert ((preds - traj.ys) ** 2).sum() == 0.0

    def test_noiseless_lorenz_zero_loss(self):
        spec = LorenzSpec()
        traj = simulate_lorenz(spec, 100, [1.0, 1.0, 1.0], 0, record_states=True)
        preds = deterministic_truth(traj, spec)
        assert ((preds - traj.ys) ** 2).sum() == 0.0

    def test_refuses_noisy_spec(self):
        spec = _spec(a=0.5)
        traj = simulate_lds(spec, 20, [1.0], 0, record_states=True)
        with pytest.raises(ContractViolation, match="noiseless"):
            deterministic_truth(traj, spec)

    def test_refuses_missing_states(self):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        traj = simulate_lds(spec, 20, [1.0], 0, record_states=False)
        with pytest.raises(ContractViolation, match="latent"):
            deterministic_truth(traj, spec)

    def test_truth_oracle_rejects_noisy_lorenz(self):
        with pytest.raises(ContractViolation):
            TruthOracle(LorenzSpec(obs_noise=0.1))


class TestBayesOrdering:
    def test_kalman_beats_kernel_and_naive_on_noisy_scalar(self):
        spec = LdsSpec(
            A=[[0.9]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        from dynolearn import simulate_lds_ensemble

        rngs = SeededRng(5).split(60)
        Ys = simulate_lds_ensemble(spec, 400, np.array([1.0]), rngs)
        kal = KalmanPredictor(spec).run_ensemble(Ys)
        ker = KernelOracle(spec).run_ensemble(Ys)
        tail = slice(200, 400)
        mse_k = ((kal - Ys) ** 2)[:, tail].mean()
        mse_c = ((ker - Ys) ** 2)[:, tail].mean()
        mse_0 = (Ys**2)[:, tail].mean()
        assert mse_k <= mse_c + 1e-6
        assert mse_k < mse_0
