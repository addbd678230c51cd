import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    InitPolicy,
    KalmanPredictor,
    KernelOracle,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    SeededRng,
    TruthOracle,
    default_kernel_truncation,
    estimate_excess_risk,
)
from conftest import lds_reference
from dynolearn import oracles, predictors
from dynolearn.errors import IncompatiblePairing
from dynolearn.systems import simulate_lorenz_ensemble


def _run(predictor, ys):
    """`predictor`'s predictions on one (H, p) trajectory."""
    return predictor.run_ensemble(ys[None])[0]


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
        preds = _run(kal, np.stack([y, np.zeros(2)]))
        np.testing.assert_allclose(preds[1], A @ y, atol=1e-12)
        # the posterior mean is y itself: x' = F x + G y with F = 0, G = A
        F, G, _ = kal.gain_schedule(1)
        np.testing.assert_allclose(F[0], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(G[0], A, atol=1e-12)

    def test_memoryless_system_predicts_zero(self):
        spec = _spec(a=0.0)
        ys = np.random.default_rng(0).standard_normal((20, 1))
        np.testing.assert_allclose(_run(KalmanPredictor(spec), ys), 0.0, rtol=0, atol=1e-15)

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
        ys, _ = lds_reference(spec, 200, [1.0, 0.0], 3)
        kal = KalmanPredictor(spec)
        # the textbook filter: measurement update, then time update
        A, C, Q, R = spec.A, spec.C, spec.process_cov(), spec.obs_cov()
        x, P = np.zeros(2), kal.P0.copy()
        preds, Ps = np.zeros_like(ys), np.zeros((200, 2, 2))
        for t in range(200):
            preds[t], Ps[t] = C @ x, P
            gain = P @ C.T @ np.linalg.inv(C @ P @ C.T + R)
            x = A @ (x + gain @ (ys[t] - C @ x))
            P = A @ (P - gain @ C @ P) @ A.T + Q
        np.testing.assert_allclose(_run(kal, ys), preds, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(kal.gain_schedule(200)[2], Ps, rtol=1e-9, atol=1e-12)

    def test_zero_obs_noise_regularizes_singular_innovation(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        kal = KalmanPredictor(spec, init_cov=0.0)  # P = 0 and R = 0: singular S
        preds = _run(kal, np.ones((5, 1)))
        assert kal.regularized_steps == 5  # every singular innovation was flagged
        assert np.isfinite(preds).all()

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

    def test_step_from_explicit_state(self):
        spec = _spec(a=0.5)  # q = r = 0.01
        kal = KalmanPredictor(spec, init_cov=np.eye(1))
        F, G, Ps = kal.gain_schedule(2)
        preds = _run(kal, np.array([[1.0], [0.0]]))
        # scalar update from P = 1: gain 1/1.01, posterior variance 0.01/1.01,
        # then the time update x' = 0.5 x, P' = 0.25 P + q
        assert G[0, 0, 0] == pytest.approx(0.5 / 1.01, rel=1e-12)
        assert F[0, 0, 0] == pytest.approx(0.5 * 0.01 / 1.01, rel=1e-12)
        assert preds[1, 0] == pytest.approx(0.5 / 1.01, rel=1e-12)
        assert Ps[1, 0, 0] == pytest.approx(0.25 * 0.01 / 1.01 + 0.01, rel=1e-12)

    def test_rejects_bad_init_cov(self):
        spec = LdsSpec(
            A=[[0.5, 0.0], [0.0, 0.4]],
            C=[[1.0, 1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(0.0, 0.0)),
        )
        bad = (np.eye(3), [[1.0, 0.5], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]])
        for cov in bad:
            with pytest.raises(ContractViolation, match="init_cov"):
                KalmanPredictor(spec, init_cov=cov)
        with pytest.raises(ContractViolation, match="init_cov"):
            KalmanPredictor(_spec(a=0.5), init_cov=np.eye(3))  # (3, 3) for d = 1
        ok = KalmanPredictor(spec, init_cov=2 * np.eye(2))
        np.testing.assert_array_equal(ok.P0, 2 * np.eye(2))

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
        impulse = np.zeros((12, 1))
        impulse[0] = 1.0
        preds = _run(oracle, impulse)[:, 0]
        assert preds[1] == pytest.approx(1.0)  # the step after the impulse
        # the impulse response reads the coefficients, up to the truncation
        np.testing.assert_allclose(preds[1:11], 0.5 ** np.arange(10), rtol=1e-13)
        assert preds[0] == preds[11] == 0.0

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
        assert k == 175  # ceil(ln 1e-8 / ln 0.9)
        assert 0.9**k <= 1e-8
        g = np.random.default_rng(0)
        ys = g.standard_normal((k + 201, 1))
        short = _run(KernelOracle(spec, k_trunc=k), ys)[-1]
        long = _run(KernelOracle(spec, k_trunc=k + 200), ys)[-1]
        assert abs(short[0] - long[0]) <= 1e-6 * np.abs(ys).max()

    def test_linearity(self):
        oracle = KernelOracle(_spec(a=0.6), k_trunc=15)
        g = np.random.default_rng(2)
        h1, h2 = g.standard_normal((2, 30, 1))
        lhs = _run(oracle, 2.5 * h1 + h2)
        rhs = 2.5 * _run(oracle, h1) + _run(oracle, h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_run_ensemble_matches_predict_loop(self):
        spec = LdsSpec(
            A=np.diag([0.8, 0.3]),
            C=np.array([[1.0, 0.5], [0.0, 1.0]]),
            noise=NoiseSpec(stdev_process=0.2, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys, _ = lds_reference(spec, 120, [1.0, -1.0], 1)
        oracle = KernelOracle(spec, k_trunc=40)
        # the convolution sum: y_hat_t = sum_k beta_k y_{t-1-k}, k < min(K, t)
        preds = np.zeros_like(ys)
        for t in range(1, 120):
            for k in range(min(40, t)):
                preds[t] += oracle.betas[k] @ ys[t - 1 - k]
        fast = _run(oracle, ys)
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
    """`TruthOracle`: exact predictions, zero loss on deterministic systems."""

    def test_noiseless_lds_zero_loss(self):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        ys, _ = lds_reference(spec, 50, [1.0], 0)
        oracle = TruthOracle(spec)
        assert oracle.label == "truth"
        assert ((_run(oracle, ys) - ys) ** 2).sum() == 0.0

    def test_noiseless_lorenz_zero_loss(self):
        spec = LorenzSpec()
        Ys = simulate_lorenz_ensemble(spec, 100, [1.0, 1.0, 1.0], [SeededRng(0)])
        oracle = TruthOracle(spec)
        assert ((oracle.run_ensemble(Ys) - Ys) ** 2).sum() == 0.0

    def test_refuses_noisy_spec(self):
        with pytest.raises(ContractViolation, match="noiseless"):
            TruthOracle(_spec(a=0.5))

    def test_without_spec_is_the_zero_risk_reference(self):
        # no spec, no noiseless check: the loss is zero by construction
        Ys = lds_reference(_spec(a=0.5), 20, [1.0], 0)[0][None]
        oracle = TruthOracle()
        assert oracle.label == "zero"
        preds = oracle.run_ensemble(Ys)
        assert preds is not Ys
        np.testing.assert_array_equal(preds, Ys)

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

        rngs = [SeededRng(5).child(i) for i in range(60)]
        Ys = simulate_lds_ensemble(spec, 400, np.array([1.0]), rngs)
        kal = KalmanPredictor(spec).run_ensemble(Ys)
        ker = KernelOracle(spec).run_ensemble(Ys)
        tail = slice(200, 400)
        mse_k = ((kal - Ys) ** 2)[:, tail].mean()
        mse_c = ((ker - Ys) ** 2)[:, tail].mean()
        mse_0 = (Ys**2)[:, tail].mean()
        assert mse_k <= mse_c + 1e-6
        assert mse_k < mse_0


class TestLinearity:
    def test_declared_by_exactly_the_reference_predictors(self):
        # the harness superposes every class that declares it; the additivity
        # property below covers each of them
        declared = {
            c
            for module in (oracles, predictors)
            for c in vars(module).values()
            if isinstance(c, type) and getattr(c, "linear", False)
        }
        assert declared == {KalmanPredictor, KernelOracle, TruthOracle}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        p=st.integers(1, 2),
        n=st.integers(1, 4),
        H=st.integers(1, 50),
        kind=st.sampled_from(["kalman", "kernel", "truth", "zero"]),
    )
    def test_run_is_additive(self, seed, d, p, n, H, kind):
        g = np.random.default_rng(seed)
        M = g.standard_normal((d, d))
        A = M + M.T
        A *= g.uniform(0.0, 1.0) / np.abs(np.linalg.eigvalsh(A)).max()
        noise = (
            NoiseSpec(kind="none")
            if kind == "truth"
            else NoiseSpec(stdev_process=g.uniform(0.0, 1.0), stdev_obs=g.uniform(0.01, 1.0))
        )
        spec = LdsSpec(A=A, C=g.standard_normal((p, d)), noise=noise)
        P = {
            "kalman": lambda: KalmanPredictor(spec),
            "kernel": lambda: KernelOracle(spec, k_trunc=int(g.integers(1, 60))),
            "truth": lambda: TruthOracle(spec),
            "zero": lambda: TruthOracle(),
        }[kind]()
        a, b = 3.0 * g.standard_normal((2, n, H, p))
        ra, rb = P.run_ensemble(a), P.run_ensemble(b)
        scale = max(np.abs(ra).max(), np.abs(rb).max())
        np.testing.assert_allclose(P.run_ensemble(a + b), ra + rb, rtol=1e-12, atol=1e-12 * scale)
