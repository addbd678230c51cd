import math

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
    SpectralPredictor,
    TruthOracle,
    estimate_excess_risk,
    simulate_ensemble,
)
from conftest import (
    kalman_covariances,
    kalman_reference,
    kalman_steps,
    kernel_reference,
    lds_reference,
    run_whole,
)
from dynolearn import oracles, predictors
from dynolearn.errors import IncompatiblePairing
from dynolearn.systems import random_symmetric_psd, random_unit_row


def _run(predictor, ys):
    """`predictor`'s predictions on one (H, p) trajectory."""
    return run_whole(predictor, ys[None])[0][0]


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
        kal = KalmanPredictor(spec)
        y = np.array([0.3, -0.7])
        preds = _run(kal, np.stack([y, np.zeros(2)]))
        np.testing.assert_allclose(preds[1], A @ y, atol=1e-12)
        # the posterior mean is y itself: x' = F x + G y with F = 0, G = A
        F, G = kalman_steps(kal, 1)
        np.testing.assert_allclose(F[0], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(G[0], A, atol=1e-12)

    def test_memoryless_system_predicts_zero(self):
        spec = _spec(a=0.0)
        ys = np.random.default_rng(0).standard_normal((20, 1))
        np.testing.assert_allclose(_run(KalmanPredictor(spec), ys), 0.0, rtol=0, atol=1e-15)

    def test_scalar_riccati_steady_state(self):
        a, c, q, r = 0.9, 1.0, 0.01, 0.01
        spec = _spec(a, c, q, r)
        kal = KalmanPredictor(spec)
        Ps = kalman_covariances(kal, 1001)
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
        Ps = kalman_covariances(kal, 10**5)
        traces = np.trace(Ps, axis1=1, axis2=2)
        assert np.isfinite(traces).all()
        assert traces.max() <= traces[0] + 1.0  # no divergence over 1e5 steps
        for t in (0, 10, 100, 10**5 - 1):
            evals = np.linalg.eigvalsh(Ps[t])
            assert evals.min() >= -1e-10

    def test_whole_run_matches_step_loop(self):
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
        np.testing.assert_allclose(kalman_covariances(kal, 200), Ps, rtol=1e-9, atol=1e-12)

    def test_zero_obs_noise_regularizes_singular_innovation(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        kal = KalmanPredictor(spec)  # x0 = 0 gives P0 = 0, and R = 0: singular S
        preds = _run(kal, np.ones((5, 1)))
        assert kal.regularized_steps == 5  # every singular innovation was flagged
        assert np.isfinite(preds).all()

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_schedule_built_once_under_threads(self, n_workers):
        # one covariance recursion per distinct Kalman predictor per
        # measurement: the algorithm and the reference name one object, so
        # they share one stream, which steps the base and the free responses
        # together, whatever the worker count
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        kal = KalmanPredictor(spec)  # P0 = 0 and R = 0: every innovation is singular
        x0_grid = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [7.0]]
        estimate_excess_risk(
            spec, kal, (kal,), (4, 8), n_traj=2, x0_grid=x0_grid, window=2, n_workers=n_workers
        )
        assert kal.regularized_steps == 10  # horizon 8 + 2, once

    @pytest.mark.parametrize(
        "spec",
        [
            _spec(0.9),
            LdsSpec(  # a 2-d system whose P settles bit for bit
                A=[[0.8, 0.1], [0.1, 0.6]],
                C=[[1.0, -1.0]],
                noise=NoiseSpec(stdev_process=0.2, stdev_obs=0.1),
                init=InitPolicy(kind="fixed", x0=(1.0, 0.0)),
            ),
        ],
        ids=["scalar", "2d"],
    )
    def test_schedule_stops_at_its_exact_fixed_point(self, spec):
        H = 400
        kal = KalmanPredictor(spec)
        Ys = simulate_ensemble(spec, H, spec.init.x0, [SeededRng(i) for i in range(3)])
        stream = kal.stream(Ys.shape)
        stream.push(Ys)
        assert stream.fixed_from < H // 2
        assert kal.regularized_steps == 0
        # the filter loop with each step's own matrices, from the whole
        # recursion stepped without stopping, as before the shortcut
        assert stream.preds[0].tobytes() == kalman_reference(KalmanPredictor(spec), Ys).tobytes()

    def test_regularized_fixed_point_counts_every_remaining_step(self):
        spec = LdsSpec(
            A=[[0.5]], C=[[1.0]], noise=NoiseSpec(), init=InitPolicy(kind="fixed", x0=(0.0,))
        )
        kal = KalmanPredictor(spec)  # P0 = 0 and R = 0: P stays 0, every innovation is singular
        stream = kal.stream((2, 37, 1))
        stream.push(np.ones((2, 37, 1)))
        assert stream.fixed_from == 0
        assert kal.regularized_steps == 37

    def test_step_from_explicit_state(self):
        spec = _spec(a=0.5)  # q = r = 0.01
        kal = KalmanPredictor(spec)  # x0 = 1 gives P0 = 1
        (F, G), Ps = kalman_steps(kal, 2), kalman_covariances(kal, 2)
        preds = _run(kal, np.array([[1.0], [0.0]]))
        # scalar update from P = 1: gain 1/1.01, posterior variance 0.01/1.01,
        # then the time update x' = 0.5 x, P' = 0.25 P + q
        assert G[0, 0, 0] == pytest.approx(0.5 / 1.01, rel=1e-12)
        assert F[0, 0, 0] == pytest.approx(0.5 * 0.01 / 1.01, rel=1e-12)
        assert preds[1, 0] == pytest.approx(0.5 / 1.01, rel=1e-12)
        assert Ps[1, 0, 0] == pytest.approx(0.25 * 0.01 / 1.01 + 0.01, rel=1e-12)

    def test_memory_flat_in_horizon(self):
        # d50's shape with fewer rows, and 8 free responses: a stream that
        # reads no row keeps no prediction, and its working set must not
        # grow with H
        import tracemalloc

        spec = _psd_spec(50)
        peaks = []
        for H in (1100, 4400):
            Ys = np.random.default_rng(H).standard_normal((20, H, 1))
            free = np.random.default_rng(H + 1).standard_normal((8, H, 1))
            stream = KalmanPredictor(spec).stream(Ys.shape, np.zeros(H, dtype=bool), len(free))
            tracemalloc.start()
            try:
                stream.push(Ys, free)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.5, peaks

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


def _scalar_steady_state(a, q, r):
    """Steady-state (f, g) = (a(1 - l), a l) of the scalar filter, with the
    predictive variance the positive root of p = a^2 p r / (p + r) + q."""
    b = r - q - a * a * r
    p_star = (-b + math.sqrt(b * b + 4 * q * r)) / 2.0
    gain = p_star / (p_star + r)
    return a * (1.0 - gain), a * gain


def _rotation_spec(angle=0.3, radius=0.95):
    c, s = math.cos(angle), math.sin(angle)
    return LdsSpec(
        A=radius * np.array([[c, -s], [s, c]]),
        C=[[1.0, 0.0]],
        noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=InitPolicy(kind="fixed", x0=(1.0, 1.0)),
        symmetric_flag=False,
    )


def _psd_spec(d=10):
    return LdsSpec(
        A=random_symmetric_psd(d, 0.0, 0.95, SeededRng(0)),
        C=random_unit_row(d, SeededRng(1)),
        noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=InitPolicy(kind="fixed", x0=tuple(np.ones(d))),
    )


# the systems of the kernel/Kalman comparison: stable, marginal and
# alternating scalars, a d = 10 PSD system and a rotation seen through one
# coordinate, all with noise 0.1/0.1
KERNEL_SYSTEMS = {
    "a=0.9": lambda: _spec(0.9, q=0.01, r=0.01),
    "a=0.99": lambda: _spec(0.99, q=0.01, r=0.01),
    "a=1": lambda: _spec(1.0, q=0.01, r=0.01),
    "a=-1": lambda: _spec(-1.0, q=0.01, r=0.01),
    "d=10-psd": _psd_spec,
    "rotation": _rotation_spec,
}


class TestKernelOracle:
    """`KernelOracle` is the steady-state Kalman predictor as a convolution:
    beta_k = C F^(k-1) G, truncated at the first K with ||F^K||_2 <= 1e-8."""

    def test_scalar_coefficients_are_powers(self):
        a, q, r = 0.7, 0.01, 0.01
        f, g = _scalar_steady_state(a, q, r)
        oracle = KernelOracle(_spec(a, q=q, r=r))
        K = len(oracle.betas)
        np.testing.assert_allclose(oracle.betas[:, 0, 0], g * f ** np.arange(K), rtol=1e-9)

    def test_newest_observation_weight_is_identity_for_unit_c(self):
        # a random walk observed without noise: the best guess is the last value
        spec = _spec(a=1.0, q=0.01, r=0.0)
        oracle = KernelOracle(spec)
        np.testing.assert_allclose(oracle.betas, [[[1.0]]], rtol=0, atol=1e-15)
        impulse = np.zeros((12, 1))
        impulse[0] = 1.0
        preds = _run(oracle, impulse)[:, 0]
        np.testing.assert_allclose(preds, np.eye(12)[1], rtol=0, atol=1e-15)

    def test_matches_matrix_power_oracle(self):
        spec = LdsSpec(
            A=np.diag([0.9, 0.4]),
            C=[[1.0, 1.0]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.0),
            init=InitPolicy(kind="fixed", x0=(0.0, 0.0)),
        )
        oracle = KernelOracle(spec)
        # the converged step is the gain schedule's late step
        F, G = kalman_steps(KalmanPredictor(spec), 2000)
        for k, beta in enumerate(oracle.betas):
            expected = spec.C @ np.linalg.matrix_power(F[-1], k) @ G[-1]
            np.testing.assert_allclose(beta, expected, rtol=0, atol=1e-12)

    def test_coefficient_envelope_nonincreasing(self):
        oracle = KernelOracle(_spec(a=0.8))
        norms = np.abs(oracle.betas[:, 0, 0])
        assert (np.diff(norms) <= 1e-15).all()

    def test_truncation_tail_negligible(self):
        a, q, r = 0.9, 0.01, 0.01
        f, _ = _scalar_steady_state(a, q, r)
        spec = _spec(a, q=q, r=r)
        oracle = KernelOracle(spec)
        K = len(oracle.betas)
        assert K == math.ceil(math.log(1e-8) / math.log(f)) == 19
        # the untruncated steady-state predictor is the Kalman filter once
        # its gain has converged: the two agree up to the dropped tail
        ys = np.random.default_rng(0).standard_normal((400, 1))
        kalman = _run(KalmanPredictor(spec), ys)
        assert np.abs(_run(oracle, ys) - kalman)[200:].max() <= 1e-6 * np.abs(ys).max()

    def test_linearity(self):
        oracle = KernelOracle(_spec(a=0.6))
        g = np.random.default_rng(2)
        h1, h2 = g.standard_normal((2, 30, 1))
        lhs = _run(oracle, 2.5 * h1 + h2)
        rhs = 2.5 * _run(oracle, h1) + _run(oracle, h2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_whole_run_matches_predict_loop(self):
        spec = LdsSpec(
            A=np.diag([0.8, 0.3]),
            C=np.array([[1.0, 0.5], [0.0, 1.0]]),
            noise=NoiseSpec(stdev_process=0.2, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys, _ = lds_reference(spec, 120, [1.0, -1.0], 1)
        oracle = KernelOracle(spec)
        K = len(oracle.betas)
        # the convolution sum: y_hat_t = sum_k beta_k y_{t-1-k}, k < min(K, t)
        preds = np.zeros_like(ys)
        for t in range(1, 120):
            for k in range(min(K, t)):
                preds[t] += oracle.betas[k] @ ys[t - 1 - k]
        fast = _run(oracle, ys)
        np.testing.assert_allclose(fast, preds, rtol=1e-11, atol=1e-12)

    def test_default_truncation_edge_cases(self):
        # memoryless: one zero tap
        np.testing.assert_array_equal(KernelOracle(_spec(a=0.0)).betas, np.zeros((1, 1, 1)))
        # marginal poles with process noise: the gain pulls F inside the unit circle
        assert len(KernelOracle(_spec(a=1.0, q=0.01, r=0.01)).betas) == 20
        # no process noise at |a| = 1: P falls like r / t and the gain never settles
        for a in (1.0, -1.0):
            with pytest.raises(IncompatiblePairing, match="does not converge"):
                KernelOracle(_spec(a=a, q=0.0, r=0.01))
        # an unobserved marginal mode: the gain settles at once, the taps never decay
        with pytest.raises(IncompatiblePairing, match="do not decay"):
            KernelOracle(_spec(a=1.0, c=0.0, q=0.0, r=0.01))

    @pytest.mark.parametrize("name", list(KERNEL_SYSTEMS))
    def test_losses_equal_kalman(self, name):
        spec = KERNEL_SYSTEMS[name]()
        rngs = [SeededRng(1).child(i) for i in range(50)]
        Ys = simulate_ensemble(spec, 400, np.ones(spec.d), rngs)
        losses = [
            ((run_whole(P, Ys)[0] - Ys) ** 2).sum(2)[:, 200:].mean(1)
            for P in (KalmanPredictor(spec), KernelOracle(spec))
        ]
        diff = losses[1] - losses[0]
        ci = 1.96 * diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) <= ci, (diff.mean(), ci)
        # and on every trajectory, up to the dropped tail (1e-8 of the taps)
        assert np.abs(diff).max() <= 1e-7 * losses[0].mean()

    @pytest.mark.parametrize(
        "A, C, taps",
        [([[0.5]], [[1.0]], [0.5]), (np.diag([0.9, 0.5, -0.3]), [[1.0, 1.0, 1.0]], [1.1, -0.03, -0.135])],
        ids=["d=1", "d=3"],
    )
    def test_noiseless_observable_system_is_dead_beat(self, A, C, taps):
        spec = LdsSpec(A=A, C=C, noise=NoiseSpec(), init=InitPolicy(kind="ball_grid", points=4))
        oracle = KernelOracle(spec)
        # the taps are minus the coefficients of A's characteristic polynomial
        np.testing.assert_allclose(oracle.betas[:, 0, 0], taps, rtol=0, atol=1e-14)
        d = spec.d
        x0s = np.random.default_rng(3).standard_normal((5, d))
        Ys = np.stack([lds_reference(spec, 60, x0, 0)[0] for x0 in x0s])
        losses = ((run_whole(oracle, Ys)[0] - Ys) ** 2).sum(2)
        assert losses[:, d:].max() <= 1e-28


class TestDeterministicTruth:
    """`TruthOracle`: exact predictions, zero loss on deterministic systems."""

    def test_noiseless_lds_zero_loss(self):
        spec = LdsSpec(
            A=[[0.5]],
            C=[[1.0]],
            noise=NoiseSpec(),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        ys, _ = lds_reference(spec, 50, [1.0], 0)
        oracle = TruthOracle(spec)
        assert oracle.label == "truth"
        assert ((_run(oracle, ys) - ys) ** 2).sum() == 0.0

    def test_noiseless_lorenz_zero_loss(self):
        spec = LorenzSpec()
        Ys = simulate_ensemble(spec, 100, [1.0, 1.0, 1.0], [SeededRng(0)])
        oracle = TruthOracle(spec)
        assert ((run_whole(oracle, Ys)[0] - Ys) ** 2).sum() == 0.0

    def test_refuses_noisy_spec(self):
        with pytest.raises(ContractViolation, match="noiseless"):
            TruthOracle(_spec(a=0.5))

    def test_without_spec_is_the_zero_risk_reference(self):
        # no spec, no noiseless check: the loss is zero by construction
        Ys = lds_reference(_spec(a=0.5), 20, [1.0], 0)[0][None]
        oracle = TruthOracle()
        assert oracle.label == "zero"
        preds = run_whole(oracle, Ys)[0]
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
        rngs = [SeededRng(5).child(i) for i in range(60)]
        Ys = simulate_ensemble(spec, 400, np.array([1.0]), rngs)
        kal = run_whole(KalmanPredictor(spec), Ys)[0]
        ker = run_whole(KernelOracle(spec), Ys)[0]
        tail = slice(200, 400)
        mse_k = ((kal - Ys) ** 2)[:, tail].mean()
        mse_c = ((ker - Ys) ** 2)[:, tail].mean()
        mse_0 = (Ys**2)[:, tail].mean()
        assert mse_k <= mse_c + 1e-6
        assert mse_k < mse_0


class TestLinearity:
    def test_declared_by_exactly_the_reference_predictors(self):
        # the harness superposes every predictor that fits nothing: the
        # reference predictors and the learner class's frozen baselines
        # (`SpectralPredictor.baseline`); the additivity property below
        # covers each of them.  Each runs as a stream, but the truth oracle,
        # which has none: the harness predicts the read observations by
        # themselves
        public = {
            c
            for module in (oracles, predictors)
            for c in vars(module).values()
            if isinstance(c, type) and c.__name__[0] != "_"
        }
        streams = {c for c in public if hasattr(c, "stream")}
        assert streams == {SpectralPredictor, KalmanPredictor, KernelOracle}
        assert TruthOracle in public and not hasattr(TruthOracle, "stream")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        p=st.integers(1, 2),
        n=st.integers(1, 4),
        H=st.integers(1, 50),
        kind=st.sampled_from(["kalman", "kernel", "truth", "zero", "zero_baseline", "last_value"]),
    )
    def test_run_is_additive(self, seed, d, p, n, H, kind):
        g = np.random.default_rng(seed)
        M = g.standard_normal((d, d))
        A = M + M.T
        # spectral radius <= 0.95: the gain converges and the kernel exists
        A *= g.uniform(0.0, 0.95) / np.abs(np.linalg.eigvalsh(A)).max()
        noise = (
            NoiseSpec()
            if kind == "truth"
            else NoiseSpec(stdev_process=g.uniform(0.0, 1.0), stdev_obs=g.uniform(0.01, 1.0))
        )
        spec = LdsSpec(A=A, C=g.standard_normal((p, d)), noise=noise)
        P = {
            "kalman": lambda: KalmanPredictor(spec),
            "kernel": lambda: KernelOracle(spec),
            "truth": lambda: TruthOracle(spec),
            "zero": lambda: TruthOracle(),
            "zero_baseline": lambda: SpectralPredictor.baseline("zero", obs_dim=p),
            "last_value": lambda: SpectralPredictor.baseline("last_value", obs_dim=p),
        }[kind]()
        a, b = 3.0 * g.standard_normal((2, n, H, p))
        ra, rb = run_whole(P, a)[0], run_whole(P, b)[0]
        scale = max(np.abs(ra).max(), np.abs(rb).max())
        np.testing.assert_allclose(run_whole(P, a + b)[0], ra + rb, rtol=1e-12, atol=1e-12 * scale)


def _stream_spec(g, d, p):
    """A random stable LDS with noise, or the scalar a = 0.9 system."""
    if d == 0:
        return _spec(0.9)
    M = g.standard_normal((d, d))
    A = M + M.T
    A *= g.uniform(0.0, 0.95) / np.abs(np.linalg.eigvalsh(A)).max()
    noise = NoiseSpec(stdev_process=g.uniform(0.05, 1.0), stdev_obs=g.uniform(0.05, 1.0))
    return LdsSpec(A=A, C=g.standard_normal((p, d)), noise=noise)


class TestStreams:
    """The Kalman and kernel streams: rows pushed in uneven pieces, with free
    responses beside them, keep the bits of one push.  The Kalman stream
    keeps the bits of `conftest.kalman_reference` on the base and on the
    free responses; the kernel, a frozen arm of `predictors._Arms`, agrees
    with `conftest.kernel_reference` on each base + free[j] up to rounding,
    as a matmul replaces the reference's tap-by-tap sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["kalman", "kernel"]),
        d=st.integers(0, 2),  # 0: the scalar a = 0.9 system, whose P is fixed from step 19
        p=st.integers(1, 2),
        n=st.integers(1, 4),
        k=st.integers(0, 3),  # 0: no free responses
        H=st.integers(1, 70),
        data=st.data(),
    )
    def test_pieces_keep_the_bits(self, seed, kind, d, p, n, k, H, data):
        g = np.random.default_rng(seed)
        spec = _stream_spec(g, d, p)
        p = spec.p
        make = {"kalman": lambda: KalmanPredictor(spec), "kernel": lambda: KernelOracle(spec)}[kind]
        reference = {"kalman": kalman_reference, "kernel": kernel_reference}[kind]
        Ys, free = 3.0 * g.standard_normal((n, H, p)), 3.0 * g.standard_normal((k, H, p))
        cuts = sorted(data.draw(st.lists(st.integers(0, H), max_size=6), label="cuts"))
        rows = None
        if data.draw(st.booleans(), label="masked"):
            rows = np.array(data.draw(st.lists(st.booleans(), min_size=H, max_size=H)))

        def run(pieces):
            P = make()
            stream = P.stream(Ys.shape, rows, k or None)
            for a, b in zip([0, *pieces], [*pieces, H]):
                stream.push(Ys[:, a:b], free[:, a:b] if k else None)
            return stream, P

        whole, P = run([])
        pieced, Q = run(cuts)
        read = np.ones(H, dtype=bool) if rows is None else rows
        if kind == "kernel":
            grid = [(slice(j * n, (j + 1) * n), Ys + free[j]) for j in range(k)]
            for x0, ys in grid or [(slice(None), Ys)]:
                (got,) = whole.reader()(x0)
                assert pieced.reader()(x0)[0].tobytes() == got.tobytes()
                np.testing.assert_allclose(got, reference(P, ys)[:, read], rtol=1e-12, atol=1e-12)
            return
        assert [a.tobytes() for a in pieced.preds] == [a.tobytes() for a in whole.preds]
        want = [reference(make(), Ys)] + ([reference(make(), free)] if k else [])
        for got, full in zip(whole.preds, want):
            assert got.tobytes() == full[:, read].tobytes()
        assert pieced.fixed_from == whole.fixed_from
        assert Q.regularized_steps == P.regularized_steps == 0
