import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    InitPolicy,
    IntegrationBlowup,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    SeededRng,
    initial_states,
    simulate_ensemble,
    spectral_radius,
    stationary_observation_power,
    stationary_state_covariance,
    write_trajectory_csv,
)
from conftest import lds_reference
from dynolearn import systems
from dynolearn.systems import (
    LORENZ_COORDS,
    lds_free_responses,
    random_symmetric_psd,
    random_unit_row,
)


def _one_run(spec, horizon, x0, seed, record_states=False):
    """One trajectory of `simulate_ensemble`: ys, or (ys, xs) when recording."""
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    x0 = np.asarray(x0, dtype=float)
    run = simulate_ensemble(spec, horizon, x0, [rng], record_states=record_states)
    return (run[0][0], run[1][0]) if record_states else run[0]


class TestLdsSimulation:
    def test_noiseless_geometric_decay(self, noiseless_scalar_spec):
        ys = _one_run(noiseless_scalar_spec, 30, [1.0], 0)
        np.testing.assert_array_equal(ys[:, 0], 0.5 ** np.arange(30))

    def test_white_noise_variance(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.0, stdev_obs=0.3),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        var = _one_run(spec, 10**5, [0.0], 11).var()
        assert abs(var - 0.09) < 0.05 * 0.09

    def test_state_covariance_matches_lyapunov_fixed_point(self):
        A = np.diag([0.9, 0.5])
        spec = LdsSpec(
            A=A,
            C=np.eye(2),
            noise=NoiseSpec(stdev_process=1.0, stdev_obs=0.0),
            init=InitPolicy(kind="fixed", x0=(0.0, 0.0)),
        )
        _, xs = _one_run(spec, 10**5, [0.0, 0.0], 2, record_states=True)
        emp = xs.T @ xs / xs.shape[0]
        # independent oracle: iterate Sigma <- A Sigma A^T + Q to convergence
        sigma = np.zeros((2, 2))
        for _ in range(2000):
            sigma = A @ sigma @ A.T + np.eye(2)
        np.testing.assert_allclose(emp, sigma, rtol=0.05, atol=0.02)
        np.testing.assert_allclose(stationary_state_covariance(spec), sigma, rtol=1e-9)

    def test_noiseless_recursion_exact(self, noiseless_scalar_spec):
        spec = LdsSpec(
            A=[[0.6, 0.2], [0.2, 0.3]],
            C=[[1.0, 0.0]],
            noise=NoiseSpec(),
            init=InitPolicy(kind="fixed", x0=(1.0, -1.0)),
        )
        ys, xs = _one_run(spec, 200, [1.0, -1.0], 0, record_states=True)
        # observation t reads state t, before it moves; C picks its first coordinate
        assert np.array_equal(xs[0], [1.0, -1.0])
        assert np.array_equal(ys[:, 0], xs[:, 0])
        # the ensemble steps row vectors, x' = x A^T, against a contiguous A^T
        At = np.ascontiguousarray(spec.A.T)
        for t in range(199):
            assert np.array_equal(xs[t + 1], xs[t] @ At)

    def test_replay_bit_identical(self, scalar_spec):
        a = _one_run(scalar_spec, 500, [1.0], 123)
        b = _one_run(scalar_spec, 500, [1.0], 123)
        assert np.array_equal(a, b)

    def test_ensemble_matches_single(self, scalar_spec):
        rngs = [SeededRng(9).child(i) for i in range(4)]
        Ys = simulate_ensemble(scalar_spec, 300, np.array([1.0]), rngs)
        for i, rng in enumerate([SeededRng(9).child(i) for i in range(4)]):
            ys, _ = lds_reference(scalar_spec, 300, [1.0], rng)
            np.testing.assert_allclose(Ys[i], ys, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch_rejected(self, scalar_spec):
        with pytest.raises(ContractViolation):
            simulate_ensemble(scalar_spec, 10, [1.0, 2.0], [SeededRng(0)])

    @pytest.mark.parametrize("x0, c", [(1e308, 1.0), (-1e308, 1.0), (1e308, 0.0)])
    def test_blowup_names_first_non_finite_step(self, x0, c):
        # x_2 = 2 x0 overflows, so y_2 = c x_2 is +inf, -inf or nan (0 * inf) while
        # y_1 is finite, from the run or from the free response
        spec = LdsSpec(A=[[2.0]], C=[[c]], noise=NoiseSpec(), symmetric_flag=False)
        with pytest.raises(IntegrationBlowup, match="non-finite observation at step 2$"):
            simulate_ensemble(spec, 5, [x0], [SeededRng(0)] * 2)
        with pytest.raises(IntegrationBlowup, match="at step 2$"):
            lds_free_responses(spec, 5, [[1.0], [x0]])
        noise = NoiseSpec(stdev_process=0.1)
        noisy = LdsSpec(A=[[1.5]], C=[[1.0]], noise=noise, symmetric_flag=False)
        with pytest.raises(IntegrationBlowup, match="step"):
            simulate_ensemble(noisy, 2000, [0.0], [SeededRng(1).child(i) for i in range(3)])

    def test_stationary_observation_power_scalar(self, scalar_spec):
        expected = 0.1**2 / (1 - 0.9**2) + 0.1**2
        assert abs(stationary_observation_power(scalar_spec) - expected) < 1e-12


class TestEnsembleNoise:
    @pytest.mark.parametrize("kind", ["lds", "lorenz", "noiseless"])
    def test_rows_drawn_in_place_equal_per_row_normals(self, kind):
        # at every worker count, row i of the ensemble is the textbook run on
        # mean + stdev * z drawn from that row's own stream (w before v).  With
        # A = 0 each LDS state is the previous step's w exactly, so the
        # comparison is bitwise; Lorenz observes its bitwise recursion plus v.
        n, H = 5, 33
        if kind == "lorenz":
            system, x0 = LorenzSpec(obs_coords=("x", "z"), obs_noise=0.3), [1.0, -2.0, 20.0]
        else:
            noise = NoiseSpec() if kind == "noiseless" else NoiseSpec(0.2, 0.05)
            system, x0 = LdsSpec(A=np.zeros((2, 2)), C=[[1.0, 0.0]], noise=noise), [1.0, -0.5]
        expected = []
        for i in range(n):
            rng = SeededRng(8).child(0, i)
            if kind == "lorenz":
                states = LorenzSpec(obs_coords=("x", "z"))  # the same run, observed without noise
                v = 0.0 + 0.3 * rng.generator.standard_normal((H, 2))
                expected.append(simulate_ensemble(states, H, x0, [SeededRng(0)])[0] + v)
            else:
                expected.append(np.concatenate(lds_reference(system, H, x0, rng), axis=1))
        for n_workers in (1, 2, 3):
            rngs = [SeededRng(8).child(0, i) for i in range(n)]
            run = simulate_ensemble(system, H, x0, rngs, n_workers=n_workers, record_states=True)
            got = run[0] if kind == "lorenz" else np.concatenate(run, axis=2)
            for i in range(n):
                assert got[i].tobytes() == expected[i].tobytes()

    def test_noiseless_lds_draws_nothing(self, monkeypatch):
        calls = []
        normals = SeededRng.normals

        def counted(self, *args, **kwargs):
            calls.append(args)
            return normals(self, *args, **kwargs)

        monkeypatch.setattr(SeededRng, "normals", counted)
        rngs = [SeededRng(0).child(i) for i in range(3)]
        Ys = simulate_ensemble(LdsSpec(A=[[0.5]], C=[[1.0]], noise=NoiseSpec()), 10, [1.0], rngs)
        assert calls == []
        assert Ys.tobytes() == np.tile(0.5 ** np.arange(10), 3).tobytes()
        noisy = LdsSpec(A=[[0.5]], C=[[1.0]], noise=NoiseSpec(stdev_obs=0.1))
        simulate_ensemble(noisy, 10, [1.0], rngs[:1])
        assert len(calls) == 2  # one stdev above 0: w and v are both drawn

    # the systems of the chunked-noise check: each transition is diagonal, so
    # the ensemble recursion rounds as the textbook loop does, bit for bit
    CHUNK_SYSTEMS = {
        "noisy": dict(A=np.diag([0.9, -0.5]), noise=NoiseSpec(0.2, 0.05)),
        "obs-only": dict(A=np.diag([0.9, -0.5]), noise=NoiseSpec(0.0, 0.3)),
        "noiseless": dict(A=np.diag([0.9, -0.5]), noise=NoiseSpec()),
        "closed-loop": dict(
            A=np.diag([1.4, 0.5]),
            B=[[1.0], [0.0]],
            K=[[-0.5, 0.0]],
            noise=NoiseSpec(0.2, 0.05),
            symmetric_flag=False,
        ),
    }

    @pytest.mark.parametrize("kind", list(CHUNK_SYSTEMS))
    def test_rows_equal_reference_across_noise_chunks(self, kind, monkeypatch):
        # 7-step chunks of w: H = 33 spans five of them, the last of 5 steps,
        # and 14-step chunks of v (the same values per chunk, p = d / 2):
        # three, the last of 5 steps.  Each row reads its stream as w chunk by
        # chunk, then v chunk by chunk, as the reference draws w (H, d) and
        # then v (H, p) whole
        n, H, x0 = 5, 33, [1.0, -0.5]
        system = LdsSpec(C=[[1.0, 0.0]], **self.CHUNK_SYSTEMS[kind])
        monkeypatch.setattr(systems, "_NOISE_VALUES", 7 * n * system.d)
        calls = []
        normals = SeededRng.normals

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return normals(self, *args, **kwargs)

        monkeypatch.setattr(SeededRng, "normals", counted)
        expected = [lds_reference(system, H, x0, SeededRng(8).child(0, i)) for i in range(n)]
        for n_workers in (1, 2, 3):
            calls.clear()
            rngs = [SeededRng(8).child(0, i) for i in range(n)]
            Ys, Xs = simulate_ensemble(
                system, H, x0, rngs, n_workers=n_workers, record_states=True
            )
            for i, (ys, xs) in enumerate(expected):
                assert Ys[i].tobytes() == ys.tobytes()
                assert Xs[i].tobytes() == xs.tobytes()
            if not system.is_noiseless:  # five w chunks and three v chunks per row
                w_chunks = 4 * n * [(7, 2)] + n * [(5, 2)]
                assert sorted(calls) == sorted(w_chunks + 2 * n * [(14, 1)] + n * [(5, 1)])

    def test_blowup_in_a_later_noise_chunk_names_its_step(self, monkeypatch):
        # x_t = 2^(t - 21) 1e308 first overflows at step 22, in the fourth 7-step chunk
        n = 3
        monkeypatch.setattr(systems, "_NOISE_VALUES", 7 * n)
        spec = LdsSpec(A=[[2.0]], C=[[1.0]], noise=NoiseSpec(0.1, 0.1), symmetric_flag=False)
        for n_workers in (1, 2):
            rngs = [SeededRng(1).child(i) for i in range(n)]
            with pytest.raises(IntegrationBlowup, match="observation at step 22$"):
                simulate_ensemble(spec, 33, [1e308 / 2**20], rngs, n_workers=n_workers)

    def test_memory_flat_in_horizon(self):
        # d50's shape with fewer rows: the (n, H, p) observations grow with H,
        # the noise alive (a chunk of w, then one of v) must not
        import tracemalloc

        d, n = 50, 20
        spec = LdsSpec(
            A=random_symmetric_psd(d, 0.0, 0.95, SeededRng(0)),
            C=random_unit_row(d, SeededRng(1)),
            noise=NoiseSpec(0.1, 0.1),
        )
        above = []
        for H in (1100, 4400):
            rngs = [SeededRng(2).child(i) for i in range(n)]
            tracemalloc.start()
            try:
                Ys = simulate_ensemble(spec, H, np.zeros(d), rngs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above.append((peak - Ys.nbytes) / 2**20)
        assert abs(above[1] - above[0]) < 2.0, above


class TestFreeResponses:
    def test_equal_noiseless_simulation_and_validate_shape(self):
        spec = LdsSpec(A=[[0.5, 0.2], [0.2, -0.4]], C=[[1.0, -2.0]], noise=NoiseSpec())
        states = np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 2.0]])
        free = lds_free_responses(spec, 12, states)
        assert free.shape == (3, 12, 1)
        for j, x0 in enumerate(states):
            direct, _ = lds_reference(spec, 12, x0, 0)
            np.testing.assert_allclose(free[j], direct, rtol=1e-14, atol=1e-15)
        for bad in ([[1.0, 0.0], [1.0, 0.0, 0.0]], [[np.nan, 0.0]], []):
            with pytest.raises(ContractViolation):
                lds_free_responses(spec, 12, bad)


class TestClosedLoop:
    def _spec(self, a=1.4, b=1.0, k=-0.5, noise=None):
        return LdsSpec(
            A=[[a]],
            C=[[1.0]],
            noise=noise or NoiseSpec(),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
            B=[[b]],
            K=[[k]],
            symmetric_flag=False,
        )

    def test_zero_control_matrix_reproduces_open_loop(self):
        noise = NoiseSpec(stdev_process=0.2, stdev_obs=0.1)
        open_spec = LdsSpec(
            A=[[0.8]], C=[[1.0]], noise=noise, init=InitPolicy(kind="fixed", x0=(1.0,))
        )
        closed_spec = LdsSpec(
            A=[[0.8]],
            C=[[1.0]],
            noise=noise,
            init=InitPolicy(kind="fixed", x0=(1.0,)),
            B=[[0.0]],
            K=[[-0.5]],
        )
        a = _one_run(open_spec, 400, [1.0], 77)
        b = _one_run(closed_spec, 400, [1.0], 77)
        assert np.array_equal(a, b)  # bit identical

    def test_scalar_pole_placement(self):
        ys = _one_run(self._spec(a=1.2, b=1.0, k=-0.5), 20, [1.0], 0)
        np.testing.assert_allclose(ys[:, 0], 0.7 ** np.arange(20), rtol=1e-12)

    def test_control_inputs_recorded(self):
        # the input u = K x enters through B: x' - A x = B K x
        _, xs = _one_run(self._spec(), 10, [1.0], 0, record_states=True)
        xs = xs[:, 0]
        np.testing.assert_allclose(xs[1:] - 1.4 * xs[:-1], 1.0 * (-0.5 * xs[:-1]), rtol=1e-12)

    def test_unstable_loop_rejected_at_construction(self):
        with pytest.raises(ContractViolation, match="unstable"):
            self._spec(a=1.2, b=1.0, k=-0.1)

    def test_bounded_trajectories_with_noise(self):
        g = np.random.default_rng(4)
        A = g.standard_normal((3, 3)) * 0.4
        B = g.standard_normal((3, 1))
        K = -0.2 * B.T  # keeps the loop stable for this draw
        spec = LdsSpec(
            A=A,
            C=np.eye(3)[:1],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.0),
            init=InitPolicy(kind="fixed", x0=(0.0, 0.0, 0.0)),
            B=B,
            K=K,
            symmetric_flag=False,
        )
        rho = spectral_radius(spec.effective_transition())
        assert rho < 1
        _, xs = _one_run(spec, 10**5, np.zeros(3), 5, record_states=True)
        max_norm = np.linalg.norm(xs, axis=1).max()
        assert np.isfinite(max_norm)
        assert max_norm < 10 * 0.1 * np.sqrt(3) / (1 - rho)


def _reference_rk4(x0, dt, steps, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    """Small standalone integrator used as the step-halving oracle."""

    def f(s):
        x, y, z = s
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    out = np.empty((steps, 3))
    s = np.asarray(x0, dtype=float)
    for t in range(steps):
        out[t] = s
        k1 = f(s)
        k2 = f(s + 0.5 * dt * k1)
        k3 = f(s + 0.5 * dt * k2)
        k4 = f(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


class TestLorenz:
    def test_origin_is_equilibrium(self):
        spec = LorenzSpec(init=InitPolicy(kind="fixed", x0=(0.0, 0.0, 0.0)))
        ys = _one_run(spec, 100, [0.0, 0.0, 0.0], 0)
        assert np.array_equal(ys, np.zeros((100, 1)))

    def test_matches_finer_reference_integration(self):
        spec = LorenzSpec(dt=0.01, obs_coords=("x", "y", "z"))
        steps = 1000  # ten time units
        _, xs = _one_run(spec, steps, [1.0] * 3, 0, record_states=True)
        # reference at dt/10, subsampled to the coarse grid
        ref = _reference_rk4([1.0, 1.0, 1.0], 0.001, 10 * steps)[::10]
        err = np.abs(xs - ref).max(axis=1)
        # before chaos amplifies the dt^4 truncation gap the agreement is tight;
        # by ten time units the deviation has grown to ~1.8e-3 (verified against
        # an adaptive high-order integrator, which the fine run matches to 1e-7)
        assert err[:500].max() <= 1e-3
        assert err.max() <= 2e-3

    @pytest.mark.parametrize("dt", [0.001, 0.01, 0.05])
    def test_states_equal_textbook_step(self, dt):
        # the in-place stepper keeps the textbook operations in their order
        spec, x0 = LorenzSpec(dt=dt), [1.0, -2.0, 20.0]
        _, xs = _one_run(spec, 500, x0, 0, record_states=True)
        assert np.array_equal(xs, _reference_rk4(x0, dt, 500))

    @pytest.mark.parametrize("dt", [0.001, 0.01, 0.05])
    def test_stacked_states_equal_textbook_step(self, dt):
        # every trajectory of a (3, 2, 3) stack of distinct states steps as the textbook run alone
        g = np.random.default_rng(11)
        X0 = np.column_stack([g.uniform(-15, 15, 6), g.uniform(-20, 20, 6), g.uniform(5, 40, 6)])
        s = X0.T.reshape(3, 2, 3).copy()
        Xs = np.empty((300, 3, 2, 3))
        for t0, X in systems._lorenz_steps(LorenzSpec(dt=dt), s, 300):
            Xs[t0 : t0 + len(X)] = X
        for i, x0 in enumerate(X0):
            assert np.array_equal(Xs.reshape(300, 3, 6)[:, :, i], _reference_rk4(x0, dt, 300))

    def test_sensitive_dependence(self):
        spec = LorenzSpec(dt=0.01)
        steps = 2500  # 25 time units
        xs = [
            _one_run(spec, steps, x0, 0, record_states=True)[1]
            for x0 in ([1.0, 1.0, 1.0], [1.0 + 1e-8, 1.0, 1.0])
        ]
        sep = np.linalg.norm(xs[0] - xs[1], axis=1)
        assert sep[0] <= 2e-8
        assert sep.max() > 1e-2

    def test_observation_subset_and_noise(self):
        spec = LorenzSpec(obs_coords=("x", "z"), obs_noise=0.5)
        ys, xs = _one_run(spec, 50, [1.0] * 3, 3, record_states=True)
        assert ys.shape == (50, 2)
        clean = xs[:, [0, 2]]
        assert not np.array_equal(ys, clean)
        assert np.abs(ys - clean).max() < 5.0  # noise scale, not dynamics

    def test_blowup_reports_step(self):
        spec = LorenzSpec(dt=0.05)
        with pytest.raises(IntegrationBlowup, match="step"):
            _one_run(spec, 1000, [1e8, 1e8, 1e8], 0)

    def test_ensemble_matches_single(self):
        spec = LorenzSpec(obs_noise=0.1)
        rngs = [SeededRng(2).child(i) for i in range(3)]
        Ys = simulate_ensemble(spec, 200, np.array([1.0, 1.0, 1.0]), rngs)
        for i, rng in enumerate([SeededRng(2).child(i) for i in range(3)]):
            single = _one_run(spec, 200, [1.0, 1.0, 1.0], rng)
            assert np.array_equal(Ys[i], single)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 5),
        n=st.integers(1, 8),
        horizon=st.integers(1, 30),
        dt=st.floats(0.001, 0.05),
        coords=st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True),
        obs_noise=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_grid_matches_per_x0_and_single(
        self, k, n, horizon, dt, coords, obs_noise, seed, data
    ):
        spec = LorenzSpec(dt=dt, obs_coords=tuple(coords), obs_noise=obs_noise)
        g = np.random.default_rng(seed)
        X0 = np.column_stack([g.uniform(-20, 20, k), g.uniform(-25, 25, k), g.uniform(0, 45, k)])
        order = data.draw(st.permutations(range(k)))

        def rngs():
            return [SeededRng(seed).child(i) for i in range(n)]

        stacked, starts, ends = np.full((k, n, horizon, spec.p), np.nan), [], [0]
        for t0, Y, _ in systems._lorenz_observations(spec, horizon, X0[order], rngs(), 1):
            starts.append(t0)
            ends.append(t0 + Y.shape[2])
            stacked[:, :, t0 : t0 + Y.shape[2]] = Y
        assert starts == ends[:-1] and ends[-1] == horizon  # the blocks tile [0, horizon)
        for row, i in enumerate(order):
            per_x0 = simulate_ensemble(spec, horizon, X0[i], rngs())
            assert np.array_equal(stacked[row], per_x0)
            for j, rng in enumerate(rngs()):
                single = _one_run(spec, horizon, X0[i], rng)
                assert np.array_equal(per_x0[j], single)

    def test_grid_rejects_bad_x0_shape(self):
        rngs = [SeededRng(0).child(0)]
        bad = (np.ones(2), np.ones((2, 3)), np.ones((2, 4)), np.ones((1, 2, 3)), np.empty((0, 3)))
        for x0 in bad:  # a (k, 3) stack too: one simulation starts from one state
            with pytest.raises(ContractViolation, match="x0"):
                simulate_ensemble(LorenzSpec(), 5, x0, rngs)
        with pytest.raises(ContractViolation, match="non-finite"):
            simulate_ensemble(LorenzSpec(), 5, [1.0, np.nan, 0.0], rngs)

    @pytest.mark.parametrize(
        "system, x0",
        [(LorenzSpec(obs_coords=("x", "z")), [1.0] * 3), (LdsSpec([[0.5]], [[1.0]]), [1.0])],
        ids=["lorenz", "lds"],
    )
    def test_empty_ensemble(self, system, x0):
        Ys, Xs = simulate_ensemble(system, 10, x0, [], record_states=True)
        assert Ys.shape == (0, 10, system.p) and Xs.shape == (0, 10, system.d)

    @pytest.mark.parametrize("k, coords", [(1, ("x", "z")), (2, ("x", "y", "z")), (3, ("y",))])
    def test_noise_drawn_once_per_block(self, k, coords, monkeypatch):
        # 7-step blocks: H = 33 is four of them and one of 5.  Each block's
        # noise is one draw over that block's rows, and the pieces give
        # every stream's whole (H, p) draw
        n, H = 3, 33
        spec = LorenzSpec(obs_coords=coords, obs_noise=0.4)
        monkeypatch.setattr(systems, "_RECORD_VALUES", 7 * 3 * k * n)
        draws, draw = [], systems._draw_noise

        def counted(rngs, shape, *args, **kwargs):
            draws.append(shape)
            return draw(rngs, shape, *args, **kwargs)

        monkeypatch.setattr(systems, "_draw_noise", counted)
        X0 = np.linspace([1.0, 1.0, 1.0], [3.0, -2.0, 20.0], k)
        rngs = [SeededRng(4).child(i) for i in range(n)]
        blocks = []
        for t0, Y, X in systems._lorenz_observations(spec, H, X0, rngs, 2):
            blocks.append((t0, Y.copy(), X[:, [LORENZ_COORDS[c] for c in coords]].copy()))
            # one draw per block so far, the last one this block's, as it is made
            assert draws == [(len(X), spec.p) for _, _, X in blocks]
        assert [(t0, len(X)) for t0, _, X in blocks] == [(0, 7), (7, 7), (14, 7), (21, 7), (28, 5)]
        fresh = [SeededRng(4).child(i) for i in range(n)]
        noise = np.stack([rng.normals((H, spec.p), 0.0, 0.4) for rng in fresh])
        for t0, Y, X in blocks:
            want = X.transpose(2, 3, 0, 1) + noise[:, t0 : t0 + len(X)]
            assert Y.tobytes() == want.tobytes()

    def test_blocks_leave_the_error_state_alone(self):
        # numpy's error state is a context variable: silenced across a yield,
        # it would silence the consumer's code too
        before = np.geterr()
        blocks = systems._lorenz_steps(LorenzSpec(), np.ones((3, 2)), 10)
        next(blocks)
        assert np.geterr() == before
        blocks.close()

    def test_invariants(self):
        with pytest.raises(ContractViolation):
            LorenzSpec(dt=0.1)
        with pytest.raises(ContractViolation):
            LorenzSpec(obs_coords=())
        with pytest.raises(ContractViolation):
            LorenzSpec(obs_coords=("w",))
        for bad in (np.nan, np.inf, -0.1):
            with pytest.raises(ContractViolation, match="obs_noise"):
                LorenzSpec(obs_noise=bad)


def _first_bad_step(spec, s, horizon):
    """The step that first leaves a non-finite value in the (3, ...) state s,
    checking after every step: the reference for the once-per-block check."""
    rk4, row = systems._Rk4(spec, s), np.empty((1,) + s.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            rk4.run(row)  # a one-row block: one step
            if not np.isfinite(s).all():
                return t + 1
    return None


class TestLorenzBlowupBlocks:
    """The RK4 loop checks finiteness once per recorded block and still names
    the step that a check after every step would name."""

    @pytest.mark.parametrize(
        "where, block", [("first", 3), ("middle", 4), ("last", 7), ("alone", 1)]
    )
    def test_names_the_per_step_reference_step(self, where, block, monkeypatch):
        spec = LorenzSpec(dt=0.05)
        x0 = np.array([[1.0, 1.0, 1.0], [60.0, 60.0, 60.0], [2.0, 1.0, 1.0]])
        state = np.repeat(x0.T[:, :, None], 2, axis=2)  # (3, x0, traj), as the ensemble stacks it
        step = _first_bad_step(spec, state.copy(), 50)
        assert step == 7  # the x0 at 60 diverges; the other two stay finite
        t0 = (step - 1) // block * block  # the block holding the step covers t0 + 1 .. t0 + block
        position = {"first": step == t0 + 1, "middle": t0 + 1 < step < t0 + block}
        position.update(last=step == t0 + block, alone=block == 1)
        assert position[where]
        monkeypatch.setattr(systems, "_RECORD_VALUES", block * state.size)
        recorded = []
        with pytest.raises(IntegrationBlowup, match=f"non-finite state at step {step}$"):
            for start, X in systems._lorenz_steps(spec, state, 50):
                recorded.append((start, len(X), bool(np.isfinite(X).all())))
        # every block before the bad one, and nothing of it
        assert recorded == [(start, block, True) for start in range(0, t0, block)]

    def test_stationary_burn_in_returns_no_state_after_a_blowup(self, monkeypatch):
        spec = LorenzSpec(
            dt=0.05, sigma=100.0, rho=100.0, init=InitPolicy(kind="stationary", points=2)
        )
        step = _first_bad_step(spec, np.ones((3, 1)), 300)
        assert step == 5
        monkeypatch.setattr(systems, "_RECORD_VALUES", 3 * 3)  # blocks of 3 steps: 4..6 is bad
        with pytest.raises(IntegrationBlowup, match=f"at step {step}$"):
            initial_states(spec)


def _power_iteration_psd(M, iters=5000):
    v = np.full(M.shape[0], 1.0 / np.sqrt(M.shape[0]))
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        lam = np.linalg.norm(w)
        v = w / lam
    return lam


class TestMatrixNorms:
    """The symmetric-flag check of `LdsSpec`, ||A||_2 > 1 + 1e-10, at its
    boundary: each matrix scaled to a norm 5e-11 above 1 is accepted, and
    scaled to 2e-10 above 1 is rejected."""

    @staticmethod
    def check_boundary(M, norm):
        C = np.eye(1, M.shape[0])
        LdsSpec(A=M * ((1 + 5e-11) / norm), C=C)
        with pytest.raises(ContractViolation, match=r"\|\|A\|\|_2 = 1\.000000 > 1"):
            LdsSpec(A=M * ((1 + 2e-10) / norm), C=C)

    def test_identity(self):
        self.check_boundary(np.eye(4), 1.0)

    def test_diagonal(self):
        self.check_boundary(np.diag([0.3, -0.9]), 0.9)

    def test_matches_power_iteration(self):
        g = np.random.default_rng(8)
        A = g.standard_normal((8, 8))
        M = 0.5 * (A + A.T)
        # power iteration on M^T M gives the squared top singular value
        self.check_boundary(M, np.sqrt(_power_iteration_psd(M.T @ M)))

    def test_general_radius(self):
        M = np.array([[0.0, 1.0], [-0.25, 0.0]])  # complex pair, |lambda| = 0.5
        assert spectral_radius(M) == pytest.approx(0.5, abs=1e-12)


class TestSpecValidation:
    def test_symmetric_flag_rejects_asymmetric(self):
        with pytest.raises(ContractViolation, match="symmetric"):
            LdsSpec(A=[[0.5, 0.2], [0.0, 0.5]], C=[[1.0, 0.0]])

    def test_symmetric_flag_rejects_large_norm(self):
        with pytest.raises(ContractViolation, match=r"\|\|A\|\|"):
            LdsSpec(A=[[1.2]], C=[[1.0]])

    def test_asymmetric_allowed_without_flag(self):
        spec = LdsSpec(A=[[0.5, 0.2], [0.0, 0.5]], C=[[1.0, 0.0]], symmetric_flag=False)
        assert spec.d == 2

    def test_control_matrices_must_come_together(self):
        with pytest.raises(ContractViolation):
            LdsSpec(A=[[0.5]], C=[[1.0]], B=[[1.0]])


class TestInitPolicies:
    def test_fixed(self):
        pol = InitPolicy(kind="fixed", x0=(1.0, 2.0))
        states = pol.states(2)
        assert len(states) == 1
        np.testing.assert_array_equal(states[0], [1.0, 2.0])

    def test_ball_grid_one_dimensional(self):
        pol = InitPolicy(kind="ball_grid", radius=2.0, points=8)
        states = pol.states(1)
        np.testing.assert_array_equal(np.array(states).ravel(), [2.0, -2.0])

    def test_ball_grid_deterministic_unit_directions(self):
        pol = InitPolicy(kind="ball_grid", radius=3.0, points=8)
        a = pol.states(4)
        b = InitPolicy(kind="ball_grid", radius=3.0, points=8).states(4)
        for s, t in zip(a, b):
            assert np.array_equal(s, t)
            assert np.linalg.norm(s) == pytest.approx(3.0, rel=1e-12)
        assert len(a) == 8

    def test_stationary_states_scale(self, scalar_spec):
        pol = InitPolicy(kind="stationary", points=4000)
        states = np.array(pol.states(1, scalar_spec)).ravel()
        target = 0.1**2 / (1 - 0.81)
        assert abs(states.var() - target) < 0.15 * target

    def test_initial_states_dedupes(self, scalar_spec):
        states = initial_states(scalar_spec)  # 1-d ball grid collapses to +/- radius
        assert len(states) == 2

    def test_stationary_needs_system(self):
        with pytest.raises(ContractViolation):
            InitPolicy(kind="stationary").states(2, None)


class TestTrajectoryCsv:
    def test_format_and_round_trip(self, tmp_path, noiseless_scalar_spec):
        ys, xs = _one_run(noiseless_scalar_spec, 12, [1.0], 0, True)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(ys, path, xs)
        text = path.read_text().splitlines()
        assert text[0] == "t,y_0,x_0"
        assert text[1] == "1,1,1"  # y_1 = x_1 = x0
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], np.arange(1, 13))
        np.testing.assert_array_equal(data[:, 1], ys[:, 0])  # 17g round-trips exactly
        np.testing.assert_array_equal(data[:, 2], xs[:, 0])
        # without states: observation columns only, 17 significant digits
        write_trajectory_csv(np.array([[0.1, -2.5], [1e-300, 3.0]]), path)
        assert path.read_text() == "t,y_0,y_1\n1,0.10000000000000001,-2.5\n2,1e-300,3\n"

    def test_byte_identical_across_runs(self, tmp_path, scalar_spec):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(_one_run(scalar_spec, 100, [1.0], 5), p1)
        write_trajectory_csv(_one_run(scalar_spec, 100, [1.0], 5), p2)
        assert p1.read_bytes() == p2.read_bytes()
