import os
from pathlib import Path

import numpy as np
import pytest

import dataclasses

from dynolearn import (
    InitPolicy,
    KalmanPredictor,
    LdsSpec,
    NoiseSpec,
    SeededRng,
    TruthOracle,
    initial_states,
    simulate_ensemble,
)
from dynolearn.systems import lds_free_responses
from dynolearn import learnability
from dynolearn.errors import ContractViolation, SingularSystem
from dynolearn.numerics import solve_normal_system
from dynolearn.predictors import _Arms, _effective_ridge
from dynolearn.spectral import _feature_blocks

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def cli_env(extra=None):
    """Environment for a `python -m dynolearn` child started in another cwd.

    The absolute src path goes first on PYTHONPATH: a relative entry such as
    `src` would resolve against the child's cwd and miss the package.
    """
    env = dict(os.environ)
    env.update(extra or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_whole(predictor, Ys):
    """`predictor`'s predictions of every row of the ensemble Ys (n, H, p),
    pushed to its stream whole with no row mask, so every refit is solved,
    the final one included; and its first arm's readouts (n, q, p) after its
    last refit, or None for a stream without arms (Kalman).  A
    `TruthOracle`, which has no stream, predicts a copy of Ys."""
    Ys = np.asarray(Ys, dtype=float)
    if isinstance(predictor, TruthOracle):
        return Ys.copy(), None
    stream = predictor.stream(Ys.shape)
    stream.push(Ys)
    ridges = getattr(stream, "ridges", None)
    return stream.reader()(slice(None))[0], ridges[0].w if ridges else None


@pytest.fixture
def scalar_spec():
    """The canonical noisy scalar system a=0.9, c=1, sigma_w=sigma_v=0.1."""
    return LdsSpec(
        A=[[0.9]],
        C=[[1.0]],
        noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=InitPolicy(kind="ball_grid", radius=1.0, points=8),
    )


@pytest.fixture
def noiseless_scalar_spec():
    return LdsSpec(
        A=[[0.5]],
        C=[[1.0]],
        noise=NoiseSpec(),
        init=InitPolicy(kind="fixed", x0=(1.0,)),
    )


def lds_reference(spec, horizon, x0, seed):
    """One LDS trajectory by the textbook loop, y = C x + v; x = A x + w, with
    A + B K for a closed loop; returns (ys (H, p), xs (H, d)).

    The noise comes from `seed` (an int or a `SeededRng`), w (H, d) before
    v (H, p): a stream gives the noise of the ensemble row it drives.  It is
    the reference that the ensemble recursion is checked against.
    """
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    A, C = spec.effective_transition(), spec.C
    w, v = np.zeros((horizon, spec.d)), np.zeros((horizon, spec.p))
    if not spec.is_noiseless:
        w = rng.normals(w.shape, 0.0, spec.noise.stdev_process)
        v = rng.normals(v.shape, 0.0, spec.noise.stdev_obs)
    ys, xs = np.empty((horizon, spec.p)), np.empty((horizon, spec.d))
    x = np.asarray(x0, dtype=float)
    for t in range(horizon):
        xs[t] = x
        ys[t] = C @ x + v[t]
        x = A @ x + w[t]
    return ys, xs


def kalman_steps(kal, horizon):
    """Each step's filter matrices F (H, d, d) and G (H, d, p): the gains of
    `kal`'s covariance recursion, stepped by `_covariance_update` from P0
    with no stop at a fixed point, each step's (F, G) as it returns them."""
    P, steps = kal.P0, []
    for _ in range(horizon):
        step, P = kal._covariance_update(P)
        steps.append(step)
    return np.stack([F for F, _ in steps]), np.stack([G for _, G in steps])


def kalman_reference(kal, Ys):
    """The Kalman predictions of (n, H, p) observations: the filter loop
    with each step's own (F, G) of `kalman_steps`."""
    n, H, _ = Ys.shape
    F, G = kalman_steps(kal, H)
    X, preds = np.zeros((n, kal.d)), np.empty(Ys.shape)
    for t in range(H):
        preds[:, t] = X @ kal.C.T
        X = X @ F[t].T + Ys[:, t] @ G[t].T
    return preds


def kernel_reference(oracle, Ys):
    """The kernel predictions of (n, H, p) observations: the taps added
    over the whole array one at a time, in ascending order."""
    H = Ys.shape[1]
    preds = np.zeros(Ys.shape)
    for k, beta in zip(range(1, H), oracle.betas):
        preds[:, k:] += Ys[:, : H - k] @ beta.T
    return preds


def kalman_covariances(kal, horizon):
    """The predictive covariances (H, d, d) of `kal`'s recursion, P_t before
    y_t is absorbed, stepped by `_covariance_update` from P0."""
    Ps, P = np.empty((horizon, kal.d, kal.d)), kal.P0
    for t in range(horizon):
        Ps[t] = P
        _, P = kal._covariance_update(P)
    return Ps


# The per-step learner, written from the ridge formula in the `predictors`
# docstring.  It shares no code with the blocked engine: it is the oracle that
# `test_blocked_run_matches_per_step` checks that engine against.


def window_features(bank, history):
    """Spectral features of a newest-first (t, p) history: each coordinate's
    last `window` observations, zero padded, against the filters, coordinate-major."""
    win = np.zeros((bank.window, history.shape[1]))
    take = min(len(history), bank.window)
    win[:take] = history[:take]
    return (bank.filter_matrix().T @ win).T.ravel()


class StepRidge:
    """One trajectory's streaming ridge, one step at a time, for a
    `SpectralPredictor` (AR(k) included: the identity bank's window features
    are the last k observations): predict w^T z, absorb (z, y), and every
    `refit_period` steps solve
    (Gram_t + ridge(t) I) w = moment_t, ridge(t) = reg * trace(Gram_t) / (q * t^(3/4))."""

    def __init__(self, pred):
        p, q = pred.obs_dim, pred.bank.feature_count * pred.obs_dim
        self.featurize = lambda h: window_features(pred.bank, h)
        self.reg, self.refit_period = pred.reg, pred.refit_period
        self.gram, self.moment, self.w = np.zeros((q, q)), np.zeros((q, p)), np.zeros((q, p))
        self.steps = 0

    def step(self, history, y):
        """The prediction of y from the newest-first history; then absorb y."""
        z = self.featurize(history)
        yhat = self.w.T @ z
        self.gram += np.outer(z, z)
        self.moment += np.outer(z, y)
        self.steps += 1
        trace = np.trace(self.gram)
        if self.steps % self.refit_period == 0 and trace > 0.0:
            ridge = self.reg * trace / (z.size * self.steps**0.75)
            self.w = np.linalg.solve(self.gram + ridge * np.eye(z.size), self.moment)
        return yhat


def stream_predictions(pred, ys):
    """Per-step predictions of `pred`'s learner on one (H,) or (H, p) trajectory."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    ref = StepRidge(pred)
    return np.stack([ref.step(ys[:t][::-1], ys[t]) for t in range(len(ys))])


def trajectory_features(bank, ys):
    """Features for every step of a trajectory, row t ending at observation t.

    `ys` is (H,) or (H, p); the result is (H, feature_count * p).  Row t is
    `filter_matrix().T` applied to each coordinate's last `window`
    observations up to t, newest first and zero padded, concatenated
    coordinate-major.  It convolves the whole trajectory at once: the
    reference that the block kernel `_feature_blocks` is checked against.
    """
    Y = np.asarray(ys, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    H, p = Y.shape
    F = bank.filter_matrix()
    Fflip = F[::-1].copy()  # windows below are oldest-first
    out = np.empty((H, p, F.shape[1]))
    pad = np.zeros(bank.window - 1)
    for c in range(p):
        ypad = np.concatenate([pad, Y[:, c]])
        windows = np.lib.stride_tricks.sliding_window_view(ypad, bank.window)
        out[:, c, :] = windows @ Fflip
    return out.reshape(H, p * F.shape[1])


def residual_energy(bank, lam):
    """Relative energy of the impulse response (1, lam, lam^2, ...) outside the
    bank span: the approximation adequacy that acceptance C4 bounds."""
    if not -1.0 <= lam <= 1.0:
        raise ContractViolation(f"lam must lie in [-1, 1], got {lam}")
    v = np.power(float(lam), np.arange(bank.window, dtype=float))
    F = bank.filter_matrix()
    if bank.sign_augmented:
        coeffs, *_ = np.linalg.lstsq(F, v, rcond=None)
        proj = F @ coeffs
    else:
        proj = F @ (F.T @ v)
    r = v - proj
    return float((r @ r) / (v @ v))


# The whole-tensor learner path that the blocked engine replaced: every
# trajectory's shifted features built at once, then one refit loop over them.
# The blocked engine is checked against it.


def shifted_features_reference(bank, Ys):
    """Row t of trajectory i: the `trajectory_features` row ending at Ys[i, t-1]; row 0 zero."""
    n, H, p = Ys.shape
    out = np.zeros((n, H, bank.feature_count * p))
    for i in range(n):
        out[i, 1:] = trajectory_features(bank, Ys[i])[: H - 1]
    return out


def shifted_lags_reference(Ys, k):
    """Row t: the last k observations ending at t-1, newest first, zero padded, lag-major."""
    n, H, p = Ys.shape
    out = np.zeros((n, H, k, p))
    for j in range(min(k, H - 1)):  # lag j of row t: y_{t-1-j}; none for j >= H-1
        out[:, j + 1 :, j, :] = Ys[:, : H - 1 - j]
    return out.reshape(n, H, k * p)


def streaming_ridge_reference(Zpred, Ys, reg, refit_period):
    """Predictions of the streaming ridge with Zpred[i, t] the features before Ys[i, t]."""
    n, H, q = Zpred.shape
    p = Ys.shape[2]
    preds = np.zeros((n, H, p))
    gram = np.zeros((n, q, q))
    moment = np.zeros((n, q, p))
    w = np.zeros((n, q, p))
    eye = np.eye(q)
    s = 0
    while s < H:
        e = min(s + refit_period, H)
        zb = Zpred[:, s:e]
        preds[:, s:e] = zb @ w
        gram += zb.transpose(0, 2, 1) @ zb
        moment += zb.transpose(0, 2, 1) @ Ys[:, s:e]
        if e % refit_period == 0:
            traces = np.trace(gram, axis1=1, axis2=2)
            active = traces > 0.0
            if active.any():
                ridges = _effective_ridge(reg, traces[active], q, e)
                lhs = gram[active] + ridges[:, None, None] * eye
                try:
                    w[active] = np.linalg.solve(lhs, moment[active])
                except np.linalg.LinAlgError as exc:
                    raise SingularSystem(f"readout refit at step {e} is singular") from exc
        s = e
    return preds


def superposed_features(bank, base, free):
    """Shifted features of the ensemble base + free, free one trajectory
    (H, p): by superposition, the base's plus the free response's."""
    return shifted_features_reference(bank, base) + shifted_features_reference(bank, free[None])


def superposed_learner(pred, base, free):
    """A spectral learner's predictions on the ensemble base + free, by the
    superposed definition: the streaming ridge on `superposed_features`."""
    Z = superposed_features(pred.bank, base, free)
    return streaming_ridge_reference(Z, base + free, pred.reg, pred.refit_period)


# The bias/variance split with its own feature loops, on the superposed
# definition of each x0's features: the reference that the split is checked
# against bit for bit.


def reference_readout(bank, ys_ref):
    """w* of a (1, H, p) reference run: the 2-d Gram and moment summed over
    blocks of 256 feature rows, then the Cholesky solve with ridge
    1e-8 * trace(Gram) / q."""
    p = ys_ref.shape[2]
    q = bank.feature_count * p
    gram, moment = np.zeros((q, q)), np.zeros((q, p))
    for s, e, Z, _ in _feature_blocks(bank.filter_matrix(), ys_ref.shape, 256)(ys_ref):
        gram += Z[0].T @ Z[0]
        moment += Z[0].T @ ys_ref[0, s:e]
    return solve_normal_system(gram, moment, ridge=1e-8 * float(np.trace(gram)) / q)


def readout_predictions(Z, w_star, refit_period):
    """Z @ w_star, one refit block of rows at a time."""
    H = Z.shape[1]
    blocks = [Z[:, s : s + refit_period] @ w_star for s in range(0, H, refit_period)]
    return np.concatenate(blocks, axis=1)


def bias_variance_reference(system, learner, t_grid, n_traj, master_seed, window, ref_multiplier):
    """(bias, bias CI, variance, variance CI) of `bias_variance_split` on the
    system's own x0 grid: each x0's observations are the run from x0 = 0 plus
    its free response, its features `superposed_features` of the learner's
    bank, the learner `streaming_ridge_reference` on them and the w*-readout
    `readout_predictions`; Kalman runs on the two parts and its predictions add."""
    bank, reg, refit_period = learner.bank, learner.reg, learner.refit_period
    grid = np.asarray(t_grid, dtype=int)
    horizon = int(grid[-1] + window)
    master = SeededRng(master_seed)
    ref_rng = master.child(learnability._REF_NS, 0)
    ys_ref = simulate_ensemble(
        system, ref_multiplier * horizon, initial_states(system)[0], [ref_rng]
    )
    w_star = reference_readout(bank, ys_ref)
    kalman = KalmanPredictor(system)
    rngs = learnability._traj_rngs(master, n_traj)
    base = simulate_ensemble(system, horizon, np.zeros(system.d), rngs)
    free = lds_free_responses(system, horizon, learnability._resolve_states(system, None))
    on_base, on_free = run_whole(kalman, base)[0], run_whole(kalman, free)[0]
    L = [[], [], []]
    for j in range(len(free)):
        Ys = base + free[j]
        Z = superposed_features(bank, base, free[j])
        star = readout_predictions(Z, w_star, refit_period)
        learner = streaming_ridge_reference(Z, Ys, reg, refit_period)
        pairs = [(star, Ys), (on_base + on_free[j], Ys), (learner, star)]
        for arm, (a, b) in zip(L, pairs):
            arm.append(learnability._grid_losses(a, b, grid, window))
    L = np.array(L)
    bias, bias_ci, _, _ = learnability._worst_case(L[0], L[1])
    variance, var_ci, _, _ = learnability._worst_case(L[2], np.zeros_like(L[2]))
    return bias, bias_ci, variance, var_ci


# The per-x0 full-array Lorenz evaluation that the streamed one replaced: the
# whole (k, n, H, p) grid of observations, with its noise drawn in one piece
# per stream, then every run on each x0's whole observations.  The streamed
# evaluation is checked against it bit for bit.


def lorenz_grid_reference(system, horizon, states, rngs):
    """Observations (k, n, H, p) of a Lorenz grid: the noiseless stacked
    simulation, which reads no stream, plus one whole (H, p) draw of
    observation noise per stream."""
    clean = dataclasses.replace(system, obs_noise=0.0)
    grid = simulate_ensemble(clean, horizon, np.stack(states), rngs)
    if system.obs_noise == 0.0:
        return grid
    noise = np.stack([rng.normals((horizon, system.p), 0.0, system.obs_noise) for rng in rngs])
    return grid + noise


def whole_array_ridges(F, Ys, arms, refit_period, rows=None):
    """The ridges of `predictors._Arms` (filter matrix F, `arms`) on the
    whole ensemble Ys (n, H, p), every row pushed at once."""
    stream = _Arms(F, Ys.shape, arms, refit_period, rows)
    stream.push(Ys)
    return stream.ridges


def baseline_map(kind, Ys):
    """The zero and last-value predictions of (n, H, p) observations."""
    preds = np.zeros_like(Ys)
    if kind == "last_value":
        preds[:, 1:] = Ys[:, :-1]
    return preds


def lorenz_evaluate_reference(
    system, states, horizon, n_traj, master, n_workers, rows, runs, losses
):
    """`learnability._evaluate` of a Lorenz grid, one x0 at a time on whole
    arrays: learners' arms by `whole_array_ridges` on the x0's observations,
    baselines by `baseline_map`, the truth oracle as a copy; `n_workers` is
    not used."""
    grid = lorenz_grid_reference(system, horizon, states, learnability._traj_rngs(master, n_traj))

    def read(a):
        return np.compress(rows, a, axis=-2)

    per_x0 = []
    for Ys in grid:
        preds = []
        for run in runs:
            if isinstance(run, TruthOracle):
                preds.append(read(Ys.copy()))
            elif run.readout is not None:  # a zero or last-value baseline
                preds.append(read(baseline_map(run.label, Ys)))
            else:
                F, arms = run.bank.filter_matrix(), run._arm_specs()
                preds += [r.preds for r in whole_array_ridges(F, Ys, arms, run.refit_period, rows)]
        per_x0.append(np.stack(losses(read(Ys), preds)))
    return np.stack(per_x0, axis=1)
