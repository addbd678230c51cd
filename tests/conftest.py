import os
from pathlib import Path

import numpy as np
import pytest

from dynolearn import InitPolicy, LdsSpec, NoiseSpec, SeededRng, trajectory_features
from dynolearn.errors import SingularSystem
from dynolearn.predictors import _effective_ridge

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
        noise=NoiseSpec(kind="none"),
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
    if spec.noise.kind != "none":
        w = rng.normals(w.shape, 0.0, spec.noise.stdev_process)
        v = rng.normals(v.shape, 0.0, spec.noise.stdev_obs)
    ys, xs = np.empty((horizon, spec.p)), np.empty((horizon, spec.d))
    x = np.asarray(x0, dtype=float)
    for t in range(horizon):
        xs[t] = x
        ys[t] = C @ x + v[t]
        x = A @ x + w[t]
    return ys, xs


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


def lag_features(k, history):
    """The last k observations of a newest-first (t, p) history, zero padded, lag-major."""
    z = np.zeros((k, history.shape[1]))
    take = min(len(history), k)
    z[:take] = history[:take]
    return z.ravel()


class StepRidge:
    """One trajectory's streaming ridge, one step at a time, for a
    `SpectralPredictor` or an AR `BaselinePredictor`: predict w^T z, absorb
    (z, y), and every `refit_period` steps solve
    (Gram_t + ridge(t) I) w = moment_t, ridge(t) = reg * trace(Gram_t) / (q * t^(3/4))."""

    def __init__(self, pred):
        p = pred.obs_dim
        if hasattr(pred, "bank"):
            self.featurize = lambda h: window_features(pred.bank, h)
            q = pred.bank.feature_count * p
        else:
            self.featurize = lambda h: lag_features(pred.order, h)
            q = pred.order * p
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
