"""Learning predictors: the spectral-filter learner and simple baselines.

The spectral learner is improper by construction: its entire state is the
fixed filter bank plus the least-squares readout accumulators (Gram, moment,
weights).  It never forms estimates of the system matrices or the latent
state, so its memory footprint is independent of the hidden dimension.

Readout fitting uses a scale-free ridge that decays relative to the Gram:
    ridge(t) = reg * trace(Gram_t) / (q * t^(3/4))
with q the feature dimension.  Early fits (where windowed features are
heavily collinear) are strongly damped while the relative shrinkage
vanishes like t^(-3/4), keeping the asymptotic readout unbiased.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .numerics import solve_normal_system
from .spectral import FilterBank, features, shifted_features

DEFAULT_REG = 2.0
DEFAULT_REFIT_PERIOD = 16
RIDGE_DECAY_EXPONENT = 0.75


def _effective_ridge(reg: float, gram_trace, q: int, steps: int):
    """The ridge for one Gram trace, or elementwise for an array of traces."""
    if reg == 0.0 or steps == 0:
        return np.zeros_like(gram_trace) if isinstance(gram_trace, np.ndarray) else 0.0
    return reg * gram_trace / (q * steps**RIDGE_DECAY_EXPONENT)


def _as_obs(y, p: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if arr.shape != (p,):
        raise ContractViolation(f"{what} has shape {arr.shape}, expected ({p},)")
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{what} contains non-finite entries")
    return arr


class _StreamingRidge:
    """Shared accumulate/refit state for linear-in-features predictors."""

    def __init__(self, q: int, p: int, reg: float, refit_period: int):
        if reg < 0:
            raise ContractViolation(f"reg must be nonnegative, got {reg}")
        if refit_period < 1:
            raise ContractViolation(f"refit_period must be >= 1, got {refit_period}")
        self.q = q
        self.p = p
        self.reg = reg
        self.refit_period = refit_period
        self.gram = np.zeros((q, q))
        self.moment = np.zeros((q, p))
        self.w = np.zeros((q, p))
        self.steps_seen = 0

    def effective_ridge(self) -> float:
        return _effective_ridge(self.reg, float(np.trace(self.gram)), self.q, self.steps_seen)

    def accumulate(self, z: np.ndarray, y: np.ndarray) -> None:
        self.gram += np.outer(z, z)
        self.moment += np.outer(z, y)
        self.steps_seen += 1
        if self.steps_seen % self.refit_period == 0:
            self.refit()

    def refit(self) -> None:
        tr = float(np.trace(self.gram))
        if tr == 0.0:
            return  # no signal yet; keep the zero readout
        self.w = solve_normal_system(self.gram, self.moment, ridge=self.effective_ridge())

    @property
    def state_size(self) -> int:
        return self.gram.size + self.moment.size + self.w.size


def _run_streaming_ridge(
    Zpred: np.ndarray, Ys: np.ndarray, reg: float, refit_period: int
) -> np.ndarray:
    """Blocked replay of the per-step predict/accumulate/refit loop.

    Zpred[i, t] must be the feature vector available *before* observing
    Ys[i, t].  Within a refit period the readout is constant, so predictions
    and Gram updates are batched per block; results match the per-step path
    up to floating-point summation order.
    """
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
                    # only reachable with reg == 0 and a singular Gram
                    from .errors import SingularSystem

                    raise SingularSystem(
                        f"readout refit at step {e} is singular (reg={reg:g})"
                    ) from exc
        s = e
    return preds


class SpectralPredictor:
    """Linear readout over fixed spectral-filter features, fit online by ridge.

    Histories shorter than the filter window are zero padded, and the
    prediction is zero until the first refit.  Multi-dimensional outputs use
    per-coordinate feature concatenation and a matrix readout.
    """

    label = "spectral"

    def __init__(
        self,
        bank: FilterBank,
        obs_dim: int = 1,
        reg: float = DEFAULT_REG,
        refit_period: int = DEFAULT_REFIT_PERIOD,
    ):
        if obs_dim < 1:
            raise ContractViolation(f"obs_dim must be >= 1, got {obs_dim}")
        self.bank = bank
        self.obs_dim = obs_dim
        self._core = _StreamingRidge(bank.feature_count * obs_dim, obs_dim, reg, refit_period)

    # streaming interface -------------------------------------------------
    @property
    def gram(self) -> np.ndarray:
        return self._core.gram

    @property
    def moment(self) -> np.ndarray:
        return self._core.moment

    @property
    def w(self) -> np.ndarray:
        return self._core.w

    @property
    def reg(self) -> float:
        return self._core.reg

    @property
    def refit_period(self) -> int:
        return self._core.refit_period

    @property
    def steps_seen(self) -> int:
        return self._core.steps_seen

    @property
    def state_size(self) -> int:
        """Number of stored readout/accumulator scalars; independent of the
        hidden dimension of whatever generated the data."""
        return self._core.state_size

    def effective_ridge(self) -> float:
        return self._core.effective_ridge()

    def predict(self, history) -> np.ndarray:
        """One-step prediction from a newest-first history (may be empty)."""
        z = features(self.bank, _normalize_history(history, self.obs_dim))
        return self._core.w.T @ z

    def observe(self, y_next, history_before) -> None:
        """Absorb the pair (features(history_before), y_next); refit on schedule."""
        y = _as_obs(y_next, self.obs_dim, "y_next")
        z = features(self.bank, _normalize_history(history_before, self.obs_dim))
        self._core.accumulate(z, y)

    # trajectory interface -------------------------------------------------
    def run(self, ys: np.ndarray) -> np.ndarray:
        """Per-step predictions over one trajectory (fresh state, self untouched)."""
        ys = np.asarray(ys, dtype=float)
        squeeze = ys.ndim == 1
        preds = self.run_ensemble(ys.reshape(1, ys.shape[0], -1))[0]
        return preds[:, 0] if squeeze else preds

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        """Predictions for (n, H, p) observation arrays; pure function of Ys."""
        Ys = np.asarray(Ys, dtype=float)
        _, _, p = Ys.shape
        if p != self.obs_dim:
            raise ContractViolation(f"observation dim {p} does not match predictor ({self.obs_dim})")
        return _run_streaming_ridge(
            shifted_features(self.bank, Ys), Ys, self.reg, self.refit_period
        )

    def fresh(self) -> "SpectralPredictor":
        return SpectralPredictor(self.bank, self.obs_dim, self.reg, self.refit_period)


def _normalize_history(history, p: int) -> np.ndarray:
    h = np.asarray(history, dtype=float)
    if h.size == 0:
        return np.zeros((0, p))
    if h.ndim == 1:
        if p != 1:
            raise ContractViolation("1-d history passed to a multi-coordinate predictor")
        return h[:, None]
    if h.ndim != 2 or h.shape[1] != p:
        raise ContractViolation(f"history shape {h.shape} incompatible with obs dim {p}")
    return h


def _shifted_lags(Ys: np.ndarray, k: int) -> np.ndarray:
    """Lag features of an (n, H, p) ensemble, shifted one step: row t holds the
    last k observations ending at t-1, newest first, zero padded, flattened
    row-major (lag-major); row 0 is zero."""
    n, H, p = Ys.shape
    out = np.zeros((n, H, k, p))
    for j in range(min(k, H - 1)):  # lag j of row t: y_{t-1-j}; none for j >= H-1
        out[:, j + 1 :, j, :] = Ys[:, : H - 1 - j]
    return out.reshape(n, H, k * p)


def _lag_vector(h_newest_first: np.ndarray, k: int) -> np.ndarray:
    """The newest-first lag window as one zero-padded feature vector."""
    p = h_newest_first.shape[1]
    z = np.zeros((k, p))
    take = min(h_newest_first.shape[0], k)
    z[:take] = h_newest_first[:take]
    return z.ravel()


class BaselinePredictor:
    """Comparator-class predictors: zero, last value, or order-k autoregression.

    The autoregressive variant shares the streaming ridge discipline of the
    spectral learner, with raw lag vectors as features.
    """

    def __init__(
        self,
        kind: str,
        order: int = 1,
        obs_dim: int = 1,
        reg: float = DEFAULT_REG,
        refit_period: int = DEFAULT_REFIT_PERIOD,
    ):
        if kind not in ("zero", "last_value", "ar"):
            raise ContractViolation(f"unknown baseline kind {kind!r}")
        if kind == "ar" and order < 1:
            raise ContractViolation(f"ar order must be >= 1, got {order}")
        self.kind = kind
        self.order = order
        self.obs_dim = obs_dim
        self.label = f"ar{order}" if kind == "ar" else kind
        self._core = (
            _StreamingRidge(order * obs_dim, obs_dim, reg, refit_period) if kind == "ar" else None
        )

    @property
    def w(self) -> np.ndarray:
        if self._core is None:
            raise ContractViolation(f"{self.kind} baseline has no readout weights")
        return self._core.w

    def predict(self, history) -> np.ndarray:
        h = _normalize_history(history, self.obs_dim)
        if self.kind == "zero":
            return np.zeros(self.obs_dim)
        if self.kind == "last_value":
            return h[0].copy() if h.shape[0] else np.zeros(self.obs_dim)
        return self._core.w.T @ _lag_vector(h, self.order)

    def observe(self, y_next, history_before) -> None:
        if self._core is None:
            return
        y = _as_obs(y_next, self.obs_dim, "y_next")
        h = _normalize_history(history_before, self.obs_dim)
        self._core.accumulate(_lag_vector(h, self.order), y)

    def run(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        squeeze = ys.ndim == 1
        preds = self.run_ensemble(ys.reshape(1, ys.shape[0], -1))[0]
        return preds[:, 0] if squeeze else preds

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        Ys = np.asarray(Ys, dtype=float)
        _, H, p = Ys.shape
        if p != self.obs_dim:
            raise ContractViolation(f"observation dim {p} does not match predictor ({self.obs_dim})")
        if self.kind == "zero":
            return np.zeros_like(Ys)
        if self.kind == "last_value":
            preds = np.zeros_like(Ys)
            preds[:, 1:] = Ys[:, : H - 1]
            return preds
        return _run_streaming_ridge(
            _shifted_lags(Ys, self.order), Ys, self._core.reg, self._core.refit_period
        )

    def fresh(self) -> "BaselinePredictor":
        if self._core is None:
            return BaselinePredictor(self.kind, self.order, self.obs_dim)
        return BaselinePredictor(
            self.kind, self.order, self.obs_dim, self._core.reg, self._core.refit_period
        )


def iterate_forecast(predictor, history, steps: int) -> np.ndarray:
    """Multi-step forecast by feeding predictions back as observations.

    `history` is newest first; returns (steps, p) with row h the forecast of
    the observation h+1 steps ahead.  Uses the predictor's current readout
    without updating it.
    """
    if steps < 1:
        raise ContractViolation(f"steps must be >= 1, got {steps}")
    p = predictor.obs_dim
    h = _normalize_history(history, p)
    out = np.empty((steps, p))
    for s in range(steps):
        yhat = predictor.predict(h)
        out[s] = yhat
        h = np.concatenate([yhat[None, :], h], axis=0)
    return out
