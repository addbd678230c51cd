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

`run_ensemble` drives every trajectory of an (n, H, p) ensemble through a
blocked engine, one refit period at a time.  A block kernel
(`spectral._feature_blocks` for the filter convolution, `_lag_blocks` for AR
lags) writes the block's features from its own observations and the
window - 1 before it into buffers allocated once per call; `_EnsembleRidge`
predicts the block, adds it to the per-trajectory Gram and moment, and
refits.  No (n, H, q) feature tensor is built: besides the (n, H, p)
predictions, the working set is O(n * (q^2 + window * p)) for a fixed refit
period, whatever H is.  `_run_filter_sweep` runs several filter counts of one
bank on one convolution per block.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, SingularSystem
from .numerics import solve_normal_system
from .spectral import FilterBank, _feature_blocks, _history, features

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


class _EnsembleRidge:
    """The streaming ridge of every trajectory of an (n, H, p) ensemble, fed
    one refit block of features at a time.

    `feed(s, e, Z)` replays the per-step predict/accumulate/refit loop over
    rows [s, e): within a refit period the readout is constant, so the block
    is predicted and absorbed at once, and the readouts are refit when e ends
    a period.  Results match the per-step path up to summation order.
    `preds` keeps the predictions of rows keep_from..H-1.
    """

    def __init__(self, Ys: np.ndarray, q: int, reg: float, refit_period: int, keep_from: int = 0):
        n, H, p = Ys.shape
        self.Ys, self.q, self.reg, self.refit_period = Ys, q, reg, refit_period
        self.keep_from = keep_from
        self.preds = np.zeros((n, H - keep_from, p))
        self.gram = np.zeros((n, q, q))
        self.moment = np.zeros((n, q, p))
        self.w = np.zeros((n, q, p))
        self._eye = np.eye(q)

    def feed(self, s: int, e: int, Z: np.ndarray) -> None:
        """Absorb Z[i, t - s], the features available before Ys[i, t], t in [s, e)."""
        k = self.keep_from
        if e > k:
            self.preds[:, max(s - k, 0) : e - k] = (Z @ self.w)[:, max(k - s, 0) :]
        Zt = Z.transpose(0, 2, 1)
        self.gram += Zt @ Z
        self.moment += Zt @ self.Ys[:, s:e]
        if e % self.refit_period:
            return
        traces = np.trace(self.gram, axis1=1, axis2=2)
        active = traces > 0.0
        if active.any():
            ridges = _effective_ridge(self.reg, traces[active], self.q, e)
            lhs = self.gram[active] + ridges[:, None, None] * self._eye
            try:
                self.w[active] = np.linalg.solve(lhs, self.moment[active])
            except np.linalg.LinAlgError as exc:
                # only reachable with reg == 0 and a singular Gram
                raise SingularSystem(
                    f"readout refit at step {e} is singular (reg={self.reg:g})"
                ) from exc


def _check_ensemble(Ys, obs_dim: int) -> np.ndarray:
    Ys = np.asarray(Ys, dtype=float)
    _, _, p = Ys.shape
    if p != obs_dim:
        raise ContractViolation(f"observation dim {p} does not match predictor ({obs_dim})")
    return Ys


def _run_streaming_ridge(blocks, Ys: np.ndarray, q: int, reg: float, refit_period: int):
    """Predictions of the streaming ridge on Ys, with features from `blocks`.

    `blocks` is a block kernel (`_feature_blocks`, `_lag_blocks`) over Ys with
    block size `refit_period`; only one block of q features is alive at a time.
    """
    ridge = _EnsembleRidge(Ys, q, reg, refit_period)
    for s, e, Z in blocks:
        ridge.feed(s, e, Z)
    return ridge.preds


def _bank_columns(bank: FilterBank, m: int, p: int) -> np.ndarray:
    """Columns of `bank`'s features that are the features of its first m filters."""
    cols = np.arange(m)
    if bank.sign_augmented:
        cols = np.concatenate([cols, bank.m + cols])
    return (bank.feature_count * np.arange(p)[:, None] + cols).ravel()


def _run_filter_sweep(predictors, Ys: np.ndarray, keep_from: int = 0) -> list[np.ndarray]:
    """`run_ensemble(Ys)[:, keep_from:]` of spectral predictors whose banks are
    prefixes of one bank.

    One convolution per block, by the largest bank, serves every predictor:
    each reads its own columns of that block.  A column's last bits can differ
    from those of the predictor's own, narrower, convolution.  Only the kept
    rows of each predictor's predictions are stored.
    """
    big = max(predictors, key=lambda pr: pr.bank.m)
    for pr in predictors:
        b = pr.bank
        if (
            b.window != big.bank.window
            or b.sign_augmented != big.bank.sign_augmented
            or (pr.obs_dim, pr.refit_period) != (big.obs_dim, big.refit_period)
            or not np.array_equal(b.phis, big.bank.phis[:, : b.m])
        ):
            raise ContractViolation(
                "a filter sweep needs prefixes of one bank, one obs_dim and one refit period"
            )
    Ys = _check_ensemble(Ys, big.obs_dim)
    n, _, p = Ys.shape
    arms = []
    for pr in predictors:
        q = pr.bank.feature_count * p
        cols = None if pr.bank.m == big.bank.m else _bank_columns(big.bank, pr.bank.m, p)
        buf = None if cols is None else np.empty((n, pr.refit_period, q))
        arms.append((_EnsembleRidge(Ys, q, pr.reg, pr.refit_period, keep_from), cols, buf))
    for s, e, Z in _feature_blocks(big.bank, Ys, big.refit_period):
        for ridge, cols, buf in arms:
            ridge.feed(s, e, Z if cols is None else np.take(Z, cols, axis=2, out=buf[:, : e - s]))
    return [ridge.preds for ridge, _, _ in arms]


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
        Ys = _check_ensemble(Ys, self.obs_dim)
        return _run_streaming_ridge(
            _feature_blocks(self.bank, Ys, self.refit_period),
            Ys,
            self._core.q,
            self.reg,
            self.refit_period,
        )


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


def _lag_blocks(k: int, Ys: np.ndarray, block: int):
    """Shifted lag features of an (n, H, p) ensemble, one block of rows at a time.

    Yields (s, e, Z) like `spectral._feature_blocks`: row t - s of Z[i] holds
    Ys[i, t-1], ..., Ys[i, t-k], newest first, zero before row 0, flattened
    lag-major.  A block reads Ys rows [s - k, e - 1) only, into buffers that
    live as long as the generator.
    """
    n, H, p = Ys.shape
    hist = np.empty((n, k - 1 + block, p))
    lags = np.empty((n, block, k, p))
    for s in range(0, H, block):
        e = min(s + block, H)
        L = e - s
        ys = _history(Ys, s - k, e - 1, hist)  # row r: observation s - k + r
        for j in range(k):
            lags[:, :L, j] = ys[:, k - 1 - j : k - 1 - j + L]
        yield s, e, lags[:, :L].reshape(n, L, k * p)


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
        Ys = _check_ensemble(Ys, self.obs_dim)
        H = Ys.shape[1]
        if self.kind == "zero":
            return np.zeros_like(Ys)
        if self.kind == "last_value":
            preds = np.zeros_like(Ys)
            preds[:, 1:] = Ys[:, : H - 1]
            return preds
        core = self._core
        return _run_streaming_ridge(
            _lag_blocks(self.order, Ys, core.refit_period), Ys, core.q, core.reg, core.refit_period
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
