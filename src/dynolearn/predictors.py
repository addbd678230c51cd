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
from .spectral import FilterBank, _feature_blocks, _history

DEFAULT_REG = 2.0
DEFAULT_REFIT_PERIOD = 16
RIDGE_DECAY_EXPONENT = 0.75


def _effective_ridge(reg: float, gram_trace, q: int, steps: int):
    """The ridge for one Gram trace, or elementwise for an array of traces."""
    if reg == 0.0 or steps == 0:
        return np.zeros_like(gram_trace) if isinstance(gram_trace, np.ndarray) else 0.0
    return reg * gram_trace / (q * steps**RIDGE_DECAY_EXPONENT)


class _EnsembleRidge:
    """The streaming ridge of every trajectory of an (n, H, p) ensemble, fed
    one refit block of features at a time.

    `feed(s, e, Z)` replays a per-step loop (predict, absorb the pair, refit
    every `refit_period` steps) over rows [s, e): within a refit period the
    readout is constant, so the block is predicted and absorbed at once, and
    the readouts are refit when e ends a period.  Results match the per-step
    loop up to summation order.  `preds` keeps the predictions of rows
    keep_from..H-1; `w` holds the latest readouts.
    """

    def __init__(self, Ys: np.ndarray, q: int, reg: float, refit_period: int, keep_from: int = 0):
        if reg < 0:
            raise ContractViolation(f"reg must be nonnegative, got {reg}")
        if refit_period < 1:
            raise ContractViolation(f"refit_period must be >= 1, got {refit_period}")
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
    """Predictions (n, H, p) of the streaming ridge on Ys, with features from
    `blocks`, and each trajectory's final readout (n, q, p).

    `blocks` is a block kernel (`_feature_blocks`, `_lag_blocks`) over Ys with
    block size `refit_period`; only one block of q features is alive at a time.
    """
    ridge = _EnsembleRidge(Ys, q, reg, refit_period)
    for s, e, Z in blocks:
        ridge.feed(s, e, Z)
    return ridge.preds, ridge.w


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
        ridge = _EnsembleRidge(Ys, q, pr.reg, pr.refit_period, keep_from)
        cols = None if pr.bank.m == big.bank.m else _bank_columns(big.bank, pr.bank.m, p)
        buf = None if cols is None else np.empty((n, pr.refit_period, q))
        arms.append((ridge, cols, buf))
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
        self.reg = reg
        self.refit_period = refit_period

    @property
    def state_size(self) -> int:
        """Readout scalars kept per trajectory (Gram, moment, weights); independent
        of the hidden dimension of whatever generated the data."""
        q = self.bank.feature_count * self.obs_dim
        return q * q + 2 * q * self.obs_dim

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        """Predictions for (n, H, p) observation arrays; pure function of Ys."""
        return self.fit(Ys)[0]

    def fit(self, Ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`run_ensemble(Ys)` and each trajectory's readout (n, q, p) after its
        last refit: the prediction from features z is z @ readout."""
        Ys = _check_ensemble(Ys, self.obs_dim)
        q = self.bank.feature_count * self.obs_dim
        blocks = _feature_blocks(self.bank, Ys, self.refit_period)
        return _run_streaming_ridge(blocks, Ys, q, self.reg, self.refit_period)


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
        self.reg = reg
        self.refit_period = refit_period
        self.label = f"ar{order}" if kind == "ar" else kind

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        Ys = _check_ensemble(Ys, self.obs_dim)
        H = Ys.shape[1]
        if self.kind == "zero":
            return np.zeros_like(Ys)
        if self.kind == "last_value":
            preds = np.zeros_like(Ys)
            preds[:, 1:] = Ys[:, : H - 1]
            return preds
        blocks = _lag_blocks(self.order, Ys, self.refit_period)
        return _run_streaming_ridge(
            blocks, Ys, self.order * self.obs_dim, self.reg, self.refit_period
        )[0]

