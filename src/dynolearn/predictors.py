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

`run_ensemble` drives every trajectory of an (n, H, p) ensemble through one
blocked engine, one refit period at a time.  The block kernel
`spectral._feature_blocks` convolves the block's observations and the
window - 1 before it with a filter matrix: the bank's filters for the
spectral learner, the k x k identity for AR(k), whose features are then the
last k observations.  `_run_arms` feeds each block to one `_EnsembleRidge`
per arm, which predicts the block, adds it to the per-trajectory Gram and
moment, and refits; arms that read different columns of one convolution (the
filter counts of m*) share it.  No (n, H, q) feature tensor is built: besides
the (n, H, p) predictions, the working set is O(n * (q^2 + window * p)) for
a fixed refit period, whatever H is.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, SingularSystem
from .spectral import FilterBank, _feature_blocks

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


def _run_arms(F: np.ndarray, Ys: np.ndarray, arms, refit_period: int, keep_from: int = 0):
    """The streaming ridge of each arm on Ys, from one convolution of Ys by
    the filter matrix F per refit block; returns one `_EnsembleRidge` per arm.

    An arm is (cols, reg): its features are columns `cols` of each block's
    features, or all of them when cols is None.  Each ridge keeps its
    predictions of rows keep_from..H-1.  Only one block of features is alive
    at a time.
    """
    n, _, p = Ys.shape
    runs = []
    for cols, reg in arms:
        q = F.shape[1] * p if cols is None else len(cols)
        ridge = _EnsembleRidge(Ys, q, reg, refit_period, keep_from)
        runs.append((ridge, cols, None if cols is None else np.empty((n, refit_period, q))))
    for s, e, Z in _feature_blocks(F, Ys, refit_period):
        for ridge, cols, buf in runs:
            ridge.feed(s, e, Z if cols is None else np.take(Z, cols, axis=2, out=buf[:, : e - s]))
    return [ridge for ridge, _, _ in runs]


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
        (ridge,) = _run_arms(self.bank.filter_matrix(), Ys, [(None, self.reg)], self.refit_period)
        return ridge.preds, ridge.w


class BaselinePredictor:
    """Comparator-class predictors: zero, last value, or order-k autoregression.

    The autoregressive variant is the spectral learner's engine with the
    k x k identity as its filters: its features are the last k observations.
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
        (ridge,) = _run_arms(np.eye(self.order), Ys, [(None, self.reg)], self.refit_period)
        return ridge.preds

