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

A readout is a pure function of the Gram and moment accumulated up to its
refit, so a caller that reads only some rows (the harness reads the windows
after its grid times) passes them as `rows`, a boolean mask over the H
steps.  Every block still enters the Gram and moment, in order, but only
blocks holding a read row are predicted, and the readouts are solved at a
refit only when a read row lies in the period it starts: the read rows keep
the bits of the full run.  Without `rows` every row is predicted and every
refit solved, the final one included.
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
    loop up to summation order.  With `rows` (see the module docstring) a
    block is predicted only if `reads(s)`, and a refit at e is solved only if
    `reads(e)`.  `preds` keeps the predictions of rows first..H-1, first the
    first read row (0 without `rows`); a row that is not read holds zero or
    its prediction.  `w` holds the latest readouts, `solves` counts the
    refits solved.
    """

    def __init__(
        self, Ys: np.ndarray, q: int, reg: float, refit_period: int, rows: np.ndarray | None = None
    ):
        if reg < 0:
            raise ContractViolation(f"reg must be nonnegative, got {reg}")
        if refit_period < 1:
            raise ContractViolation(f"refit_period must be >= 1, got {refit_period}")
        n, H, p = Ys.shape
        self.Ys, self.q, self.reg, self.refit_period = Ys, q, reg, refit_period
        self.rows = rows
        self.first = 0 if rows is None else int(np.argmax(rows))
        self.preds = np.zeros((n, H - self.first, p))
        self.gram = np.zeros((n, q, q))
        self.moment = np.zeros((n, q, p))
        self.w = np.zeros((n, q, p))
        self.solves = 0
        self._eye = np.eye(q)

    def reads(self, s: int) -> bool:
        """Whether the refit period starting at row s holds a read row."""
        return self.rows is None or bool(self.rows[s : s + self.refit_period].any())

    def feed(self, s: int, e: int, Z: np.ndarray) -> None:
        """Absorb Z[i, t - s], the features available before Ys[i, t], t in [s, e)."""
        if self.reads(s):
            k = self.first
            self.preds[:, max(s - k, 0) : e - k] = (Z @ self.w)[:, max(k - s, 0) :]
        Zt = Z.transpose(0, 2, 1)
        self.gram += Zt @ Z
        self.moment += Zt @ self.Ys[:, s:e]
        if e % self.refit_period or not self.reads(e):
            return
        traces = np.trace(self.gram, axis1=1, axis2=2)
        active = traces > 0.0
        if active.any():
            ridges = _effective_ridge(self.reg, traces[active], self.q, e)
            lhs = self.gram[active] + ridges[:, None, None] * self._eye
            self.solves += 1
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


def _run_arms(F: np.ndarray, Ys: np.ndarray, arms, refit_period: int, rows=None):
    """The streaming ridge of each arm on Ys, from one convolution of Ys by
    the filter matrix F per refit block; returns one `_EnsembleRidge` per arm.

    An arm is (cols, reg): its features are columns `cols` of each block's
    features, or all of them when cols is None.  Each ridge predicts the
    rows in the mask `rows` (every row when None).  Only one block of
    features is alive at a time.
    """
    n, _, p = Ys.shape
    runs = []
    for cols, reg in arms:
        q = F.shape[1] * p if cols is None else len(cols)
        ridge = _EnsembleRidge(Ys, q, reg, refit_period, rows)
        runs.append((ridge, cols, None if cols is None else np.empty((n, refit_period, q))))
    for s, e, Z in _feature_blocks(F, Ys, refit_period):
        for ridge, cols, buf in runs:
            if cols is None:
                ridge.feed(s, e, Z)
            else:  # cols are in range: mode="clip" skips the buffered copy that "raise" makes
                ridge.feed(s, e, np.take(Z, cols, axis=2, out=buf[:, : e - s], mode="clip"))
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

    def run_ensemble(self, Ys: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Predictions for (n, H, p) observation arrays; pure function of Ys.

        With `rows`, a boolean mask over the H steps, only the rows it marks
        are guaranteed: the result holds rows first..H-1, first the first
        marked row, and a refit that no marked row uses is skipped.
        """
        return self._ridge(Ys, rows).preds

    def fit(self, Ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`run_ensemble(Ys)` and each trajectory's readout (n, q, p) after its
        last refit: the prediction from features z is z @ readout."""
        ridge = self._ridge(Ys)
        return ridge.preds, ridge.w

    def _ridge(self, Ys: np.ndarray, rows: np.ndarray | None = None) -> _EnsembleRidge:
        Ys = _check_ensemble(Ys, self.obs_dim)
        F = self.bank.filter_matrix()
        (ridge,) = _run_arms(F, Ys, [(None, self.reg)], self.refit_period, rows)
        return ridge


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

    def run_ensemble(self, Ys: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Predictions for (n, H, p) observation arrays; `rows` as in
        `SpectralPredictor.run_ensemble`."""
        Ys = _check_ensemble(Ys, self.obs_dim)
        if self.kind == "ar":
            arm = [(None, self.reg)]
            (ridge,) = _run_arms(np.eye(self.order), Ys, arm, self.refit_period, rows)
            return ridge.preds
        preds = np.zeros_like(Ys)
        if self.kind == "last_value":
            preds[:, 1:] = Ys[:, : Ys.shape[1] - 1]
        return preds if rows is None else preds[:, int(np.argmax(rows)) :]

