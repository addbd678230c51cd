"""Predictors: the learner, a ridge readout over fixed filters, and baselines.

The learner is improper by construction: its entire state is the fixed
filter bank (the Hilbert eigenfilters, or for AR(k) the identity, whose
features are the last k observations) plus the least-squares readout
accumulators (Gram, moment, weights).  It never forms estimates of the
system matrices or the latent state, so its memory footprint is independent
of the hidden dimension.  The zero and last-value baselines fit nothing:
they are frozen arms of the same engine.

Readout fitting uses a scale-free ridge that decays relative to the Gram:
    ridge(t) = reg * trace(Gram_t) / (q * t^(3/4))
with q the feature dimension.  Early fits (where windowed features are
heavily collinear) are strongly damped while the relative shrinkage
vanishes like t^(-3/4), keeping the asymptotic readout unbiased.

`fit` drives every trajectory of an (n, H, p) ensemble through one blocked
engine, one refit period at a time.  The block kernel
`spectral._feature_blocks` convolves the block's observations and the
window - 1 before it with the bank's filter matrix.  `_Arms` feeds each
block to one `_EnsembleRidge` per arm, which predicts the block, adds it to
the per-trajectory Gram and moment, and refits; arms that read different
columns of one convolution (the filter counts of m*) share it.  `_Arms` is
a stream, as the reference predictors' runs in `oracles` are: it takes the
ensemble's rows as they arrive, in pieces of any length (an array pushed
whole, or a Lorenz grid block by block as its recursion records them), so
the ensemble need never be held.  A frozen arm is given a fixed readout: it
predicts its read blocks from that readout and never accumulates or refits
(the bias/variance split's w*-readout, and the zero and last-value
baselines, whose readout 0 or I_p reads the last observation, the one
feature of `FilterBank.identity(1)`).  Given the free responses of a grid
of initial states, the arms run on every ensemble base + free[j] at once,
from one convolution of the base and one of the free responses per block
(superposition, see `learnability`).  No (n, H, q) feature tensor is built:
besides the kept predictions, the working set is O(n * (q^2 + window * p))
per ensemble for a fixed refit period, whatever H is.

A readout is a pure function of the Gram and moment accumulated up to its
refit, so a caller that reads only some rows (the harness reads the windows
after its grid times) passes them as `rows`, a boolean mask over the H
steps.  Every block still enters the Gram and moment, in order, but only
blocks holding a read row are predicted, only the read rows are kept, in
order, and the readouts are solved at a refit only when a read row lies in
the period it starts: the read rows keep the bits of the full run.  Without
`rows` every row is predicted and kept and every refit solved, the final one
included; with a mask that reads no row, an arm keeps no prediction and only
accumulates its Gram and moment (the bias/variance split's reference fit).
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
    one refit block of features and targets at a time.

    `feed(s, e, Z, Y)` replays a per-step loop (predict, absorb the pair,
    refit every `refit_period` steps) over rows [s, e): within a refit period
    the readout is constant, so the block is predicted and absorbed at once,
    and the readouts are refit when e ends a period.  Results match the
    per-step loop up to summation order.  With `rows` (see the module
    docstring) a block is predicted only if `reads(s)`, and a refit at e is
    solved only if `reads(e)`.  `preds` (n, R, p) keeps the predictions of
    the R rows that `rows` marks, in order (every row without `rows`).  `w`
    holds the latest readouts, `solves` counts the refits solved.  Given a
    (q, p) `readout`, the ridge is frozen: every trajectory's `w` is that
    readout, and `feed` only predicts, so `gram`, `moment` and `solves` stay
    zero.
    """

    def __init__(self, shape, q: int, reg: float, refit_period: int, rows=None, readout=None):
        if not 0.0 <= reg < np.inf:  # NaN fails both comparisons
            raise ContractViolation(f"reg must be nonnegative and finite, got {reg}")
        if refit_period < 1:
            raise ContractViolation(f"refit_period must be >= 1, got {refit_period}")
        n, H, p = shape
        self.q, self.reg, self.refit_period = q, reg, refit_period
        self.rows = rows
        self.preds = np.zeros((n, H if rows is None else int(np.count_nonzero(rows)), p))
        self.kept = 0  # the rows of preds filled so far
        self.gram = np.zeros((n, q, q))
        self.moment = np.zeros((n, q, p))
        self.frozen = readout is not None
        self.w = np.broadcast_to(readout, (n, q, p)) if self.frozen else np.zeros((n, q, p))
        self.solves = 0

    def reads(self, s: int) -> bool:
        """Whether the refit period starting at row s holds a read row."""
        return self.rows is None or bool(self.rows[s : s + self.refit_period].any())

    def feed(self, s: int, e: int, Z: np.ndarray, Y: np.ndarray) -> None:
        """Absorb rows [s, e): Z[i, t - s] holds the features available
        before the observation Y[i, t - s]."""
        if self.reads(s):
            pred = Z @ self.w
            if self.rows is not None:
                pred = pred[:, self.rows[s:e]]
            self.preds[:, self.kept : self.kept + pred.shape[1]] = pred
            self.kept += pred.shape[1]
        if self.frozen:
            return
        Zt = Z.transpose(0, 2, 1)
        self.gram += Zt @ Z
        self.moment += Zt @ Y
        if e % self.refit_period or not self.reads(e):
            return
        traces = np.trace(self.gram, axis1=1, axis2=2)
        active = traces > 0.0
        if active.any():
            lhs = self.gram[active]  # a copy: the ridge joins its diagonal
            diag = np.arange(self.q)
            lhs[:, diag, diag] += _effective_ridge(self.reg, traces[active], self.q, e)[:, None]
            self.solves += 1
            try:
                self.w[active] = np.linalg.solve(lhs, self.moment[active])
            except np.linalg.LinAlgError as exc:
                # only reachable with reg == 0 and a singular Gram
                raise SingularSystem(
                    f"readout refit at step {e} is singular (reg={self.reg:g})"
                ) from exc


def _check_obs_dim(p: int, obs_dim: int) -> None:
    if p != obs_dim:
        raise ContractViolation(f"observation dim {p} does not match predictor ({obs_dim})")


def _check_ensemble(Ys, obs_dim: int) -> np.ndarray:
    Ys = np.asarray(Ys, dtype=float)
    _check_obs_dim(Ys.shape[2], obs_dim)
    return Ys


class _Arms:
    """The streaming ridge of each arm on an (n, H, p) ensemble whose rows
    arrive in order, from one convolution by the filter matrix F per refit
    block; `ridges` holds one `_EnsembleRidge` per arm.

    An arm is (cols, reg), or (cols, reg, readout) for a frozen arm: its
    features are columns `cols` of each block's features, or all of them
    when cols is None.  Each ridge keeps the predictions of the rows in the
    mask `rows` (every row when None).  `push(ys)` takes the next rows
    (n, L, p), any L: only one block of features and the rows it reads are
    alive at a time, so the ensemble need never be held whole.  A Lorenz
    grid pushes the blocks of its recursion, x0-major: trajectory j * n + i
    of a stacked run is trajectory i of x0 j, and every trajectory is its own
    batch entry of the ridge's products and solves, so each keeps the bits it
    has in a run of its x0 alone.

    With k free responses, `push(ys, free)` also takes their next rows
    (k, L, p), and the arms run on the k ensembles ys + free[j] at once,
    stacked x0-major in the same way.  Features are linear in the
    observations, so ensemble j's block features are the base's plus
    free[j]'s: each block convolves the base once and the free responses
    once, and only that sum, the targets and the ridges grow with k.  The
    features round differently from those of a convolution of Ys + free[j],
    except an identity F's (AR and the baselines), whose products are exact.
    """

    def __init__(self, F: np.ndarray, shape, arms, refit_period: int, rows=None, k=None):
        n, H, p = shape
        stacked = (n if k is None else k * n, H, p)
        qf = F.shape[1] * p
        self.runs = []
        for cols, reg, *readout in arms:
            q = qf if cols is None else len(cols)
            self.runs.append((_EnsembleRidge(stacked, q, reg, refit_period, rows, *readout), cols))
        self.ridges = [ridge for ridge, _ in self.runs]
        # the column arms' features, one arm's at a time
        widest = max([len(cols) for _, cols in self.runs if cols is not None], default=0)
        self.cols_buf = np.empty(stacked[0] * refit_period * widest)
        self.blocks = _feature_blocks(F, shape, refit_period)
        if k is not None:
            self.free_blocks = _feature_blocks(F, (k, H, p), refit_period)
            self.Zk = np.empty((k, n, refit_period, qf))
            self.Yk = np.empty((k, n, refit_period, p))

    def push(self, ys: np.ndarray, free=None) -> None:
        """Feed the next rows ys (n, L, p), with the free responses' (k, L, p)."""
        if free is None:
            for s, e, Z, Y in self.blocks(ys):
                self._feed(s, e, Z, Y)
            return
        for (s, e, Z, Y), (_, _, Zf, Yf) in zip(self.blocks(ys), self.free_blocks(free)):
            L = e - s  # every ensemble's features and targets, x0-major
            Z = np.add(Z, Zf[:, None], out=self.Zk[:, :, :L]).reshape(-1, L, Z.shape[2])
            Y = np.add(Y, Yf[:, None], out=self.Yk[:, :, :L]).reshape(-1, L, Y.shape[2])
            self._feed(s, e, Z, Y)

    def reader(self):
        """The kept predictions by trajectories x0 (a slice) of the stacked
        ensemble, one array per arm.  It holds the predictions alone, not
        the ridges' state or the convolution's buffers."""
        preds = [ridge.preds for ridge in self.ridges]
        return lambda x0: [a[x0] for a in preds]

    def _feed(self, s: int, e: int, Z: np.ndarray, Y: np.ndarray) -> None:
        for ridge, cols in self.runs:
            if cols is None:
                ridge.feed(s, e, Z, Y)
                continue
            buf = self.cols_buf[: Z.shape[0] * (e - s) * len(cols)].reshape(Z.shape[0], e - s, -1)
            # cols are in range: mode="clip" skips the buffered copy that "raise" makes
            ridge.feed(s, e, np.take(Z, cols, axis=2, out=buf, mode="clip"), Y)


def _run_arms(F: np.ndarray, Ys: np.ndarray, arms, refit_period: int, rows=None):
    """The ridges of `_Arms` on the whole ensemble Ys (n, H, p), every row
    pushed at once."""
    stream = _Arms(F, Ys.shape, arms, refit_period, rows)
    stream.push(Ys)
    return stream.ridges


class SpectralPredictor:
    """The learner: a linear readout over a filter bank's features, fit
    online by ridge; the bank is the Hilbert eigenfilters, or AR(k)'s
    identity (`SpectralPredictor.ar`).

    Histories shorter than the filter window are zero padded, and the
    prediction is zero until the first refit.  Multi-dimensional outputs use
    per-coordinate feature concatenation and a matrix readout.
    """

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
        self.label = "spectral"

    @classmethod
    def ar(
        cls,
        k: int,
        obs_dim: int = 1,
        reg: float = DEFAULT_REG,
        refit_period: int = DEFAULT_REFIT_PERIOD,
    ) -> SpectralPredictor:
        """AR(k), labelled "ar{k}": the learner over `FilterBank.identity(k)`."""
        pred = cls(FilterBank.identity(k), obs_dim, reg, refit_period)
        pred.label = f"ar{k}"
        return pred

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
        F = self.bank.filter_matrix()
        (ridge,) = _run_arms(F, Ys, [(None, self.reg)], self.refit_period)
        return ridge.preds, ridge.w


class BaselinePredictor:
    """The zero and last-value predictors: frozen arms (see `_Arms`) over
    `FilterBank.identity(1)`, whose features are the last observation, with
    readout 0 or I_p.  They fit nothing, so a measurement that reads a
    learner's readout refuses them."""

    refit_period = DEFAULT_REFIT_PERIOD  # the frozen arm's block; no prediction depends on it

    def __init__(self, kind: str, obs_dim: int = 1):
        if kind not in ("zero", "last_value"):
            raise ContractViolation(f"unknown baseline kind {kind!r}")
        self.kind = self.label = kind
        self.obs_dim = obs_dim
        self.bank = FilterBank.identity(1)

    @property
    def readout(self) -> np.ndarray:
        """The fixed (p, p) readout of the last observation: 0, or I_p for last_value."""
        p = self.obs_dim
        return np.zeros((p, p)) if self.kind == "zero" else np.eye(p)

    def run_ensemble(self, Ys: np.ndarray) -> np.ndarray:
        """Predictions for (n, H, p) observation arrays; pure function of Ys."""
        Ys = _check_ensemble(Ys, self.obs_dim)
        arm = (None, 0.0, self.readout)
        (ridge,) = _run_arms(self.bank.filter_matrix(), Ys, [arm], self.refit_period)
        return ridge.preds
