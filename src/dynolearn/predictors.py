"""Predictors: one class, a linear readout over fixed filters, serves the
learner and its baselines.

The learner is improper by construction: its entire state is the fixed
filter bank (the Hilbert eigenfilters, or for AR(k) the identity, whose
features are the last k observations) plus the least-squares readout
accumulators (Gram, moment, weights).  It never forms estimates of the
system matrices or the latent state, so its memory footprint is independent
of the hidden dimension.  The zero and last-value baselines fit nothing:
they are the same `SpectralPredictor` with a fixed readout, frozen arms of
the same engine, as is the kernel oracle (`oracles.KernelOracle`).

Readout fitting uses a scale-free ridge that decays relative to the Gram:
    ridge(t) = reg * trace(Gram_t) / (q * t^(3/4))
with q the feature dimension.  Early fits (where windowed features are
heavily collinear) are strongly damped while the relative shrinkage
vanishes like t^(-3/4), keeping the asymptotic readout unbiased.

`SpectralPredictor.stream` drives every trajectory of an (n, H, p)
ensemble through one blocked engine, `_Arms`, one refit period at a time.
It is the predictor's one way to run: a caller pushes the rows (`push`) and
reads the kept predictions (`reader`) or a ridge's readouts.  The block kernel
`spectral._feature_blocks` convolves the block's observations and the
window - 1 before it with the bank's filter matrix.  `_Arms` predicts each
block with the readouts of one `_EnsembleRidge` per arm, adds it to one
per-trajectory Gram and moment of all the convolution's features, and
refits each learned arm from its columns' block of them: arms that read
different columns of one convolution (the filter counts of m*) share the
convolution and the accumulation.  `_Arms` is a stream, as the Kalman
predictor's run in `oracles` is: it takes the ensemble's rows as they
arrive, in pieces of any length (an array pushed whole, or a Lorenz grid
block by block as its recursion records them), so the ensemble need never
be held.  A frozen arm is given a fixed readout: it predicts its read blocks
from that readout and never adds to the accumulation or refits
(the bias/variance split's w*-readout; the zero and last-value baselines,
whose readout 0 or I_p reads the last observation, the one feature of
`FilterBank.identity(1)`; and the kernel oracle, whose filter matrix is its
taps and whose 0/1 readout sums the features that make its convolution).
Given the free responses of a grid of initial states, the arms run on every
ensemble base + free[j] from one convolution of the base and one of the
free responses per block (superposition, see `learnability`), fed one
ensemble's block at a time.
No (n, H, q) feature tensor is built: besides the kept predictions, the
working set is the stream's one Gram and moment, O(n * q^2) per ensemble for
q features however many arms, each learned arm's readouts, O(n * q * p),
and the block temporaries of one ensemble, O(n * (q^2 + window * p)) for a
fixed refit period, whatever H and however many ensembles.

A readout is a pure function of the Gram and moment accumulated up to its
refit, so a caller that reads only some rows (the harness reads the windows
after its grid times) passes them as `rows`, a boolean mask over the H
steps.  Every block still enters the Gram and moment, in order, but only
blocks holding a read row are predicted, only the read rows are kept, in
order, and the readouts are solved at a refit only when a read row lies in
the period it starts: the read rows keep the bits of the full run.  Without
`rows` every row is predicted and kept and every refit solved, the final one
included; with a mask that reads no row, a stream keeps no prediction and
only accumulates its Gram and moment (the bias/variance split's reference
fit).
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
    """The readouts of one arm on every trajectory of an (n, H, p) ensemble,
    and its predictions of the rows its stream keeps.

    `_Arms` predicts each read block with `w` and writes the kept rows to
    `preds` (n, R, p), the R rows that the stream's mask marks, in order
    (every row without one).  At a solved refit at step e,
    `solve(e, gram, moment, at)` refits the readouts of the trajectories
    `at` (a slice) from the Gram (., q, q) and moment (., q, p) of this
    arm's q features, which it leaves as they are: the ridge joins the
    diagonal of a copy.  Every trajectory is its own batch entry of the
    solves, so a refit may be solved in slices of trajectories, in any
    order, with the bits of one solve of them all; `solves` counts the
    refits solved, once per refit whatever the slices.  Given a (q, p)
    `readout`, the ridge is frozen: every trajectory's `w` is that readout,
    and it is never solved.
    """

    def __init__(self, shape, q: int, reg: float, readout=None):
        if not 0.0 <= reg < np.inf:  # NaN fails both comparisons
            raise ContractViolation(f"reg must be nonnegative and finite, got {reg}")
        n, R, p = shape
        self.q, self.reg = q, reg
        self.preds = np.zeros((n, R, p))
        self.frozen = readout is not None
        self.w = np.broadcast_to(readout, (n, q, p)) if self.frozen else np.zeros((n, q, p))
        self.solves = 0
        self._solved_at = 0  # the step of the last refit counted in solves

    def solve(self, e: int, gram: np.ndarray, moment: np.ndarray, at: slice) -> None:
        """Refit the readouts of the trajectories `at` at step e."""
        w = self.w[at]
        traces = np.trace(gram, axis1=1, axis2=2)
        active = traces > 0.0
        if active.any():
            lhs = gram[active]  # a copy: the ridge joins its diagonal
            diag = np.arange(self.q)
            lhs[:, diag, diag] += _effective_ridge(self.reg, traces[active], self.q, e)[:, None]
            self.solves += self._solved_at != e  # one refit, however many slices
            self._solved_at = e
            try:
                w[active] = np.linalg.solve(lhs, moment[active])
            except np.linalg.LinAlgError as exc:
                # only reachable with reg == 0 and a singular Gram
                raise SingularSystem(
                    f"readout refit at step {e} is singular (reg={self.reg:g})"
                ) from exc


def _check_obs_dim(p: int, obs_dim: int) -> None:
    if p != obs_dim:
        raise ContractViolation(f"observation dim {p} does not match predictor ({obs_dim})")


class _Arms:
    """The streaming ridge of each arm on an (n, H, p) ensemble whose rows
    arrive in order, from one convolution by the filter matrix F per refit
    block; `ridges` holds one `_EnsembleRidge` per arm.

    An arm is (cols, reg), or (cols, reg, readout) for a frozen arm: its
    features are columns `cols` of each block's features, or all of them
    when cols is None.  If an arm learns, the stream keeps the normal
    equations of all the features, one Gram `gram` (N, qf, qf) and moment
    `moment` (N, qf, p) for its N trajectories, and adds each block to them
    once, with the products that an arm of all the features alone would
    make.  At a solved refit each learned arm solves from them: a full arm
    (cols None) from the whole, with the bits of its run alone, a column arm
    from a C-order copy of its block, `gram[:, cols][:, :, cols]` and
    `moment[:, cols]`, which agrees with a Gram of its own up to rounding.
    Whether a block is read and whether its refit is solved are decided once
    per block for every arm (see the module docstring), and a column arm
    takes its columns only of the blocks it predicts.  With no learned arm
    (the baselines, the kernel oracle) `gram` and `moment` are None.

    `SpectralPredictor.stream` makes the learners' and baselines' `_Arms`,
    `oracles.KernelOracle.stream` the kernel's, one frozen arm over its taps.
    Each ridge keeps the predictions of the rows in the mask `rows` (every
    row when None).  `push(ys)` takes the next rows (n, L, p), any L: only
    one block of features and the rows it reads are alive at a time, so the
    ensemble need never be held whole.  A Lorenz grid pushes the blocks of
    its recursion, x0-major: trajectory j * n + i of a stacked run is
    trajectory i of x0 j, and every trajectory is its own batch entry of the
    stream's products and solves, so each keeps the bits it has in a run of
    its x0 alone.  Such a stacked run is fed whole, so its block temporaries
    are those of all its trajectories.

    With k free responses, `push(ys, free)` also takes their next rows
    (k, L, p), the same L as ys, and the arms run on the k ensembles
    ys + free[j], stacked x0-major in the same way.  Features are linear in
    the observations, so ensemble j's block features are the base's plus
    free[j]'s: each block convolves the base once and the free responses
    once, then feeds the arms one ensemble's sums and targets at a time, as
    trajectories j * n .. (j + 1) * n.  Only the Gram, moment, readouts and
    kept predictions grow with k; every block temporary is one x0's
    ensemble's, and neither the slices nor their order moves a bit.  The
    features round differently from those of a convolution of Ys + free[j],
    so the predictions agree with a run on Ys + free[j] up to rounding
    (within 1e-12 of max(1, |predictions|); measured 3e-15), and exactly for
    an identity F (AR and the baselines), whose products are exact.
    """

    def __init__(self, F: np.ndarray, shape, arms, refit_period: int, rows=None, k=None):
        if refit_period < 1:
            raise ContractViolation(f"refit_period must be >= 1, got {refit_period}")
        n, H, p = shape
        N, qf = n if k is None else k * n, F.shape[1] * p
        kept = (N, H if rows is None else int(np.count_nonzero(rows)), p)
        self.refit_period, self.rows = refit_period, rows
        self.runs = []
        for cols, reg, *readout in arms:
            q = qf if cols is None else len(cols)
            self.runs.append((_EnsembleRidge(kept, q, reg, *readout), cols))
        self.ridges = [ridge for ridge, _ in self.runs]
        # the normal equations of every learned arm: one Gram and moment, none if none learns
        learns = any(not ridge.frozen for ridge in self.ridges)
        self.gram = np.zeros((N, qf, qf)) if learns else None
        self.moment = np.zeros((N, qf, p)) if learns else None
        # the column arms' features, one arm's at a time, of the n trajectories fed at once
        widest = max([len(cols) for _, cols in self.runs if cols is not None], default=0)
        self.cols_buf = np.empty(n * refit_period * widest)
        self.blocks = _feature_blocks(F, shape, refit_period)
        if k is not None:
            self.free_blocks = _feature_blocks(F, (k, H, p), refit_period)
            self.Zj = np.empty((n, refit_period, qf))
            self.Yj = np.empty((n, refit_period, p))

    def push(self, ys: np.ndarray, free=None) -> None:
        """Feed the next rows ys (n, L, p), with the free responses' (k, L, p)."""
        if free is None:
            for s, e, Z, Y in self.blocks(ys):
                self._feed(s, e, Z, Y)
            return
        n = ys.shape[0]
        blocks = zip(self.blocks(ys), self.free_blocks(free), strict=True)  # both run to the end
        for (s, e, Z, Y), (_, _, Zf, Yf) in blocks:
            L = e - s
            for j in range(len(Zf)):  # ensemble j's features and targets, x0-major
                Zj = np.add(Z, Zf[j], out=self.Zj[:, :L])
                Yj = np.add(Y, Yf[j], out=self.Yj[:, :L])
                self._feed(s, e, Zj, Yj, slice(j * n, (j + 1) * n))

    def reader(self):
        """The kept predictions by trajectories x0 (a slice) of the stacked
        ensemble, one array per arm.  It holds the predictions alone, not
        the ridges' state or the convolution's buffers."""
        preds = [ridge.preds for ridge in self.ridges]
        return lambda x0: [a[x0] for a in preds]

    def _reads(self, s: int) -> bool:
        """Whether the refit period starting at row s holds a read row."""
        return self.rows is None or bool(self.rows[s : s + self.refit_period].any())

    def _feed(self, s: int, e: int, Z: np.ndarray, Y: np.ndarray, at=slice(None)) -> None:
        """Absorb rows [s, e) of the trajectories `at` (a slice): Z[i, t - s]
        holds the features available before the observation Y[i, t - s] of
        the i-th of them.  It replays a per-step loop (predict, absorb the
        pair, refit every `refit_period` steps): within a refit period the
        readouts are constant, so the block is predicted and absorbed at once,
        and they are refit when e ends a period.  Results match the per-step
        loop up to summation order."""
        if self._reads(s):
            read, first = slice(None), s  # the block's kept rows, and where row s's goes
            if self.rows is not None:
                read, first = self.rows[s:e], int(np.count_nonzero(self.rows[:s]))
            for ridge, cols in self.runs:
                Za = Z  # the arm's features
                if cols is not None:
                    buf = self.cols_buf[: Z.shape[0] * Z.shape[1] * len(cols)]
                    # cols are in range: mode="clip" skips the buffered copy that "raise" makes
                    Za = np.take(Z, cols, axis=2, out=buf.reshape(*Z.shape[:2], -1), mode="clip")
                pred = (Za @ ridge.w[at])[:, read]
                ridge.preds[at, first : first + pred.shape[1]] = pred
        if self.gram is None:
            return
        gram, moment = self.gram[at], self.moment[at]
        Zt = Z.transpose(0, 2, 1)
        gram += Zt @ Z
        moment += Zt @ Y
        if e % self.refit_period or not self._reads(e):
            return
        for ridge, cols in self.runs:
            if ridge.frozen:
                continue
            if cols is not None:  # its block of the Gram and moment, copied in C order
                ridge.solve(e, gram.take(cols, 1).take(cols, 2), moment.take(cols, 1), at)
            else:
                ridge.solve(e, gram, moment, at)


class SpectralPredictor:
    """A linear readout over a filter bank's features: the learner, fit
    online by ridge over the Hilbert eigenfilters or AR(k)'s identity
    (`SpectralPredictor.ar`), or a zero or last-value baseline frozen at a
    fixed readout (`SpectralPredictor.baseline`).

    Histories shorter than the filter window are zero padded, and a
    learner's prediction is zero until the first refit.  Multi-dimensional
    outputs use per-coordinate feature concatenation and a matrix readout.
    The predictor runs as one `_Arms` stream of its `arms` (see `_Arms`):
    by default the learner's one arm, (None, reg); a baseline's is the
    frozen (None, 0.0, readout).  A measurement that runs more arms on one
    convolution constructs its run with them (m*'s filter counts, the
    bias/variance split's learner beside its frozen w*-readout).
    """

    def __init__(
        self,
        bank: FilterBank,
        obs_dim: int = 1,
        reg: float = DEFAULT_REG,
        refit_period: int = DEFAULT_REFIT_PERIOD,
        arms=None,
    ):
        if obs_dim < 1:
            raise ContractViolation(f"obs_dim must be >= 1, got {obs_dim}")
        self.bank = bank
        self.obs_dim = obs_dim
        self.reg = reg
        self.refit_period = refit_period
        self.label = "spectral"
        self.arms = [(None, reg)] if arms is None else list(arms)

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

    @classmethod
    def baseline(cls, kind: str, obs_dim: int = 1) -> SpectralPredictor:
        """The zero or last-value baseline, labelled `kind`: frozen at the
        readout 0 or I_p over `FilterBank.identity(1)`, whose feature is the
        last observation.  It fits nothing, so a measurement that reads a
        learner's readout refuses it."""
        if kind not in ("zero", "last_value"):
            raise ContractViolation(f"unknown baseline kind {kind!r}")
        readout = np.zeros((obs_dim, obs_dim)) if kind == "zero" else np.eye(obs_dim)
        pred = cls(FilterBank.identity(1), obs_dim, arms=[(None, 0.0, readout)])
        pred.label = kind
        return pred

    @property
    def state_size(self) -> int:
        """Readout scalars kept per trajectory: the one Gram and moment of
        its qf features, qf^2 + qf p, if an arm learns, and q p for the
        readout of each learned arm of q features; a frozen arm keeps none.
        Independent of the hidden dimension of whatever generated the data."""
        p, qf = self.obs_dim, self.bank.feature_count * self.obs_dim
        learned = [cols for cols, _, *readout in self.arms if not readout]
        qs = [qf if cols is None else len(cols) for cols in learned]
        return (qf * qf + qf * p if qs else 0) + sum(q * p for q in qs)

    def stream(self, shape, rows=None, k=None) -> _Arms:
        """The `_Arms` of this predictor's arms on an (n, H, p) ensemble."""
        _check_obs_dim(shape[2], self.obs_dim)
        F = self.bank.filter_matrix()
        return _Arms(F, shape, self.arms, self.refit_period, rows, k)
