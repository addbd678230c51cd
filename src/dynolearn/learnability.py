"""Monte Carlo measurement of excess prediction risk and burn-in complexity.

Excess risk, m* and the bias/variance split are one measurement: the worst
case over initial states of a gap between two per-trajectory losses on one
seeded ensemble.  Excess risk is taken over a reference class, the
pointwise-best reference at each (x0, grid time): the oracle alone gives
the realizable excess, a class of baselines the agnostic gap.  `_evaluate`
simulates the admissible x0 in one call, runs the predictors and learner
arms, and returns one tensor [arm, x0, traj, g] of squared losses averaged
over a short window at each grid time; `_worst_case` reduces two arms to
the largest mean gap over x0, its 95% CI and both means.

Every run goes through one interface, its stream (`run.stream(shape,
rows, k)`): it is pushed the ensemble's rows in order and keeps its
predictions on the rows a loss reads.  A learner or a zero or last-value
baseline is a `SpectralPredictor`, whose stream is `predictors._Arms` (the
baseline's a frozen arm), the kernel oracle is a frozen arm of
`predictors._Arms` too, and the Kalman predictor and the truth oracle have
the streams of `oracles`: the truth oracle's, `oracles._KeptRows`, keeps
the read observations themselves, and the observations the losses read
are one more such stream.  One feeder, `_feed`, pushes every stream the
same blocks, a group of x0 at a time, trajectory j * n + i of a group being
trajectory i of its x0 j; a system type supplies only its blocks.  For a
linear system, x0 moves the observations only through its free response
C A^t x0, since every x0 shares the noise, so the ensemble is simulated
once, from x0 = 0, and a group is one block, that base and the group's
stacked free responses together; every stream is linear in the
observations, so x0 j reads the sum (an arm's features of the base plus
those of free[j]; the Kalman predictions of the base plus those of
free[j]), and no predictor runs once per x0.  A Lorenz group is the blocks
of one stacked RK4 recursion, each pushed as it is recorded, so no run
sees a whole (..., H, p) array.

A measurement reads only the rows [t, t + window) after its grid times
(m*: the rows from t_eval), so it builds that mask once, `_read_rows`, and
every prediction is kept on those rows only, in order; the losses read the
window of grid time t at its position among them.  The learners predict
only blocks that hold a read row and solve a refit only when a read row
uses it; every block still enters their Gram and moment, so the read rows
keep the bits of a full run.  Every learner, in every measurement, runs as
an arm of `predictors._Arms`, and arms of one learner share one
convolution per block.  A measurement that needs more arms than the
learner's one runs a `SpectralPredictor` over the learner's bank
constructed with those arms: m*'s sweep reads every filter count's
columns (its first m filters) from the block of the learner it is given,
and the bias/variance split runs its online learner beside a frozen arm
that predicts with the fixed w*-readout.  The split's reference fit is one
more learner's stream, on the long reference run, with a mask that reads
no row: it only sums the Gram and moment that w* is solved from.  A
learner's state for the whole grid is one Gram and moment per (x0, traj),
which all its arms solve from, plus each arm's readouts, so the grid runs
in groups of x0 whose `state_size`, summed over the learners, fits
`_GROUP_BYTES`, by one rule for both system types: the whole grid on the
benchmark's workloads, m*'s sweep over 20 filter counts included, until
the ensemble or the bank grows large.  Every stream
runs once per group; each group of a Lorenz grid is its own recursion,
from fresh trajectory streams.

Identical (inputs, master_seed) reproduce every result bit for bit, at any
worker count: trajectory random streams are pre-assigned by index, the
noise draws are split by trajectory, and an LDS block's tasks split the
work by stream, never within a sum.
Every x0 deliberately sees the same noise realizations
(common random numbers), so differences across the grid come from the
initial state alone; the simulator draws that noise one time chunk at a
time as it goes, and none of it outlives the simulation.  So a Lorenz
measurement holds nothing that grows with the horizon but the read-row
mask; an LDS measurement holds its simulated (n, H, p) base and free
(k, H, p) observations.
Superposition moves an LDS result by
rounding only: summing the learners' features of the base and of the free
response, instead of convolving each x0's observations, moved the committed
configs' LDS outputs by at most a relative 6.1e-13 (d50's `biasvar.csv`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, IncompatiblePairing
from .numerics import SeededRng, _parallel_map, solve_normal_system
from .oracles import KalmanPredictor, KernelOracle, TruthOracle
from .predictors import SpectralPredictor
from .spectral import _bank_columns
from .systems import (
    LdsSpec,
    LorenzSpec,
    _distinct,
    _lorenz_observations,
    _write_table,
    _x0,
    initial_states,
    lds_free_responses,
    simulate_ensemble,
)

DEFAULT_WINDOW = 16
DEFAULT_N_TRAJ = 200
CI_Z = 1.96  # two-sided 95% normal quantile

_TRAJ_NS = 0  # child-stream namespace for ensemble trajectories
_REF_NS = 2**31  # child-stream namespace for reference runs
_REF_BLOCK = 256  # rows of the reference run's features alive at a time
_GROUP_BYTES = 8 << 20  # ridge state, over every trajectory, of one group of x0 at most


# ---------------------------------------------------------------------------
# result containers


@dataclass(eq=False)
class RiskCurve:
    """Excess-risk estimates on a time grid, worst case over initial states."""

    t_grid: np.ndarray
    excess_mean: np.ndarray
    excess_ci_half: np.ndarray
    raw_alg: np.ndarray
    raw_oracle: np.ndarray
    n_traj: int | None  # None for a curve loaded from CSV, which does not record it
    oracle_label: str = "oracle"

    def write_csv(self, path) -> None:
        cols = (self.t_grid, self.excess_mean, self.excess_ci_half, self.raw_alg, self.raw_oracle)
        _write_table(path, ["t", "excess_mean", "excess_ci", "raw_alg", "raw_oracle"], zip(*cols))


def read_risk_curve_csv(path) -> RiskCurve:
    """Load a risk-curve CSV (grid and loss columns only; `n_traj` is None).

    An unreadable file or a non-numeric cell is a ConfigError; a file with
    no rows below its header is refused, and its `t` column must be a grid
    as `_validate_grid` takes one, of integers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's, for a file with no rows
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read risk curve {path}: {exc}") from exc
    if rows.size == 0:
        raise ContractViolation(f"risk curve {path} has no rows")
    if rows.shape[1] != 5:
        raise ContractViolation(f"risk-curve CSV must have 5 columns, got {rows.shape[1]}")
    t = rows[:, 0]
    if not (np.isfinite(t) & (t == np.round(t))).all():
        raise ContractViolation("the risk curve's t column must hold integers")
    return RiskCurve(
        t_grid=_validate_grid(t.astype(int), 1)[0],
        excess_mean=rows[:, 1],
        excess_ci_half=rows[:, 2],
        raw_alg=rows[:, 3],
        raw_oracle=rows[:, 4],
        n_traj=None,
        oracle_label="loaded",
    )


@dataclass(frozen=True)
class BurnInReport:
    """Smallest grid time after which the excess stays below epsilon."""

    epsilon: float
    t_star: float  # a grid time, or math.inf when never reached
    uniform_checked_to: int

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.t_star)


def write_burn_in_csv(reports, path) -> None:
    rows = (
        (r.epsilon, int(r.t_star) if r.is_finite else "inf", r.uniform_checked_to) for r in reports
    )
    _write_table(path, ["epsilon", "t_star", "uniform_checked_to"], rows)


@dataclass(eq=False)
class MStarReport:
    """Terminal excess risk as a function of the filter count."""

    epsilon: float
    t_eval: int
    m_values: np.ndarray
    excess: np.ndarray
    ci_half: np.ndarray
    m_star: int | None  # smallest m achieving excess <= epsilon, None if none

    def write_csv(self, path) -> None:
        achieved = ("yes" if e <= self.epsilon else "no" for e in self.excess)
        rows = zip(self.m_values, self.excess, self.ci_half, achieved)
        _write_table(path, ["m", "excess", "ci", "achieved"], rows)

    def write_summary_csv(self, path) -> None:
        star = "none" if self.m_star is None else self.m_star
        _write_table(path, ["epsilon", "t_eval", "m_star"], [(self.epsilon, self.t_eval, star)])


@dataclass(eq=False)
class BiasVarianceReport:
    """Approximation (bias) and estimation (variance) components on a grid."""

    t_grid: np.ndarray
    bias: np.ndarray
    bias_ci_half: np.ndarray
    variance: np.ndarray
    variance_ci_half: np.ndarray
    n_traj: int

    def write_csv(self, path) -> None:
        cols = (self.t_grid, self.bias, self.bias_ci_half, self.variance, self.variance_ci_half)
        _write_table(path, ["t", "bias", "bias_ci", "variance", "variance_ci"], zip(*cols))


# ---------------------------------------------------------------------------
# shared machinery


def _validate_grid(t_grid, window: int) -> tuple[np.ndarray, int]:
    grid = np.asarray(list(t_grid), dtype=int)
    if grid.size < 1:
        raise ContractViolation("t_grid must be nonempty")
    if grid[0] < 1 or (np.diff(grid) <= 0).any():
        raise ContractViolation("t_grid must be strictly increasing with entries >= 1")
    if window < 1:
        raise ContractViolation(f"window must be >= 1, got {window}")
    return grid, int(grid[-1] + window)


def _read_rows(grid: np.ndarray, window: int, horizon: int):
    """The rows [t, t + window) that a grid loss reads, as a mask over the
    horizon, and where each grid time's window starts among the read rows."""
    rows = np.zeros(horizon, dtype=bool)
    for t in grid:
        rows[t : t + window] = True
    return rows, np.cumsum(rows)[grid] - 1


def _grid_losses(preds: np.ndarray, Ys: np.ndarray, starts, window: int) -> np.ndarray:
    """Per-trajectory squared losses averaged over [s, s + window) per start s.

    Only the rows of those windows are read, so the temporaries are
    (n, window, p).
    """

    def window_loss(s):
        err = preds[:, s : s + window] - Ys[:, s : s + window]
        return (err**2).sum(axis=2).mean(axis=1)

    return np.stack([window_loss(s) for s in starts], axis=1)


def _resolve_states(system, x0_grid) -> list[np.ndarray]:
    """The distinct initial states in a canonical order.

    `_worst_case` takes the first x0 on an exact tie, so the order must not
    be the caller's: an explicit grid is sorted lexicographically, and a
    system's own grid has one fixed order.
    """
    if x0_grid is None:
        return initial_states(system)
    states = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x0_grid]
    if not states:
        raise ContractViolation("x0_grid must be nonempty")
    for x0 in states:
        if x0.shape != (system.d,):
            raise ContractViolation(f"x0 has shape {x0.shape}, expected ({system.d},)")
    return sorted(_distinct(states), key=tuple)


def _traj_rngs(master: SeededRng, n_traj: int) -> list[SeededRng]:
    # trajectory i always draws from child stream i: one draw of these
    # streams gives the noise that every initial state shares
    return [master.child(_TRAJ_NS, i) for i in range(n_traj)]


def _evaluate(
    system, states, horizon: int, n_traj: int, master, n_workers: int, rows, runs, losses
):
    """Loss tensor [arm, x0, traj, g] of `losses` on one shared ensemble.

    `rows` masks the R steps that a loss reads.  `runs` lists the
    predictors that predict them, each run by its stream,
    `run.stream(...)` (a learner may carry several arms).  For each x0,
    `losses(ys, preds)` maps its observations on the read rows, ys
    (n_traj, R, p), and their predictions, one (n_traj, R, p) array per
    predictor arm in the order of `runs`, to one (n_traj, G) array per loss
    arm.

    Runs that name one object share one stream.  The observations are one
    more: a truth oracle's, a `TruthOracle` among `runs` or else one of its
    own.  `_feed` pushes the rows to every stream and gives each x0's
    predictions.  The ensemble's noise is drawn on n_workers threads.
    """
    if n_traj < 2:
        raise ContractViolation(f"n_traj must be >= 2, got {n_traj}")
    for r in runs:
        if not hasattr(r, "stream"):
            raise ContractViolation(f"{type(r).__name__} is not a predictor: it has no stream")
    truth = next((r for r in runs if isinstance(r, TruthOracle)), TruthOracle())
    streamed = {id(r): r for r in (*runs, truth)}
    L = []
    for preds in _feed(system, states, horizon, master, n_traj, n_workers, rows, streamed):
        (ys,) = preds[id(truth)]
        L.append(np.stack(losses(ys, [a for r in runs for a in preds[id(r)]])))
    return np.stack(L, axis=1)


def _feed(system, states, horizon, master, n, n_workers, rows, runs):
    """Each x0's {run id: predictions} of the grid `states`.

    The grid runs in groups of x0 (`_x0_groups`; one group unless the
    ensemble and the bank are large), each pushed to every run's stream as
    blocks of its stacked ensemble (`_push`); a system type supplies only
    its blocks.  An LDS is simulated once from x0 = 0 (the base), and the
    grid's free responses C A^t x0 once as one (k, H, p) array: a group is
    one block, the whole base with the group's free responses, whose pushes
    run as tasks on n_workers threads.  A Lorenz group is the blocks of its
    own stacked RK4 recursion, from fresh trajectory streams so that every
    x0 sees the same noise, pushed one after another as the recursion
    records them: trajectory j * n + i is trajectory i of the group's x0 j.
    Each trajectory of each x0 is its own batch entry in a stream's products
    and solves, so the bits depend neither on the groups nor on the tasks'
    order.
    """
    k, p, lds = len(states), system.p, isinstance(system, LdsSpec)
    if lds:
        rngs = _traj_rngs(master, n)
        base = simulate_ensemble(system, horizon, np.zeros(system.d), rngs, n_workers=n_workers)
        free = lds_free_responses(system, horizon, states)
    for group in _x0_groups(runs.values(), k, n):
        size = len(states[group])
        if lds:
            readers = _push(runs, [(0, base, free[group])], base.shape, rows, size, n_workers)
        else:
            stack = np.stack([_x0(system, x0) for x0 in states[group]])
            observed = _lorenz_observations(system, horizon, stack, _traj_rngs(master, n), n_workers)
            blocks = ((t0, Y.reshape(size * n, -1, p), None) for t0, Y, _ in observed)
            readers = _push(runs, blocks, (size * n, horizon, p), rows, None, 1)
        for j in range(size):
            yield {key: read(slice(j * n, (j + 1) * n)) for key, read in readers.items()}


def _push(runs, blocks, shape, rows, k, n_workers):
    """Push the blocks (t0, ys, free) of a stacked (N, H, p) ensemble, and of
    its k free responses when k is given, to a stream of each of `runs`, and
    return each run's reader.  A block's pushes run as tasks on n_workers
    threads.  A stream is made by its first block (t0 = 0), and after its
    last only its reader is kept, so a task holds one stream at a time."""
    kept = {}  # each run's stream until its last block, then its reader

    def push(task):
        key, t0, ys, free = task
        stream = kept[key] if t0 else runs[key].stream(shape, rows, k)
        stream.push(ys, free)
        kept[key] = stream if t0 + ys.shape[1] < shape[1] else stream.reader()

    for t0, ys, free in blocks:
        _parallel_map(push, [(key, t0, ys, free) for key in runs], n_workers)
    return kept


def _x0_groups(runs, k: int, n: int) -> list[slice]:
    """The x0 grid in contiguous groups whose ridge state (`state_size`: a
    stream's Gram and moment, its arms' readouts) of the learners among
    `runs` on n trajectories fits in `_GROUP_BYTES`, at least one x0 each."""
    per_x0 = 8 * n * sum(r.state_size for r in runs if isinstance(r, SpectralPredictor))
    size = max(1, _GROUP_BYTES // per_x0) if per_x0 else k
    return [slice(j, min(j + size, k)) for j in range(0, k, size)]


def _refuse_fixed(learner, measurement: str) -> None:
    """Refuse a predictor whose readout `measurement` cannot read: one that
    is not a `SpectralPredictor`, or one none of whose arms learns (a
    baseline frozen at a fixed readout)."""
    if not isinstance(learner, SpectralPredictor) or all(len(a) == 3 for a in learner.arms):
        name = getattr(learner, "label", type(learner).__name__)
        raise IncompatiblePairing(f"{measurement} needs a learner, not {name}")


def _versus_ys(starts, window: int):
    """`losses` for `_evaluate`: one arm per prediction, its grid losses on the observations."""

    return lambda ys, preds: [_grid_losses(pr, ys, starts, window) for pr in preds]


def _worst_case(a: np.ndarray, b: np.ndarray):
    """Worst case over x0 of the mean gap between two [x0, traj, g] loss tensors.

    Per grid time, at the x0 with the largest `a.mean - b.mean` (on exact
    ties, the first in `_resolve_states`' canonical order), returns that gap,
    a 95% CI half-width from the per-trajectory differences, and the two
    means.
    """
    ma, mb = a.mean(axis=1), b.mean(axis=1)
    gap = ma - mb  # not the mean of a - b: the excess is then exactly raw_a - raw_b
    sel = gap.argmax(axis=0)
    g = np.arange(gap.shape[1])
    ci = CI_Z * (a - b)[sel, :, g].std(axis=1, ddof=1) / math.sqrt(a.shape[1])
    return gap[sel, g], ci, ma[sel, g], mb[sel, g]


def resolve_oracle(system, kind: str = "auto"):
    """Construct the reference predictor for a system.

    "auto" picks the conditional-mean predictor where one is available
    (Kalman for linear systems, perfect prediction for deterministic ones)
    and refuses otherwise.  "zero" always works: it assigns the reference
    zero loss so the excess curve reports the algorithm's raw risk.
    """
    if kind == "auto":
        if isinstance(system, LdsSpec):
            return KalmanPredictor(system)
        if isinstance(system, LorenzSpec) and system.is_noiseless:
            return TruthOracle(system)
        raise IncompatiblePairing(
            "no optimal reference predictor for this system; use oracle='zero' for raw risk"
        )
    if kind == "kalman":
        return KalmanPredictor(system)
    if kind == "kernel":
        return KernelOracle(system)
    if kind == "truth":
        return TruthOracle(system)
    if kind == "zero":
        return TruthOracle()
    raise ConfigError(f"unknown oracle kind {kind!r}")


# ---------------------------------------------------------------------------
# operations


def estimate_excess_risk(
    system,
    algorithm,
    references,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    n_workers: int = 1,
) -> RiskCurve:
    """Excess risk of `algorithm` over a reference class, worst case over initial states.

    The comparator at each (x0, grid time) is the reference with the least
    mean loss there: `(oracle,)` gives the realizable excess over the
    optimal predictor, a class of baselines the agnostic gap.  Every
    predictor runs on the same `n_traj` seeded trajectories; the curve
    reports, per grid time, the largest per-x0 mean excess together with
    that x0's raw losses and a 95% CI half-width from the per-trajectory
    loss differences.  The label is a lone reference's own, else
    `best_of(...)` of theirs.
    """
    references = list(references)
    if not references:
        raise ContractViolation("references must be nonempty")
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    rows, starts = _read_rows(grid, window, horizon)
    runs, master = (algorithm, *references), SeededRng(master_seed)
    L = _evaluate(
        system, states, horizon, n_traj, master, n_workers, rows, runs, _versus_ys(starts, window)
    )
    best = L[1:].mean(axis=2).argmin(axis=0)  # (x0, g): the reference with the least mean loss
    comparator = np.take_along_axis(L[1:], best[None, :, None, :], axis=0)[0]
    excess, ci, raw_alg, raw_best = _worst_case(L[0], comparator)
    labels = [getattr(r, "label", "reference") for r in references]
    return RiskCurve(
        t_grid=grid,
        excess_mean=excess,
        excess_ci_half=ci,
        raw_alg=raw_alg,
        raw_oracle=raw_best,
        n_traj=n_traj,
        oracle_label=labels[0] if len(labels) == 1 else f"best_of({','.join(labels)})",
    )


def burn_in_time(curve: RiskCurve, epsilon: float) -> BurnInReport:
    """Smallest grid time from which the excess stays <= epsilon on the grid."""
    if not epsilon > 0:
        raise ContractViolation(f"epsilon must be > 0, got {epsilon}")
    ok = curve.excess_mean <= epsilon
    t_star = math.inf
    for g in range(len(ok)):
        if ok[g:].all():
            t_star = float(curve.t_grid[g])
            break
    return BurnInReport(
        epsilon=float(epsilon),
        t_star=t_star,
        uniform_checked_to=int(curve.t_grid[-1]),
    )


def minimal_filter_count(
    system,
    learner: SpectralPredictor,
    oracle,
    epsilon: float,
    m_range,
    t_eval: int,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    n_workers: int = 1,
) -> MStarReport:
    """Smallest filter count whose terminal excess risk is <= epsilon.

    Filter count m is the learner over the first m filters of its own bank,
    so the sweep needs max(m_range) <= `learner.bank.m`; for AR(k)'s
    identity bank the first m filters are the last m observations, and m is
    AR(m).  Shares trajectories and oracle losses across the m sweep so the
    reported table differs only through the filter count.  The filter counts
    are arms of one stream: they share its convolution and its one Gram and
    moment, and each solves its readouts from its columns' block of them, so
    the widest keeps the bits of the learner run alone and the others agree
    with a learner over their own bank up to rounding.
    """
    ms = sorted(int(m) for m in m_range)
    if not ms or ms[0] < 1:
        raise ContractViolation(f"m_range must be nonempty with entries >= 1, got {ms}")
    repeated = [a for a, b in zip(ms, ms[1:]) if a == b]
    if repeated:
        raise ContractViolation(f"m_range repeats the filter count {repeated[0]}")
    if not epsilon > 0:
        raise ContractViolation(f"epsilon must be > 0, got {epsilon}")
    _refuse_fixed(learner, "the m* sweep")
    bank = learner.bank
    if ms[-1] > bank.m:
        raise ContractViolation(f"m_range reaches {ms[-1]}, past the learner's {bank.m} filters")
    grid, horizon = _validate_grid([t_eval], window)
    states = _resolve_states(system, x0_grid)
    # every filter count reads its columns of the learner's convolution
    cols = [None if m == bank.m else _bank_columns(bank, m, learner.obs_dim) for m in ms]
    arms = [(c, learner.reg) for c in cols]
    sweep = SpectralPredictor(bank, learner.obs_dim, learner.reg, learner.refit_period, arms)
    rows, starts = _read_rows(grid, window, horizon)  # [t_eval, horizon)
    runs, master = (oracle, sweep), SeededRng(master_seed)
    L = _evaluate(
        system, states, horizon, n_traj, master, n_workers, rows, runs, _versus_ys(starts, window)
    )
    excess, ci = np.empty(len(ms)), np.empty(len(ms))
    for j in range(len(ms)):
        (excess[j],), (ci[j],), _, _ = _worst_case(L[1 + j], L[0])

    m_star = next((m for m, e in zip(ms, excess) if e <= epsilon), None)
    return MStarReport(
        epsilon=float(epsilon),
        t_eval=int(t_eval),
        m_values=np.asarray(ms),
        excess=excess,
        ci_half=ci,
        m_star=m_star,
    )


def bias_variance_split(
    system: LdsSpec,
    learner: SpectralPredictor,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    ref_multiplier: int = 10,
    n_workers: int = 1,
) -> BiasVarianceReport:
    """Split a learner's excess into approximation and estimation parts.

    The learner is any `SpectralPredictor` that fits its readout (the
    Hilbert bank, or AR(k) over the identity bank); a baseline or a
    reference predictor fits none and is refused.  The reference readout
    w* is fit by near-unregularized ridge on one long run (ref_multiplier
    >= 1 times the horizon), so it is the best fixed linear readout in
    feature space.  Its Gram and moment are those of an unregularized
    learner's stream over that run, in blocks of `_REF_BLOCK` rows, whose
    mask reads no row, so it never predicts or refits; w* is the Cholesky
    solve of them (`numerics.solve_normal_system`).  That run starts from the
    system's first grid state, so w* does not depend on the order of
    x0_grid.  On each x0's ensemble, the online learner and a frozen arm
    holding w* share one convolution per block.  Bias is the excess of the
    w*-readout over the conditional-mean predictor; variance is the mean
    squared gap between the online learner's predictions and the
    w*-readout's.
    """
    if not isinstance(system, LdsSpec):
        raise IncompatiblePairing("bias/variance split requires a linear system spec")
    if ref_multiplier < 1:
        raise ContractViolation(f"ref_multiplier must be >= 1, got {ref_multiplier}")
    _refuse_fixed(learner, "bias/variance split")
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    master = SeededRng(master_seed)

    # reference readout on a long run
    ref_rng = master.child(_REF_NS, 0)
    ref_x0 = initial_states(system)[0]
    ys_ref = simulate_ensemble(system, ref_multiplier * horizon, ref_x0, [ref_rng])
    no_read = np.zeros(ys_ref.shape[1], dtype=bool)
    fit = SpectralPredictor(learner.bank, system.p, 0.0, _REF_BLOCK).stream(ys_ref.shape, no_read)
    fit.push(ys_ref)
    gram, moment = fit.gram[0], fit.moment[0]
    tiny = 1e-8 * float(np.trace(gram)) / len(gram)
    w_star = solve_normal_system(gram, moment, ridge=tiny)
    kalman = KalmanPredictor(system)
    rows, starts = _read_rows(grid, window, horizon)
    # the online learner and the frozen w*-readout, on one convolution per block
    arms = [(None, learner.reg), (None, 0.0, w_star)]
    both = SpectralPredictor(learner.bank, learner.obs_dim, learner.reg, learner.refit_period, arms)

    def losses(ys, preds):
        learned, star, on_kalman = preds
        return [
            _grid_losses(star, ys, starts, window),
            _grid_losses(on_kalman, ys, starts, window),
            _grid_losses(learned, star, starts, window),  # squared pred diff
        ]

    runs = (both, kalman)
    L = _evaluate(system, states, horizon, n_traj, master, n_workers, rows, runs, losses)
    bias, bias_ci, _, _ = _worst_case(L[0], L[1])
    variance, var_ci, _, _ = _worst_case(L[2], np.zeros_like(L[2]))
    return BiasVarianceReport(
        t_grid=grid,
        bias=bias,
        bias_ci_half=bias_ci,
        variance=variance,
        variance_ci_half=var_ci,
        n_traj=n_traj,
    )
