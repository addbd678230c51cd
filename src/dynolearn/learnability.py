"""Monte Carlo measurement of excess prediction risk and burn-in complexity.

Excess risk, m*, the agnostic gap and the bias/variance split are one
measurement: the worst case over initial states of a gap between two
per-trajectory losses on one seeded ensemble.  `_evaluate` simulates the
admissible x0 in one call and then maps the "arms" (predictors, or losses
derived from them) over x0.
It returns one tensor [arm, x0, traj, g] of squared losses averaged over a
short window at each grid time; `_worst_case` reduces two arms to the
largest mean gap over x0, its 95% CI and both means.

For a linear system, x0 moves the observations only through its free
response C A^t x0, since every x0 shares the noise.  `_evaluate` therefore
simulates the ensemble once, from x0 = 0, and gives each x0 that base plus
its free response.  A predictor declared linear (see `oracles`) runs once on
the base and once on the stacked free responses, and each x0 gets the sum;
only the learners run once per x0.  The Lorenz grid is simulated directly,
in one stacked recursion.

The learners stream each x0's observations one refit block at a time (see
`predictors`), so an arm holds O(n * (q^2 + window * p)) besides the
(n, H, p) observations and predictions.  A measurement reads only the rows
[t, t + window) after its grid times (m*: the rows from t_eval), so it
builds that mask once, `_read_rows`, and the learners predict only blocks
that hold a read row and solve a refit only when a read row uses it; every
block still enters their Gram and moment, so the read rows and the tables
keep the bits of a full run.  Predictions are kept from the first read row
on.  Spectral arms of one x0 task share
one convolution per block: m*'s sweep reads every filter count's columns
from the largest bank's block, and the bias/variance split's w*-readout and
online learner read the same block.

Identical (inputs, master_seed) reproduce every result bit for bit, at any
worker count: trajectory random streams are pre-assigned by index.  Every x0
deliberately sees the same noise realizations (common random numbers), so
differences across the grid come from the initial state alone; the simulator
draws that noise inside its one call, an LDS's process noise one time chunk
at a time, and none of it outlives the call, so the arms run without it.
Superposition moves an LDS result by rounding only (at most a relative
4.9e-12 on the committed configs, in `biasvar.csv` on the scalar system)
against simulating each x0 on its own.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, IncompatiblePairing
from .numerics import SeededRng, _parallel_map, solve_normal_system
from .oracles import KalmanPredictor, KernelOracle, TruthOracle
from .predictors import DEFAULT_REFIT_PERIOD, DEFAULT_REG, _EnsembleRidge, _run_arms
from .spectral import _bank_columns, _feature_blocks, build_filter_bank
from .systems import (
    LdsSpec,
    LorenzSpec,
    _distinct,
    _write_table,
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
    n_traj: int
    oracle_label: str = "oracle"

    def write_csv(self, path) -> None:
        cols = (self.t_grid, self.excess_mean, self.excess_ci_half, self.raw_alg, self.raw_oracle)
        _write_table(path, ["t", "excess_mean", "excess_ci", "raw_alg", "raw_oracle"], zip(*cols))


def read_risk_curve_csv(path) -> RiskCurve:
    """Load a risk-curve CSV (grid and loss columns only)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != 5:
        raise ContractViolation(f"risk-curve CSV must have 5 columns, got {rows.shape[1]}")
    return RiskCurve(
        t_grid=rows[:, 0].astype(int),
        excess_mean=rows[:, 1],
        excess_ci_half=rows[:, 2],
        raw_alg=rows[:, 3],
        raw_oracle=rows[:, 4],
        n_traj=2,
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


def _read_rows(grid: np.ndarray, window: int, horizon: int) -> np.ndarray:
    """The rows [t, t + window) that a grid loss reads, as a mask over the horizon."""
    rows = np.zeros(horizon, dtype=bool)
    for t in grid:
        rows[t : t + window] = True
    return rows


def _grid_losses(preds: np.ndarray, Ys: np.ndarray, grid: np.ndarray, window: int) -> np.ndarray:
    """Per-trajectory squared losses averaged over [t, t + window) per grid time.

    Only the rows of those windows are read, so the temporaries are
    (n, window, p), not (n, H, p).
    """

    def window_loss(t):
        err = preds[:, t : t + window] - Ys[:, t : t + window]
        return (err**2).sum(axis=2).mean(axis=1)

    return np.stack([window_loss(t) for t in grid], axis=1)


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
    return sorted(_distinct(states), key=tuple)


def _traj_rngs(master: SeededRng, n_traj: int) -> list[SeededRng]:
    # trajectory i always draws from child stream i: one draw of these
    # streams gives the noise that every initial state shares
    return [master.child(_TRAJ_NS, i) for i in range(n_traj)]


def _evaluate(system, states, horizon: int, n_traj: int, master, n_workers: int, losses):
    """Loss tensor [arm, x0, traj, g] of `losses` on one shared ensemble.

    `losses(Ys, run)` maps one x0's observations Ys (n_traj, H, p) to one
    (n_traj, G) array per arm; `run(P, rows)` is P's predictions of Ys's rows
    first..H-1, first the first row of the mask `rows`, from
    `P.run_ensemble(Ys, rows)` for a learner (only the rows in `rows` are
    computed, see `predictors`) and `P.run_ensemble(Ys)[:, first:]` for a
    linear P.  Phases:
    1. Simulate, in one call that draws the ensemble's noise on n_workers
       threads.  Lorenz: every x0 in one stacked RK4 recursion.  LDS: the
       ensemble once from x0 = 0 (the base), and the grid's free responses
       C A^t x0 as one (k, H, p) array; an x0's Ys is the base plus its
       free response.
    2. Map each x0 to `losses(Ys, run)`, in parallel.  For an LDS, `run`
       of a linear predictor (`P.linear`, see `oracles`) adds P on the base
       and P on the free responses, each computed once per evaluation by
       whichever task first asks; any other P runs on Ys.
    """
    if n_traj < 2:
        raise ContractViolation(f"n_traj must be >= 2, got {n_traj}")
    rngs = _traj_rngs(master, n_traj)
    if not isinstance(system, LdsSpec):
        # (x0, traj, t, p), from one call
        grid_Ys = simulate_ensemble(system, horizon, np.stack(states), rngs, n_workers=n_workers)

        def direct(Ys):
            return np.stack(losses(Ys, lambda P, rows: _run_rows(P, Ys, rows)))

        return np.stack(_parallel_map(direct, grid_Ys, n_workers), axis=1)

    base = simulate_ensemble(system, horizon, np.zeros(system.d), rngs, n_workers=n_workers)
    free = lds_free_responses(system, horizon, states)
    runs, lock = {}, threading.Lock()

    def superposed(P):  # (P on the base, P on the free responses), once per P
        with lock:
            if id(P) not in runs:
                runs[id(P)] = (P, P.run_ensemble(base), P.run_ensemble(free))
            return runs[id(P)][1:]

    def task(j):
        Ys = base + free[j]

        def run(P, rows):
            if not getattr(P, "linear", False):
                return _run_rows(P, Ys, rows)
            on_base, on_free = superposed(P)
            first = int(np.argmax(rows))
            return on_base[:, first:] + on_free[j, first:]

        return np.stack(losses(Ys, run))

    return np.stack(_parallel_map(task, range(len(states)), n_workers), axis=1)


def _run_rows(P, Ys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """P's predictions of Ys's rows first..H-1, first the first row of `rows`:
    a linear P runs whole, a learner only where `rows` reads."""
    if getattr(P, "linear", False):
        return P.run_ensemble(Ys)[:, int(np.argmax(rows)) :]
    return P.run_ensemble(Ys, rows)


def _predictor_losses(predictors, grid: np.ndarray, window: int, horizon: int):
    """`losses` for `_evaluate`: one arm per predictor, its grid losses on Ys."""
    rows, first = _read_rows(grid, window, horizon), grid[0]

    def losses(Ys, run):
        return [_grid_losses(run(p, rows), Ys[:, first:], grid - first, window) for p in predictors]

    return losses


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
    oracle,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    n_workers: int = 1,
) -> RiskCurve:
    """Excess risk of `algorithm` over `oracle`, worst case over initial states.

    For each x0 on the grid, both predictors run on the same `n_traj` seeded
    trajectories; the curve reports, per grid time, the largest per-x0 mean
    excess together with that x0's raw losses and a 95% CI half-width from
    the per-trajectory loss differences.
    """
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    losses = _predictor_losses((algorithm, oracle), grid, window, horizon)
    L = _evaluate(system, states, horizon, n_traj, SeededRng(master_seed), n_workers, losses)
    excess, ci, raw_alg, raw_oracle = _worst_case(L[0], L[1])
    return RiskCurve(
        t_grid=grid,
        excess_mean=excess,
        excess_ci_half=ci,
        raw_alg=raw_alg,
        raw_oracle=raw_oracle,
        n_traj=n_traj,
        oracle_label=getattr(oracle, "label", "oracle"),
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
    epsilon: float,
    m_range,
    window_len: int,
    t_eval: int,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    oracle=None,
    reg: float | None = None,
    refit_period: int | None = None,
    sign_augmented: bool = False,
    n_workers: int = 1,
) -> MStarReport:
    """Smallest filter count whose terminal excess risk is <= epsilon.

    Shares trajectories and oracle losses across the m sweep so the reported
    table differs only through the filter count.
    """
    ms = sorted(int(m) for m in m_range)
    if not ms or ms[0] < 1:
        raise ContractViolation(f"m_range must be nonempty with entries >= 1, got {ms}")
    if not epsilon > 0:
        raise ContractViolation(f"epsilon must be > 0, got {epsilon}")
    grid, horizon = _validate_grid([t_eval], window)
    states = _resolve_states(system, x0_grid)
    oracle = oracle if oracle is not None else resolve_oracle(system, "auto")
    reg = DEFAULT_REG if reg is None else reg
    refit_period = DEFAULT_REFIT_PERIOD if refit_period is None else refit_period
    # every filter count reads its columns of the largest bank's convolution
    bank = build_filter_bank(window_len, ms[-1], sign_augmented=sign_augmented)
    F = bank.filter_matrix()
    arms = [(None if m == bank.m else _bank_columns(bank, m, system.p), reg) for m in ms]
    rows = _read_rows(grid, window, horizon)  # [t_eval, horizon)

    def losses(Ys, run):  # the whole m sweep inside each x0 task, on one convolution per block
        preds = [run(oracle, rows)]
        preds += [ridge.preds for ridge in _run_arms(F, Ys, arms, refit_period, rows)]
        return [_grid_losses(pr, Ys[:, t_eval:], grid - t_eval, window) for pr in preds]

    L = _evaluate(system, states, horizon, n_traj, SeededRng(master_seed), n_workers, losses)
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


def agnostic_gap(
    system,
    algorithm,
    baseline_class,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    n_workers: int = 1,
) -> RiskCurve:
    """Excess of the algorithm over the pointwise-best baseline raw risk.

    At each grid time the comparator is the baseline with the smallest mean
    raw loss at that time (per initial state); the curve is again the worst
    case over the x0 grid.
    """
    baselines = list(baseline_class)
    if not baselines:
        raise ContractViolation("baseline_class must be nonempty")
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    losses = _predictor_losses([algorithm, *baselines], grid, window, horizon)
    L = _evaluate(system, states, horizon, n_traj, SeededRng(master_seed), n_workers, losses)
    best = L[1:].mean(axis=2).argmin(axis=0)  # (x0, g): the baseline with the least mean loss
    comparator = np.take_along_axis(L[1:], best[None, :, None, :], axis=0)[0]
    gap, ci, raw_alg, raw_best = _worst_case(L[0], comparator)
    labels = ",".join(getattr(b, "label", "baseline") for b in baselines)
    return RiskCurve(
        t_grid=grid,
        excess_mean=gap,
        excess_ci_half=ci,
        raw_alg=raw_alg,
        raw_oracle=raw_best,
        n_traj=n_traj,
        oracle_label=f"best_of({labels})",
    )


def bias_variance_split(
    system: LdsSpec,
    window_len: int,
    m: int,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    reg: float | None = None,
    refit_period: int | None = None,
    ref_multiplier: int = 10,
    sign_augmented: bool = False,
    n_workers: int = 1,
) -> BiasVarianceReport:
    """Split the learner's excess into approximation and estimation parts.

    The learner reads m filters of length window_len; the bank is built only
    once the system is known to be linear.
    The reference readout w* is fit by near-unregularized ridge on one long
    run (ref_multiplier times the horizon), so it is the best fixed linear
    readout in feature space; its Gram and moment are summed over blocks of
    `_REF_BLOCK` feature rows.  That run starts from the system's first grid
    state, so w* does not depend on the order of x0_grid.  Bias is the excess
    of the w*-readout over the conditional-mean predictor; variance is the
    mean squared gap between the online learner's predictions and the
    w*-readout's.
    """
    if not isinstance(system, LdsSpec):
        raise IncompatiblePairing("bias/variance split requires a linear system spec")
    bank = build_filter_bank(window_len, m, sign_augmented=sign_augmented)
    reg = DEFAULT_REG if reg is None else reg
    refit_period = DEFAULT_REFIT_PERIOD if refit_period is None else refit_period
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    master = SeededRng(master_seed)

    # reference readout on a long run
    ref_rng = master.child(_REF_NS, 0)
    ref_x0 = initial_states(system)[0]
    ys_ref = simulate_ensemble(system, ref_multiplier * horizon, ref_x0, [ref_rng])
    q = bank.feature_count * system.p
    gram, moment = np.zeros((q, q)), np.zeros((q, system.p))
    F = bank.filter_matrix()
    for s, e, Z in _feature_blocks(F, ys_ref, _REF_BLOCK):  # Z[0, t - s]: features before y_t
        gram += Z[0].T @ Z[0]
        moment += Z[0].T @ ys_ref[0, s:e]
    tiny = 1e-8 * float(np.trace(gram)) / q
    w_star = solve_normal_system(gram, moment, ridge=tiny)
    kalman = KalmanPredictor(system)
    rows, first = _read_rows(grid, window, horizon), grid[0]

    def losses(Ys, run):  # the w*-readout and the online learner read one convolution per block
        learner = _EnsembleRidge(Ys, q, reg, refit_period, rows)
        preds_star = np.empty_like(Ys)  # only the blocks holding a read row are filled
        for s, e, Z in _feature_blocks(F, Ys, refit_period):
            if learner.reads(s):
                preds_star[:, s:e] = Z @ w_star
            learner.feed(s, e, Z)
        star, ys = preds_star[:, first:], Ys[:, first:]
        return [
            _grid_losses(star, ys, grid - first, window),
            _grid_losses(run(kalman, rows), ys, grid - first, window),
            _grid_losses(learner.preds, star, grid - first, window),  # squared pred diff
        ]

    L = _evaluate(system, states, horizon, n_traj, master, n_workers, losses)
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
