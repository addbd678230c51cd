"""Monte Carlo measurement of excess prediction risk and burn-in complexity.

A risk curve compares a learning algorithm against a reference oracle in
lockstep on seeded trajectory ensembles.  For each admissible initial state
the per-step squared losses are averaged over a short window at every grid
time and over trajectories; the reported curve is the pointwise worst case
over the initial-state grid.  Identical (inputs, master_seed) reproduce the
curve bit for bit: trajectory random streams are pre-assigned by index, so
results do not depend on scheduling order.

Every x0 deliberately sees the same noise realizations (common random
numbers), so differences across the grid come from the initial state alone.
The noise is drawn once per ensemble and shared across the x0 grid: each
measurement draws it before the x0 tasks start, and every task reads it.
Workers fill the noise arrays in blocks of trajectories, one stream per row,
so the bits do not depend on the worker count either.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._canon import content_digest
from .errors import ContractViolation, IncompatiblePairing
from .numerics import SeededRng, solve_normal_system
from .oracles import KalmanPredictor, KernelOracle, TruthOracle, ZeroRiskOracle
from .predictors import _run_streaming_ridge
from .spectral import FilterBank, build_filter_bank, shifted_features, truncate_bank
from .systems import (
    LdsSpec,
    LorenzSpec,
    ensemble_noise,
    format_float as ff,
    initial_states,
    simulate_ensemble,
)

DEFAULT_WINDOW = 16
DEFAULT_N_TRAJ = 200
CI_Z = 1.96  # two-sided 95% normal quantile

_TRAJ_NS = 0  # child-stream namespace for ensemble trajectories
_REF_NS = 2**31  # child-stream namespace for reference runs


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
    x0_policy_digest: str
    oracle_label: str = "oracle"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,excess_mean,excess_ci,raw_alg,raw_oracle\n")
            for g in range(len(self.t_grid)):
                fh.write(
                    f"{int(self.t_grid[g])},{ff(self.excess_mean[g])},"
                    f"{ff(self.excess_ci_half[g])},{ff(self.raw_alg[g])},"
                    f"{ff(self.raw_oracle[g])}\n"
                )


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
        x0_policy_digest="loaded",
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
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,t_star,uniform_checked_to\n")
        for r in reports:
            t = "inf" if not r.is_finite else str(int(r.t_star))
            fh.write(f"{ff(r.epsilon)},{t},{r.uniform_checked_to}\n")


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
        with open(path, "w", newline="") as fh:
            fh.write("m,excess,ci,achieved\n")
            for i, m in enumerate(self.m_values):
                ach = "yes" if self.excess[i] <= self.epsilon else "no"
                fh.write(f"{int(m)},{ff(self.excess[i])},{ff(self.ci_half[i])},{ach}\n")

    def write_summary_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("epsilon,t_eval,m_star\n")
            star = "none" if self.m_star is None else str(self.m_star)
            fh.write(f"{ff(self.epsilon)},{self.t_eval},{star}\n")


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
        with open(path, "w", newline="") as fh:
            fh.write("t,bias,bias_ci,variance,variance_ci\n")
            for g in range(len(self.t_grid)):
                fh.write(
                    f"{int(self.t_grid[g])},{ff(self.bias[g])},{ff(self.bias_ci_half[g])},"
                    f"{ff(self.variance[g])},{ff(self.variance_ci_half[g])}\n"
                )


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


def _grid_losses(preds: np.ndarray, Ys: np.ndarray, grid: np.ndarray, window: int) -> np.ndarray:
    """Per-trajectory squared losses averaged over [t, t + window) per grid time."""
    L = ((preds - Ys) ** 2).sum(axis=2)
    return np.stack([L[:, t : t + window].mean(axis=1) for t in grid], axis=1)


def _resolve_states(system, x0_grid) -> list[np.ndarray]:
    if x0_grid is None:
        return initial_states(system)
    states = [np.atleast_1d(np.asarray(x, dtype=float)) for x in x0_grid]
    if not states:
        raise ContractViolation("x0_grid must be nonempty")
    unique: list[np.ndarray] = []
    for s in states:
        if not any(np.array_equal(s, t) for t in unique):
            unique.append(s)
    return unique


def _traj_rngs(master: SeededRng, n_traj: int) -> list[SeededRng]:
    # trajectory i always draws from child stream i: one draw of these
    # streams gives the noise that every initial state shares
    return [master.child(_TRAJ_NS, i) for i in range(n_traj)]


def _parallel_map(fn, items, n_workers: int) -> list:
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


class _Ensemble:
    """One draw of an ensemble's noise, shared read-only by every x0 task.

    The noise arrays are preallocated and filled by the workers, one block
    of trajectories each; every row comes from its own stream, so the bits
    do not depend on n_workers.
    """

    def __init__(self, system, horizon: int, master: SeededRng, n_traj: int, n_workers: int):
        self.system, self.horizon = system, horizon
        self.rngs = _traj_rngs(master, n_traj)
        lds = isinstance(system, LdsSpec)
        self.noise = (
            (np.empty((n_traj, horizon, system.d)), np.empty((n_traj, horizon, system.p)))
            if lds
            else np.empty((n_traj, horizon, system.p))
        )

        def fill(b):  # rows b of the shared arrays, in place
            rows = tuple(a[b] for a in self.noise) if lds else self.noise[b]
            ensemble_noise(system, horizon, self.rngs[b], out=rows)

        k = max(1, min(n_workers, n_traj))
        _parallel_map(fill, [slice(n_traj * j // k, n_traj * (j + 1) // k) for j in range(k)], k)

    def observations(self, x0) -> np.ndarray:
        return simulate_ensemble(self.system, self.horizon, x0, self.rngs, noise=self.noise)


def resolve_oracle(system, kind: str = "auto", p: int | None = None):
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
        return ZeroRiskOracle()
    raise ContractViolation(f"unknown oracle kind {kind!r}")


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
    if n_traj < 2:
        raise ContractViolation(f"n_traj must be >= 2, got {n_traj}")
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    ens = _Ensemble(system, horizon, SeededRng(master_seed), n_traj, n_workers)

    def one_x0(x0):
        Ys = ens.observations(x0)
        la = _grid_losses(algorithm.run_ensemble(Ys), Ys, grid, window)
        lo = _grid_losses(oracle.run_ensemble(Ys), Ys, grid, window)
        return la, lo

    results = _parallel_map(one_x0, states, n_workers)
    raw_a = np.stack([la.mean(axis=0) for la, _ in results])  # (X, G)
    raw_o = np.stack([lo.mean(axis=0) for _, lo in results])
    excess_by_x0 = raw_a - raw_o
    sel = excess_by_x0.argmax(axis=0)
    gidx = np.arange(grid.size)
    diffs = np.stack([la - lo for la, lo in results])  # (X, n, G)
    ci = CI_Z * diffs[sel, :, gidx].std(axis=1, ddof=1) / math.sqrt(n_traj)
    return RiskCurve(
        t_grid=grid,
        excess_mean=excess_by_x0[sel, gidx],
        excess_ci_half=ci,
        raw_alg=raw_a[sel, gidx],
        raw_oracle=raw_o[sel, gidx],
        n_traj=n_traj,
        x0_policy_digest=content_digest([s for s in states]),
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
    from .predictors import DEFAULT_REFIT_PERIOD, DEFAULT_REG, SpectralPredictor

    ms = sorted(int(m) for m in m_range)
    if not ms:
        raise ContractViolation("m_range must be nonempty")
    if not epsilon > 0:
        raise ContractViolation(f"epsilon must be > 0, got {epsilon}")
    grid, horizon = _validate_grid([t_eval], window)
    states = _resolve_states(system, x0_grid)
    oracle = oracle if oracle is not None else resolve_oracle(system, "auto")
    reg = DEFAULT_REG if reg is None else reg
    refit_period = DEFAULT_REFIT_PERIOD if refit_period is None else refit_period
    bank_max = build_filter_bank(window_len, max(ms), sign_augmented=sign_augmented)
    ens = _Ensemble(system, horizon, SeededRng(master_seed), n_traj, n_workers)
    ensembles = _parallel_map(ens.observations, states, n_workers)
    del ens  # the m sweep needs the observations only
    oracle_losses = [
        _grid_losses(oracle.run_ensemble(Ys), Ys, grid, window) for Ys in ensembles
    ]

    excess = np.empty(len(ms))
    ci = np.empty(len(ms))
    for j, m in enumerate(ms):
        pred = SpectralPredictor(
            truncate_bank(bank_max, m), obs_dim=system.p, reg=reg, refit_period=refit_period
        )
        per_x0_mean = []
        per_x0_diffs = []
        for Ys, lo in zip(ensembles, oracle_losses):
            la = _grid_losses(pred.run_ensemble(Ys), Ys, grid, window)
            per_x0_mean.append(la.mean(axis=0)[0] - lo.mean(axis=0)[0])
            per_x0_diffs.append((la - lo)[:, 0])
        worst = int(np.argmax(per_x0_mean))
        excess[j] = per_x0_mean[worst]
        ci[j] = CI_Z * per_x0_diffs[worst].std(ddof=1) / math.sqrt(n_traj)

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
    if n_traj < 2:
        raise ContractViolation(f"n_traj must be >= 2, got {n_traj}")
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    ens = _Ensemble(system, horizon, SeededRng(master_seed), n_traj, n_workers)

    def one_x0(x0):
        Ys = ens.observations(x0)
        la = _grid_losses(algorithm.run_ensemble(Ys), Ys, grid, window)
        lbs = [_grid_losses(b.run_ensemble(Ys), Ys, grid, window) for b in baselines]
        return la, lbs

    results = _parallel_map(one_x0, states, n_workers)
    G = grid.size
    gap_by_x0 = np.empty((len(states), G))
    best_by_x0 = np.empty((len(states), G))
    alg_by_x0 = np.empty((len(states), G))
    diffs_by_x0 = np.empty((len(states), n_traj, G))
    for xi, (la, lbs) in enumerate(results):
        base_means = np.stack([lb.mean(axis=0) for lb in lbs])  # (B, G)
        best = base_means.argmin(axis=0)
        alg_by_x0[xi] = la.mean(axis=0)
        best_by_x0[xi] = base_means[best, np.arange(G)]
        gap_by_x0[xi] = alg_by_x0[xi] - best_by_x0[xi]
        for g in range(G):
            diffs_by_x0[xi, :, g] = la[:, g] - lbs[best[g]][:, g]
    sel = gap_by_x0.argmax(axis=0)
    gidx = np.arange(G)
    ci = CI_Z * diffs_by_x0[sel, :, gidx].std(axis=1, ddof=1) / math.sqrt(n_traj)
    labels = ",".join(getattr(b, "label", "baseline") for b in baselines)
    return RiskCurve(
        t_grid=grid,
        excess_mean=gap_by_x0[sel, gidx],
        excess_ci_half=ci,
        raw_alg=alg_by_x0[sel, gidx],
        raw_oracle=best_by_x0[sel, gidx],
        n_traj=n_traj,
        x0_policy_digest=content_digest([s for s in states]),
        oracle_label=f"best_of({labels})",
    )


def bias_variance_split(
    system: LdsSpec,
    bank: FilterBank,
    t_grid,
    n_traj: int = DEFAULT_N_TRAJ,
    x0_grid=None,
    master_seed: int = 0,
    window: int = DEFAULT_WINDOW,
    reg: float | None = None,
    refit_period: int | None = None,
    ref_multiplier: int = 10,
    n_workers: int = 1,
) -> BiasVarianceReport:
    """Split the learner's excess into approximation and estimation parts.

    The reference readout w* is fit by near-unregularized ridge on one long
    run (ref_multiplier times the horizon), so it is the best fixed linear
    readout in feature space.  That run starts from the system's first grid
    state, so w* does not depend on the order of x0_grid.  Bias is the excess
    of the w*-readout over the conditional-mean predictor; variance is the
    mean squared gap between the online learner's predictions and the
    w*-readout's.
    """
    from .predictors import DEFAULT_REFIT_PERIOD, DEFAULT_REG

    if not isinstance(system, LdsSpec):
        raise IncompatiblePairing("bias/variance split requires a linear system spec")
    if n_traj < 2:
        raise ContractViolation(f"n_traj must be >= 2, got {n_traj}")
    reg = DEFAULT_REG if reg is None else reg
    refit_period = DEFAULT_REFIT_PERIOD if refit_period is None else refit_period
    grid, horizon = _validate_grid(t_grid, window)
    states = _resolve_states(system, x0_grid)
    master = SeededRng(master_seed)

    # reference readout on a long run
    ref_rng = master.child(_REF_NS, 0)
    ref_x0 = initial_states(system)[0]
    ys_ref = simulate_ensemble(system, ref_multiplier * horizon, ref_x0, [ref_rng])[0]
    Zref = shifted_features(bank, ys_ref[None])[0]
    gram = Zref.T @ Zref
    tiny = 1e-8 * float(np.trace(gram)) / max(gram.shape[0], 1)
    w_star = solve_normal_system(gram, Zref.T @ ys_ref, ridge=tiny)

    kalman = KalmanPredictor(system)
    ens = _Ensemble(system, horizon, master, n_traj, n_workers)

    def one_x0(x0):
        Ys = ens.observations(x0)
        Zp = shifted_features(bank, Ys)
        preds_star = Zp @ w_star
        preds_learn = _run_streaming_ridge(Zp, Ys, reg, refit_period)
        lw = _grid_losses(preds_star, Ys, grid, window)
        lk = _grid_losses(kalman.run_ensemble(Ys), Ys, grid, window)
        gap = _grid_losses(preds_learn, preds_star, grid, window)  # squared pred diff
        return lw, lk, gap

    results = _parallel_map(one_x0, states, n_workers)
    G = grid.size
    bias_by_x0 = np.stack([lw.mean(axis=0) - lk.mean(axis=0) for lw, lk, _ in results])
    var_by_x0 = np.stack([gap.mean(axis=0) for _, _, gap in results])
    gidx = np.arange(G)
    bsel = bias_by_x0.argmax(axis=0)
    vsel = var_by_x0.argmax(axis=0)
    bias_diffs = np.stack([lw - lk for lw, lk, _ in results])
    gap_stack = np.stack([gap for _, _, gap in results])
    bias_ci = CI_Z * bias_diffs[bsel, :, gidx].std(axis=1, ddof=1) / math.sqrt(n_traj)
    var_ci = CI_Z * gap_stack[vsel, :, gidx].std(axis=1, ddof=1) / math.sqrt(n_traj)
    return BiasVarianceReport(
        t_grid=grid,
        bias=bias_by_x0[bsel, gidx],
        bias_ci_half=bias_ci,
        variance=var_by_x0[vsel, gidx],
        variance_ci_half=var_ci,
        n_traj=n_traj,
    )
