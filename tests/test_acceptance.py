"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 3 check the Hilbert spectrum that the filter bank is built
from.  Their comments derive the constants they assert: the asymptotic decay
rate of the eigenvalues (C1) and the endpoint term of the midpoint rule (C3).
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import dynolearn as dl
from conftest import (
    cli_env,
    kalman_covariances,
    residual_energy,
    run_whole,
    trajectory_features,
)
from dynolearn.numerics import SeededRng
from dynolearn.systems import random_symmetric_psd, random_unit_row


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _quiet_bank(window, m, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dl.build_filter_bank(window, m, **kw)


def _scalar_system():
    return dl.LdsSpec(
        A=[[0.9]],
        C=[[1.0]],
        noise=dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=dl.InitPolicy(kind="ball_grid", radius=1.0, points=8),
    )


DENSE_GRID = tuple(int(t) for t in np.concatenate([[25, 50], np.arange(100, 2001, 50)]))


@pytest.fixture(scope="module")
def scalar_excess_curve():
    """Shared criterion-6 experiment: scalar system, T_w=100, m=15, 200 runs."""
    spec = _scalar_system()
    bank = _quiet_bank(100, 15)
    start = time.monotonic()
    curve = dl.estimate_excess_risk(
        spec,
        dl.SpectralPredictor(bank, obs_dim=1),
        (dl.KalmanPredictor(spec),),
        t_grid=DENSE_GRID,
        n_traj=200,
        master_seed=1000,
    )
    elapsed = time.monotonic() - start
    return spec, curve, elapsed


def _loglog_slope(curve, lo, hi):
    mask = (curve.t_grid >= lo) & (curve.t_grid <= hi) & (curve.excess_mean > 0)
    return np.polyfit(np.log(curve.t_grid[mask]), np.log(curve.excess_mean[mask]), 1)[0], int(
        mask.sum()
    )


def test_c01_hilbert_spectral_decay():
    # Target: the asymptotic decay rate -pi^2 / ln T of ln(mu_i) in i.  With
    # x = e^u the Hilbert matrix becomes a truncated convolution on an
    # interval of length ln T whose symbol is pi sech(pi xi) (the Carleman
    # operator).  Widom's eigenvalue counting for such operators gives
    # mu_j ~ pi sech(pi^2 j / ln T) ~ 2 pi exp(-pi^2 j / ln T); the same form
    # reproduces de Bruijn-Wilf's mu_1 = pi - pi^5 / (2 ln^2 T).  The float64
    # eigenvalues are right (tests/test_spectral.py checks them against a
    # 30-digit eigensolver).  Measured slope * ln T / pi^2 is -0.815, -0.819,
    # -0.825 and -0.832 at T = 64, 256, 1024, 4096: it drifts towards -1, and
    # the slopes checked here sit 18.5% (T=64) and 18.1% (T=256) off target.
    start = time.monotonic()
    checks = []
    for window in (256, 64):
        evals, _ = dl.sym_eig(dl.hilbert_matrix(window))
        idx = np.arange(2, 13)
        slope = np.polyfit(idx, np.log(evals[idx - 1]), 1)[0]
        target = -math.pi**2 / math.log(window)
        ok = abs(slope - target) <= 0.35 * abs(target)
        checks.append((window, slope, target, ok))
    elapsed = time.monotonic() - start
    ok = all(c[3] for c in checks) and elapsed < 1.0
    detail = "; ".join(
        f"T={w}: slope={s:.3f} target={t:.3f}+/-35%" for w, s, t, _ in checks
    ) + f"; runtime={elapsed:.2f}s<1s"
    report("C1 hilbert-spectral-decay", ok, detail)


def test_c02_filter_bank_orthonormality():
    start = time.monotonic()
    worst = []
    for window, m in ((64, 12), (256, 20)):
        bank = _quiet_bank(window, m)
        phi = bank.filter_matrix()
        err = float(np.abs(phi.T @ phi - np.eye(m)).max())
        worst.append((window, m, err))
    elapsed = time.monotonic() - start
    ok = all(err <= 1e-8 for *_, err in worst) and elapsed < 1.0
    detail = "; ".join(f"(T={w},m={m}): err={e:.2e}<=1e-8" for w, m, e in worst)
    report("C2 filter-bank-orthonormality", ok, detail + f"; runtime={elapsed:.2f}s<1s")


def test_c03_mean_residual_identity_midpoint_rule():
    # The identity E_[0,1][(v_lam . phi_i)^2] = phi_i^T H phi_i = mu_i is exact
    # for eigenpairs.  f_i(lam) = (v_lam . phi_i)^2 is a polynomial of degree
    # 198, and the 1000-point midpoint rule misses its integral by
    # -(h^2/24) [f_i'(1) - f_i'(0)] + O(h^4) with h = 1e-3: about 1.7e-4 for
    # the leading filters, whatever the filters are.  Adding that leading
    # Euler-Maclaurin endpoint term, from f_i'(0) = 2 phi_i[0] phi_i[1] and
    # f_i'(1) = 2 (sum_t phi_i[t]) (sum_t t phi_i[t]), leaves
    # phi_i^T H phi_i - mu_i + O(h^4), with the O(h^4) part below 1e-7.
    window = 100
    bank = _quiet_bank(window, 10)
    n = 1000
    lam = (np.arange(n) + 0.5) / n
    V = lam[:, None] ** np.arange(window)[None, :]
    midpoint = ((V @ bank.phis) ** 2).mean(axis=0)
    phis, taps = bank.phis, np.arange(window)[:, None]
    slope_at_0 = 2.0 * phis[0] * phis[1]
    slope_at_1 = 2.0 * phis.sum(axis=0) * (taps * phis).sum(axis=0)
    corrected = midpoint + (slope_at_1 - slope_at_0) / (24.0 * n**2)
    raw_err = np.abs(midpoint - bank.mus)
    err = np.abs(corrected - bank.mus)
    ok = bool((err <= 1e-6).all())
    report(
        "C3 mean-residual-identity",
        ok,
        f"max |corrected midpoint - mu_i| over i<=10 = {err.max():.2e} (tolerance 1e-6); "
        f"raw midpoint {raw_err.max():.2e}",
    )


def test_c04_approximation_adequacy():
    bank = _quiet_bank(100, 20)
    grid = np.arange(0, 100) / 100.0
    mean_res = float(np.mean([residual_energy(bank, lam) for lam in grid]))
    ok = mean_res <= 1e-5
    report("C4 approximation-adequacy", ok, f"mean residual={mean_res:.2e}<=1e-5")


def _c5_system(d: int):
    if d == 1:
        A, C = np.array([[0.9]]), np.array([[1.0]])
    elif d == 2:
        A, C = np.diag([0.9, 0.5]), np.array([[1.0, 1.0]])
    else:
        A = random_symmetric_psd(d, 0.0, 0.95, SeededRng(31))
        C = random_unit_row(d, SeededRng(32))
    return dl.LdsSpec(
        A=A,
        C=C,
        noise=dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=dl.InitPolicy(kind="fixed", x0=tuple(np.ones(d))),
    )


def test_c05_kalman_validation():
    # closed-form scalar steady state
    a, q, r = 0.9, 0.01, 0.01
    spec1 = _c5_system(1)
    kal1 = dl.KalmanPredictor(spec1)  # x0 = 1 gives P0 = 1
    Ps = kalman_covariances(kal1, 1001)
    b = r - q - a * a * r
    p_star = (-b + math.sqrt(b * b + 4 * q * r)) / 2.0
    riccati_err = abs(float(Ps[1000, 0, 0]) - p_star)

    # Bayes optimality as a testable ordering on seeded ensembles
    bank = _quiet_bank(100, 15)
    violations = []
    for d in (1, 2, 5):
        spec = _c5_system(d)
        rngs = [SeededRng(5).child(0, i) for i in range(200)]
        Ys = dl.simulate_ensemble(spec, 516, np.ones(d), rngs)
        contenders = {
            "kernel": dl.KernelOracle(spec),
            "spectral": dl.SpectralPredictor(bank, obs_dim=1),
            "zero": dl.SpectralPredictor.baseline("zero"),
            "last_value": dl.SpectralPredictor.baseline("last_value"),
            "ar1": dl.SpectralPredictor.ar(1),
            "ar5": dl.SpectralPredictor.ar(5),
        }
        kal_losses = ((run_whole(dl.KalmanPredictor(spec), Ys)[0] - Ys) ** 2).sum(2)[
            :, 490:506
        ].mean(1)
        for name, pred in contenders.items():
            other = ((run_whole(pred, Ys)[0] - Ys) ** 2).sum(2)[:, 490:506].mean(1)
            diff = kal_losses - other  # must not be significantly positive
            ci = 1.96 * diff.std(ddof=1) / math.sqrt(len(diff))
            if diff.mean() > ci:
                violations.append(f"d={d}:{name} (+{diff.mean():.2e}>ci {ci:.2e})")
    ok = riccati_err < 1e-10 and not violations
    detail = f"riccati err={riccati_err:.1e}<1e-10; significantly-worse-than: {violations or 'none'}"
    report("C5 kalman-validation", ok, detail)


def test_c06_dynamic_learnability_scalar(scalar_excess_curve):
    spec, curve, elapsed = scalar_excess_curve
    slope, npts = _loglog_slope(curve, 100, 2000)
    ok_a = -1.4 <= slope <= -0.6

    eps = 0.05 * dl.stationary_observation_power(spec)
    rep = dl.burn_in_time(curve, eps)
    ok_b = rep.is_finite
    spot = []
    if rep.is_finite:
        for factor in (2, 4):
            candidates = curve.t_grid[curve.t_grid >= factor * rep.t_star]
            assert candidates.size, "grid must extend past 4*t_star"
            g = int(np.where(curve.t_grid == candidates[0])[0][0])
            spot.append(curve.excess_mean[g] <= eps)
        ok_b = ok_b and all(spot)
    ok = ok_a and ok_b and elapsed < 120.0
    detail = (
        f"slope={slope:.3f} in [-1.4,-0.6] ({npts} pts); eps={eps:.2e} "
        f"t_star={rep.t_star} spot2x/4x={spot}; runtime={elapsed:.1f}s<120s"
    )
    report("C6 scalar-dynamic-learnability", ok, detail)


def test_c07_persistent_excitation(scalar_excess_curve):
    spec, _, _ = scalar_excess_curve
    bank = _quiet_bank(100, 15)
    ys = dl.simulate_ensemble(spec, 5000, np.array([1.0]), [SeededRng(1000).child(0, 0)])[0]
    Z = trajectory_features(bank, ys)
    checkpoints = np.arange(500, 5001, 500)
    ratios = []
    for t in checkpoints:
        gram = Z[:t].T @ Z[:t]
        evals, _ = dl.sym_eig(gram)
        ratios.append(evals[-1] / t)
    ratios = np.array(ratios)
    ok = bool(ratios.min() >= 0.5 * np.median(ratios)) and bool(ratios.min() > 0)
    detail = f"min lambda_min/t={ratios.min():.4f}, median={np.median(ratios):.4f}"
    report("C7 persistent-excitation", ok, detail)


def test_c08_dimension_independence():
    bank = _quiet_bank(100, 20)
    excesses = {}
    sizes = {}
    for d, seed in ((2, 21), (20, 22), (100, 23)):
        A = random_symmetric_psd(d, 0.0, 0.95, SeededRng(seed))
        C = random_unit_row(d, SeededRng(seed + 100))
        spec = dl.LdsSpec(
            A=A,
            C=C,
            noise=dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=dl.InitPolicy(kind="fixed", x0=tuple(np.zeros(d))),
        )
        alg = dl.SpectralPredictor(bank, obs_dim=1)
        curve = dl.estimate_excess_risk(
            spec, alg, (dl.KalmanPredictor(spec),), (100, 200, 400), n_traj=200, master_seed=77
        )
        excesses[d] = curve.excess_mean[-1]  # terminal grid point
        sizes[d] = alg.state_size
    vals = np.array(list(excesses.values()))
    ratio = float(vals.max() / vals.min())
    ok = ratio <= 3.0 and len(set(sizes.values())) == 1
    detail = (
        f"terminal excess d=2/20/100: {excesses[2]:.2e}/{excesses[20]:.2e}/{excesses[100]:.2e} "
        f"(max/min={ratio:.2f}<=3); state size {sorted(set(sizes.values()))}"
    )
    report("C8 dimension-independence", ok, detail)


def test_c09_lorenz_chaos_obstruction():
    spec = dl.LorenzSpec()  # canonical parameters, dt=0.01, x-coordinate, noiseless
    H = 6000
    ys = dl.simulate_ensemble(spec, H, [1.0, 1.0, 1.0], [SeededRng(0)])[0]
    signal_power = float((ys**2).mean())

    bank = _quiet_bank(32, 13)
    preds, readouts = run_whole(dl.SpectralPredictor(bank, obs_dim=1), ys[None])
    tail = slice(int(0.9 * H), H)
    one_step = float(((preds[0, tail] - ys[tail]) ** 2).mean())
    ok_one = one_step <= 1e-2 * signal_power

    # roll the readout fit over the full run forward 50 steps on its own outputs
    w, F = readouts[0, :, 0], bank.filter_matrix()
    errs = []
    for anchor in range(4000, 5800, 120):
        h = ys[anchor - bank.window : anchor, 0][::-1]  # newest first
        for _ in range(50):
            h = np.concatenate([[(F.T @ h) @ w], h[:-1]])
        errs.append(float((h[0] - ys[anchor + 49, 0]) ** 2))
    fifty_step = float(np.mean(errs))
    ok_iter = fifty_step > 10.0 * one_step

    # sensitivity: 1e-8 perturbation reaches 1e-2 separation within 25 units
    steps = 2500
    xs = [
        dl.simulate_ensemble(spec, steps, x0, [SeededRng(0)], record_states=True)[1][0]
        for x0 in ([1.0, 1.0, 1.0], [1.0 + 1e-8, 1.0, 1.0])
    ]
    sep = np.linalg.norm(xs[0] - xs[1], axis=1)
    ok_lyap = bool(sep.max() > 1e-2)

    ok = ok_one and ok_iter and ok_lyap
    detail = (
        f"one-step/signal={one_step / signal_power:.2e}<=1e-2; "
        f"50-step/one-step={fifty_step / one_step:.1f}x>10x; "
        f"divergence max sep={sep.max():.2e}>1e-2 within 25 units"
    )
    report("C9 lorenz-chaos-obstruction", ok, detail)


def test_c10_closed_loop_equivalence():
    # zero control matrix: closed loop reproduces the open loop bit for bit
    noise = dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1)
    init = dl.InitPolicy(kind="fixed", x0=(1.0,))
    open_spec = dl.LdsSpec(A=[[0.9]], C=[[1.0]], noise=noise, init=init)
    zero_b = dl.LdsSpec(A=[[0.9]], C=[[1.0]], noise=noise, init=init, B=[[0.0]], K=[[-0.5]])
    y_open = dl.simulate_ensemble(open_spec, 500, [1.0], [SeededRng(99)])
    y_closed = dl.simulate_ensemble(zero_b, 500, [1.0], [SeededRng(99)])
    bit_identical = bool(np.array_equal(y_open, y_closed))

    # stabilized unstable plant: effective pole 0.9, same slope law as C6(a)
    closed = dl.LdsSpec(
        A=[[1.4]],
        C=[[1.0]],
        noise=noise,
        init=dl.InitPolicy(kind="ball_grid", radius=1.0, points=8),
        B=[[1.0]],
        K=[[-0.5]],
        symmetric_flag=False,
    )
    bank = _quiet_bank(100, 15)
    curve = dl.estimate_excess_risk(
        closed,
        dl.SpectralPredictor(bank, obs_dim=1),
        (dl.KalmanPredictor(closed),),
        t_grid=DENSE_GRID,
        n_traj=200,
        master_seed=1000,
    )
    slope, npts = _loglog_slope(curve, 100, 2000)
    ok_slope = -1.4 <= slope <= -0.6
    ok = bit_identical and ok_slope
    detail = f"B=0 bit-identical={bit_identical}; closed-loop slope={slope:.3f} in [-1.4,-0.6] ({npts} pts)"
    report("C10 closed-loop-equivalence", ok, detail)


RISK_CFG = """
[system]
kind = lds
a = 0.9
c = 1.0
process_stdev = 0.1
obs_stdev = 0.1
x0_kind = ball_grid
x0_radius = 1.0
x0_points = 2

[predictor]
kind = spectral
window = 50
m = 8

[harness]
t_grid = 50,100,200,400
n_traj = 50
epsilons = 0.05

[run]
seed = 2024
"""


def test_c11_end_to_end_reproducibility(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(RISK_CFG)
    outputs = []
    for out in ("runA", "runB"):
        res = subprocess.run(
            [sys.executable, "-m", "dynolearn", "risk", "-c", str(cfg), "--out", out],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=300,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(
            {
                "risk": (tmp_path / out / "risk.csv").read_bytes(),
                "resolved": (tmp_path / out / "resolved.cfg").read_bytes(),
                "manifest": (tmp_path / out / "manifest.txt").read_bytes(),
            }
        )
    ok = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    sizes = {k: len(v) for k, v in outputs[0].items()}
    report("C11 end-to-end-reproducibility", ok, f"byte-identical artifacts {sizes}")
