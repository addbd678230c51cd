#!/usr/bin/env python3
"""Canonical scalar experiment: excess-risk curve, decay slope, burn-in times.

Runs the same measurement as `dynolearn risk` + `burnin` on the canonical
scalar system, prints a summary, and writes the CSV artifacts.
"""

import argparse
import time
from pathlib import Path

import numpy as np

import dynolearn as dl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/scalar_lds", help="output directory")
    ap.add_argument("--n-traj", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    spec = dl.LdsSpec(
        A=[[0.9]],
        C=[[1.0]],
        noise=dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=dl.InitPolicy(kind="ball_grid", radius=1.0, points=8),
    )
    bank = dl.build_filter_bank(100, 15)
    grid = tuple(int(t) for t in np.concatenate([[25, 50], np.arange(100, 2001, 50)]))

    start = time.monotonic()
    curve = dl.estimate_excess_risk(
        spec,
        dl.SpectralPredictor(bank, obs_dim=1),
        (dl.KalmanPredictor(spec),),
        t_grid=grid,
        n_traj=args.n_traj,
        master_seed=args.seed,
        n_workers=args.threads,
    )
    elapsed = time.monotonic() - start

    mask = (curve.t_grid >= 100) & (curve.excess_mean > 0)
    slope = np.polyfit(np.log(curve.t_grid[mask]), np.log(curve.excess_mean[mask]), 1)[0]
    signal = dl.stationary_observation_power(spec)
    reports = [dl.burn_in_time(curve, frac * signal) for frac in (0.05, 0.02, 0.01)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curve.write_csv(out / "risk.csv")
    dl.write_burn_in_csv(reports, out / "burnin.csv")

    print(f"system: scalar a=0.9, noise 0.1/0.1; signal power {signal:.4f}")
    print(f"n_traj={args.n_traj} per initial state, runtime {elapsed:.1f}s")
    print(f"excess decay slope over t in [100, 2000]: {slope:.3f}")
    for r in reports:
        t = "inf" if not r.is_finite else int(r.t_star)
        print(f"burn-in at eps={r.epsilon:.2e}: t* = {t} (checked to {r.uniform_checked_to})")
    print(f"wrote {out / 'risk.csv'} and {out / 'burnin.csv'}")


if __name__ == "__main__":
    main()
