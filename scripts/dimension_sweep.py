#!/usr/bin/env python3
"""Hidden-dimension sweep: excess risk and filter-count complexity vs d.

The predictor is held fixed (window, filter count, readout size) while the
generating system's hidden dimension grows; terminal excess risk stays flat
and the filter count achieving a target excess stays small.
"""

import argparse
import warnings

import numpy as np

import dynolearn as dl
from dynolearn.numerics import SeededRng
from dynolearn.systems import random_symmetric_psd, random_unit_row


def make_system(d: int, seed: int) -> dl.LdsSpec:
    return dl.LdsSpec(
        A=random_symmetric_psd(d, 0.0, 0.95, SeededRng(seed)),
        C=random_unit_row(d, SeededRng(seed + 100)),
        noise=dl.NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=dl.InitPolicy(kind="fixed", x0=tuple(np.zeros(d))),
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 20, 100])
    ap.add_argument("--n-traj", type=int, default=200)
    ap.add_argument("--seed", type=int, default=77)
    args = ap.parse_args()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank = dl.build_filter_bank(100, 20)

    print("d    terminal_excess   ci        state_size")
    for i, d in enumerate(args.dims):
        spec = make_system(d, 21 + i)
        alg = dl.SpectralPredictor(bank, obs_dim=1)
        curve = dl.estimate_excess_risk(
            spec,
            alg,
            (dl.KalmanPredictor(spec),),
            t_grid=(100, 200, 400),
            n_traj=args.n_traj,
            master_seed=args.seed,
        )
        print(
            f"{d:<4d} {curve.excess_mean[-1]:<16.3e} {curve.excess_ci_half[-1]:<9.2e} "
            f"{alg.state_size}"
        )

    d = max(args.dims)
    spec = make_system(d, 50)
    eps = 0.1 * dl.stationary_observation_power(spec)
    report = dl.minimal_filter_count(
        spec,
        dl.SpectralPredictor(dl.build_filter_bank(window=100, m=25), obs_dim=1),
        dl.KalmanPredictor(spec),
        epsilon=eps,
        m_range=range(1, 26),
        t_eval=400,
        n_traj=100,
        master_seed=17,
    )
    star = "not achieved" if report.m_star is None else report.m_star
    print(f"\nminimal filter count at eps={eps:.2e} for d={d}: m* = {star}")
    for m, ex in zip(report.m_values, report.excess):
        print(f"  m={int(m):<3d} terminal excess {ex:.3e}")


if __name__ == "__main__":
    main()
