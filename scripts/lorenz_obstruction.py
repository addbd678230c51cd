#!/usr/bin/env python3
"""Chaos obstruction demo on the Lorenz attractor.

One-step prediction of a chaotic trajectory is easy for the spectral learner
(the flow is smooth at dt = 0.01); iterating the same predictor its own
outputs degrades exponentially, and nearby initial conditions separate at the
Lyapunov rate.  Prints the three measurements side by side.
"""

import argparse

import numpy as np

import dynolearn as dl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=6000)
    ap.add_argument("--window", type=int, default=32)
    ap.add_argument("--filters", type=int, default=13)
    ap.add_argument("--rollout", type=int, default=50)
    args = ap.parse_args()

    spec = dl.LorenzSpec()
    ys = dl.simulate_ensemble(spec, args.horizon, [1.0, 1.0, 1.0], [dl.SeededRng(0)])[0]
    signal = float((ys**2).mean())

    bank = dl.build_filter_bank(args.window, args.filters)
    stream = dl.SpectralPredictor(bank, obs_dim=1).stream((1, *ys.shape))
    stream.push(ys[None])  # every row read, every refit solved, the last one included
    preds, readouts = stream.ridges[0].preds, stream.ridges[0].w
    tail = slice(int(0.9 * args.horizon), args.horizon)
    one_step = float(((preds[0, tail] - ys[tail]) ** 2).mean())

    # roll the final readout forward, feeding its predictions back as observations
    w, F = readouts[0, :, 0], bank.filter_matrix()
    errs = []
    hi = args.horizon - args.rollout - 1
    for anchor in range(int(0.65 * args.horizon), hi, max((hi - int(0.65 * args.horizon)) // 16, 1)):
        h = np.zeros(bank.window)  # newest first, zero padded
        past = ys[:anchor, 0][::-1][: bank.window]
        h[: past.size] = past
        for _ in range(args.rollout):
            h = np.concatenate([[(F.T @ h) @ w], h[:-1]])
        errs.append(float((h[0] - ys[anchor + args.rollout - 1, 0]) ** 2))
    rollout_mse = float(np.mean(errs))

    x0 = [[1.0, 1.0, 1.0], [1.0 + 1e-8, 1.0, 1.0]]
    _, xs = dl.simulate_ensemble(spec, 2500, x0, [dl.SeededRng(0)], record_states=True)
    sep = np.linalg.norm(xs[0, 0] - xs[1, 0], axis=1)
    crossing = np.argmax(sep > 1e-2)

    print(f"signal power E[y^2] = {signal:.2f}")
    print(f"one-step MSE (final 10%): {one_step:.3e}  ({one_step / signal:.2e} of signal)")
    print(
        f"{args.rollout}-step rollout MSE: {rollout_mse:.3e}  "
        f"({rollout_mse / one_step:.0f}x the one-step error)"
    )
    print(
        f"1e-8 perturbation crosses 1e-2 separation at t = {crossing * spec.dt:.2f} time units"
    )


if __name__ == "__main__":
    main()
