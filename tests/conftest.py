import os
from pathlib import Path

import numpy as np
import pytest

from dynolearn import InitPolicy, LdsSpec, NoiseSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(extra=None):
    """Environment for a `python -m dynolearn` child started in another cwd.

    The absolute src path goes first on PYTHONPATH: a relative entry such as
    `src` would resolve against the child's cwd and miss the package.
    """
    env = dict(os.environ)
    env.update(extra or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def scalar_spec():
    """The canonical noisy scalar system a=0.9, c=1, sigma_w=sigma_v=0.1."""
    return LdsSpec(
        A=[[0.9]],
        C=[[1.0]],
        noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=InitPolicy(kind="ball_grid", radius=1.0, points=8),
    )


@pytest.fixture
def noiseless_scalar_spec():
    return LdsSpec(
        A=[[0.5]],
        C=[[1.0]],
        noise=NoiseSpec(kind="none"),
        init=InitPolicy(kind="fixed", x0=(1.0,)),
    )


def stream_predictions(pred, ys):
    """Reference per-step driver: predict, observe, grow the history."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    H, p = ys.shape
    hist = np.zeros((0, p))
    preds = np.zeros((H, p))
    for t in range(H):
        preds[t] = pred.predict(hist)
        pred.observe(ys[t], hist)
        hist = np.concatenate([ys[t][None, :], hist], axis=0)
    return preds
