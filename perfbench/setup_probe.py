"""Do dynolearn's set-up for one workload and print what the benchmark needs.

    python3 perfbench/setup_probe.py CONFIG COMMAND[,COMMAND...] [section.key=value ...]

Set-up is what every CLI invocation pays before its measurement starts:
importing the package, ``load_config``/``validate_config``, the ``build_*``
calls the workload's subcommands make (the filter bank's Hilbert
eigendecomposition among them) and resolving the initial-state grid.  The
benchmark times this process from outside; the one JSON line printed here
carries the work each subcommand will do and the software environment.
"""

from __future__ import annotations

import json
import os
import platform
import sys

def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy prints instead of returning
        return "unknown"


def main(argv: list[str]) -> int:
    config_path, commands, overrides = argv[0], argv[1].split(","), argv[2:]
    import dynolearn
    from dynolearn import config as cfgmod
    from dynolearn.systems import initial_states

    cfg = cfgmod.load_config(config_path, overrides)
    cfgmod.validate_config(cfg)
    system = cfgmod.build_system(cfg)
    cfgmod.build_predictor(cfg, system)
    if set(commands) & {"risk", "mstar"}:
        cfgmod.build_oracle(cfg, system)
    if "agnostic" in commands:
        cfgmod.build_baselines(cfg, system)
    x0_used = len(initial_states(system))

    h = cfg.harness
    # predictor arms each subcommand runs on every (x0, trajectory, step);
    # biasvar runs the fixed readout, the online learner and Kalman
    arms = {
        "risk": 2,
        "burnin": 0,
        "mstar": 1 + len(h.m_range),
        "agnostic": 1 + len(h.baselines),
        "biasvar": 3,
    }
    horizon = {c: h.t_grid[-1] + h.window for c in commands}
    if "mstar" in commands:
        horizon["mstar"] = h.t_eval + h.window
    pred_steps = {c: x0_used * h.n_traj * horizon[c] * arms[c] for c in commands}

    import numpy
    import scipy

    print(
        json.dumps(
            {
                "package": os.path.dirname(dynolearn.__file__),
                "x0_used": x0_used,
                "pred_steps": pred_steps,
                "env": {
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "blas": _blas(),
                    "blas_threads": {
                        k: os.environ.get(k)
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    },
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
