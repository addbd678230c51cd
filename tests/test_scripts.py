"""Smoke runs of the experiment scripts: each exits 0 and prints its result."""

import subprocess
import sys

import pytest
from conftest import REPO, cli_env

# Whole result lines of a script, beyond the smoke line.  The noiseless Lorenz
# run is bitwise reproducible, so its numbers are pinned.
PINNED = {
    "lorenz_obstruction.py": [
        "one-step MSE (final 10%): 1.973e-01",
        "20-step rollout MSE: 6.370e+00",
        "1e-8 perturbation crosses 1e-2 separation at t = 24.56 time units",
    ],
}


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("lorenz_obstruction.py", ["--horizon", "1200", "--rollout", "20"], "20-step rollout MSE:"),
        ("dimension_sweep.py", ["--dims", "2", "--n-traj", "4"], "minimal filter count at eps="),
        ("scalar_lds_pipeline.py", ["--n-traj", "4", "--out", "out"], "wrote out/risk.csv"),
    ],
)
def test_script_runs(script, args, expected, tmp_path):
    res = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    for prefix in [expected, *PINNED.get(script, [])]:
        assert any(line.startswith(prefix) for line in lines), (prefix, res.stdout)
