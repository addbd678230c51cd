"""Smoke runs of the experiment scripts: each exits 0 and prints its result."""

import subprocess
import sys

import pytest
from conftest import REPO, cli_env


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
    assert any(line.startswith(expected) for line in res.stdout.splitlines()), res.stdout
