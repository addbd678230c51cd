"""Smoke runs of the experiment scripts: each exits 0 and prints its result.
`check_bytes.py` is also stopped mid-run and must leave nothing behind."""

import signal
import subprocess
import sys
import time

import pytest
from conftest import REPO, SRC, cli_env

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


def test_check_bytes_cleans_up_on_sigterm(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, str(REPO / "scripts" / "check_bytes.py"), str(SRC), str(SRC)],
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=cli_env({"TMPDIR": str(tmp_path)}),
    )
    try:
        deadline = time.monotonic() + 60
        # `run` opens the first child's stderr.log just before starting it
        while not list(tmp_path.glob("check_bytes-*/*/*/old/stderr.log")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert not list(tmp_path.glob("check_bytes-*"))
    # a child left running would recreate its --out directory when it finishes
    time.sleep(3)
    assert not list(tmp_path.glob("check_bytes-*"))
