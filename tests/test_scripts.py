"""Smoke runs of the experiment scripts: each exits 0 and prints its result.
`check_bytes.py` is also stopped mid-run and must leave nothing behind, and
its summary is checked on stand-in runs."""

import importlib.util
import signal
import subprocess
import sys
import time
from pathlib import Path

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


def _load_check_bytes(monkeypatch):
    spec = importlib.util.spec_from_file_location("check_bytes", REPO / "scripts" / "check_bytes.py")
    check_bytes = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "check_bytes", check_bytes)  # dataclasses look it up
    spec.loader.exec_module(check_bytes)
    return check_bytes


def test_check_bytes_totals_wall_time_per_subcommand(tmp_path, monkeypatch, capsys):
    check_bytes = _load_check_bytes(monkeypatch)
    for name in ("one", "two"):
        (tmp_path / f"{name}.cfg").write_text("[system]\n")
    for tree in ("old", "new"):
        (tmp_path / tree / "dynolearn").mkdir(parents=True)
        (tmp_path / tree / "dynolearn" / "__init__.py").touch()
    # 12 lines: 4 of module docstring, 1 blank, 1 comment, 2 of function
    # docstring, and 4 of code, one of them a string's second line
    (tmp_path / "new" / "dynolearn" / "core.py").write_text(
        '"""A module.\n\nIts docstring.\n"""\n\n'
        "# a comment\n"
        "def f(x):\n"
        '    """A function\n    docstring."""\n'
        '    y = """two\n    lines"""  # a trailing comment\n'
        "    return x, y\n"
    )

    def stand_in(src, args, out):  # the new tree runs mstar 4x faster, the rest alike
        wall = 0.5 if src.name == "new" and args[0] == "mstar" else 2.0
        rss = 10.0  # the new tree's risk peaks at 5 MiB on one.cfg and 8 MiB on two.cfg
        if src.name == "new" and args[0] == "risk":
            rss = 5.0 if Path(args[2]).stem == "one" else 8.0
        return check_bytes.Run(0, {"out.csv": "1\n"}, wall, rss)

    monkeypatch.setattr(check_bytes, "ROOT", tmp_path)
    monkeypatch.setattr(check_bytes, "CONFIG_DIRS", (tmp_path,))
    monkeypatch.setattr(check_bytes, "run", stand_in)
    monkeypatch.setattr(check_bytes.signal, "signal", lambda *args: None)
    assert check_bytes.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # each tree's package size comes first
    assert lines[:2] == [
        "old dynolearn: 0 lines, 0 code lines",
        "new dynolearn: 12 lines, 4 code lines",
    ]
    assert "mstar wall time: old 4.0 s, new 1.0 s (4.00x)" in lines
    assert "risk wall time: old 4.0 s, new 4.0 s (1.00x)" in lines
    # each subcommand's largest peak RSS over the configs, after the wall times
    assert "risk peak RSS: old 10.0 MiB, new 8.0 MiB (1.25x)" in lines
    assert "mstar peak RSS: old 10.0 MiB, new 10.0 MiB (1.00x)" in lines
    walls = [i for i, line in enumerate(lines) if " wall time: " in line]
    peaks = [i for i, line in enumerate(lines) if " peak RSS: " in line and " wall " not in line]
    assert len(peaks) == 7 and min(peaks) > max(walls)
    assert lines[-3] == "wall time: old 28.0 s, new 25.0 s"
    assert lines[-1] == "0 of 14 runs differ"


def test_check_bytes_alternates_the_tree_order(tmp_path, monkeypatch, capsys):
    # host drift during a check must not land on one tree: OLD runs first on
    # even pairs, NEW on odd ones, and each pair is still compared old to new
    check_bytes = _load_check_bytes(monkeypatch)
    (tmp_path / "one.cfg").write_text("[system]\n")
    for tree in ("old", "new"):
        (tmp_path / tree / "dynolearn").mkdir(parents=True)
        (tmp_path / tree / "dynolearn" / "__init__.py").touch()
    calls = []

    def stand_in(src, args, out):
        calls.append(src.name)
        return check_bytes.Run(0, {"out.csv": f"{src.name}\n"}, 1.0, 1.0)

    monkeypatch.setattr(check_bytes, "ROOT", tmp_path)
    monkeypatch.setattr(check_bytes, "CONFIG_DIRS", (tmp_path,))
    monkeypatch.setattr(check_bytes, "run", stand_in)
    monkeypatch.setattr(check_bytes.signal, "signal", lambda *args: None)
    assert check_bytes.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    pairs = len(check_bytes.SUBCOMMANDS)
    assert calls == [t for i in range(pairs) for t in (("old", "new"), ("new", "old"))[i % 2]]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{pairs} of {pairs} runs differ"
    assert sum("out.csv differs" in line for line in lines) == pairs
