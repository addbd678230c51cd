#!/usr/bin/env python3
"""Check that two dynolearn source trees write byte-identical CSVs.

    python3 scripts/check_bytes.py OLD_SRC NEW_SRC [-j N] [--keep DIR]

OLD_SRC and NEW_SRC are `src` directories (each holding the `dynolearn`
package), for example the `src` of a `git archive` of the parent commit and
this checkout's `src`.  Every subcommand (simulate, filters, risk, burnin,
mstar, agnostic, biasvar) runs on every `configs/*.cfg` and
`perfbench/configs/*.cfg` of this checkout with each tree, as one
`python -m dynolearn` process at `-j N` (default 1) with BLAS pinned to one
thread.  `filters` takes its window and filter count from the config's
[predictor] section.  The configs are only read.

Each line of the report names a (config, subcommand) pair and either `same`,
the CSVs whose SHA-256 differs, or differing exit codes.  A subcommand that
fails with the same exit code and the same CSVs under both trees counts as
the same.  Exit status: 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = (ROOT / "configs", ROOT / "perfbench" / "configs")
SUBCOMMANDS = ("simulate", "filters", "risk", "burnin", "mstar", "agnostic", "biasvar")
# the CLI's defaults when a config has no [predictor] window / m
DEFAULT_WINDOW, DEFAULT_M = 100, 15


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src.resolve())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env.pop("DYNOLEARN_THREADS", None)
    return env


def command_args(subcommand: str, config: Path, out: Path, jobs: int) -> list[str]:
    if subcommand == "filters":
        parser = configparser.ConfigParser()
        parser.read(config)
        window = parser.getint("predictor", "window", fallback=DEFAULT_WINDOW)
        m = parser.getint("predictor", "m", fallback=DEFAULT_M)
        return ["filters", "-T", str(window), "-m", str(m), "--out", str(out)]
    return [subcommand, "-c", str(config), "--out", str(out), "-j", str(jobs)]


def run(src: Path, args: list[str], out: Path) -> tuple[int, dict[str, str]]:
    """Exit code and {csv name: sha256} of one CLI run writing into `out`."""
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "dynolearn", *args],
        cwd=out,
        env=child_env(src),
        capture_output=True,
        text=True,
    )
    (out / "stderr.log").write_text(proc.stderr)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    return proc.returncode, digests


def compare(old: tuple[int, dict], new: tuple[int, dict]) -> str:
    (old_code, old_csv), (new_code, new_csv) = old, new
    problems = []
    if old_code != new_code:
        problems.append(f"exit old={old_code} new={new_code}")
    for name in sorted(set(old_csv) | set(new_csv)):
        if old_csv.get(name) != new_csv.get(name):
            problems.append(f"{name} differs")
    return "; ".join(problems) if problems else f"same (exit {new_code}, {len(new_csv)} csv)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("-j", "--jobs", type=int, default=1, help="worker threads per run")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "dynolearn" / "__init__.py").is_file():
            parser.error(f"no dynolearn package under {src}")

    work = args.keep or Path(tempfile.mkdtemp(prefix="check_bytes-"))
    configs = sorted(p for d in CONFIG_DIRS for p in d.glob("*.cfg"))
    differing = 0
    try:
        for config in configs:
            label = config.relative_to(ROOT)
            for sub in SUBCOMMANDS:
                results = []
                for tag, src in (("old", args.old_src), ("new", args.new_src)):
                    out = work / f"{config.parent.name}-{config.stem}" / sub / tag
                    results.append(run(src, command_args(sub, config, out, args.jobs), out))
                line = compare(*results)
                differing += not line.startswith("same")
                print(f"{label} {sub}: {line}", flush=True)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{differing} of {len(configs) * len(SUBCOMMANDS)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
