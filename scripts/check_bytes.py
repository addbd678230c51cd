#!/usr/bin/env python3
"""Check that two dynolearn source trees write byte-identical outputs.

    python3 scripts/check_bytes.py OLD_SRC NEW_SRC [-j N] [--keep DIR]

OLD_SRC and NEW_SRC are `src` directories (each holding the `dynolearn`
package), for example the `src` of a `git archive` of the parent commit and
this checkout's `src`.  Every subcommand (simulate, filters, risk, burnin,
mstar, agnostic, biasvar) runs on every `configs/*.cfg` and
`perfbench/configs/*.cfg` of this checkout with each tree, as one
`python -m dynolearn` process at `-j N` (default 1) with BLAS pinned to one
thread.  The order of the two trees alternates from one (config,
subcommand) pair to the next, OLD first on the first pair, so a drift of
the host's speed during a check lands on both trees alike.  `filters`
takes its window and filter count from the config's [predictor] section.
The configs are only read.

Each run's CSVs, `resolved.cfg` and `manifest.txt` are compared byte for
byte; the last two are where a drift of the config codec shows (the manifest
holds the config digest).  Each line of the report names a (config,
subcommand) pair and either `same`, the files whose bytes differ, or
differing exit codes.  For a CSV written by both trees with the same shape,
the line says how far it moved: how many cells differ, the largest relative
difference over numeric cells, and whether any non-numeric cell (such as
m*'s `achieved`) changed; a differing `resolved.cfg` or `manifest.txt` is
reported as `differs`.  A subcommand that fails with the same exit code and
the same files under both trees counts as the same.  Each line also gives
both trees' wall time and peak RSS for that run (the child's `ru_maxrss`,
from `os.wait4`).  After those lines come each subcommand's wall time
summed over the configs for each tree, with the old-to-new ratio, then each
subcommand's largest peak RSS over the configs for each tree, with the
old-to-new ratio, then the total wall time per tree and each tree's largest
peak RSS with the run it came from.  The first two lines give each tree's
`dynolearn` size: its total lines, and its code lines, which leave out
docstrings (module, class and function) and comments.  Exit
status: 0 when nothing differs, 1 otherwise.  SIGTERM or Ctrl-C kills the
running child, removes the work directory (unless `--keep`) and exits with
128 + the signal number.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = (ROOT / "configs", ROOT / "perfbench" / "configs")
SUBCOMMANDS = ("simulate", "filters", "risk", "burnin", "mstar", "agnostic", "biasvar")
# the CLI's defaults when a config has no [predictor] window / m
DEFAULT_WINDOW, DEFAULT_M = 100, 15
# compared byte for byte besides the CSVs; `filters` writes neither
RECORDS = ("resolved.cfg", "manifest.txt")
# the signals that stop a check (see `_stop`)
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src.resolve())
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def command_args(subcommand: str, config: Path, out: Path, jobs: int) -> list[str]:
    if subcommand == "filters":
        parser = configparser.ConfigParser()
        parser.read(config)
        window = parser.getint("predictor", "window", fallback=DEFAULT_WINDOW)
        m = parser.getint("predictor", "m", fallback=DEFAULT_M)
        return ["filters", "-T", str(window), "-m", str(m), "--out", str(out)]
    return [subcommand, "-c", str(config), "--out", str(out), "-j", str(jobs)]


@dataclass(frozen=True)
class Run:
    code: int
    files: dict[str, str]  # CSV or record name -> contents
    wall_s: float
    peak_rss_mib: float


def _unblock_stop_signals() -> None:
    signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def run(src: Path, args: list[str], out: Path) -> Run:
    """Exit code, output files, wall time and peak RSS of one CLI run writing into `out`."""
    out.mkdir(parents=True)
    with open(out / "stderr.log", "w") as stderr:
        t0 = time.perf_counter()
        # SIGTERM and Ctrl-C are held until `proc` exists: raised inside
        # Popen, which waits for the child's exec, `_stop` would leave that
        # child running past the cleanup
        signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        proc = None
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "dynolearn", *args],
                cwd=out,
                env=child_env(src),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                preexec_fn=_unblock_stop_signals,  # the child starts with none held
            )
            _unblock_stop_signals()  # a held signal is raised here
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C (see `_stop`): leave no child running
            if proc is not None:
                proc.kill()
                proc.wait()
            _unblock_stop_signals()
            raise
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    paths = [*sorted(out.glob("*.csv")), *(out / name for name in RECORDS)]
    files = {p.name: p.read_text() for p in paths if p.is_file()}
    return Run(proc.returncode, files, wall_s, usage.ru_maxrss / 1024.0)  # KiB on Linux


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def drift(old: str, new: str) -> str:
    """How far a CSV moved between two runs: differing cells, the largest
    relative difference over numeric cells, and whether any other cell changed."""
    old_rows = [line.split(",") for line in old.splitlines()]
    new_rows = [line.split(",") for line in new.splitlines()]
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        return "shape changed"
    cells, rel, text_changed = 0, 0.0, False
    for old_row, new_row in zip(old_rows, new_rows):
        for a, b in zip(old_row, new_row):
            if a == b:
                continue
            cells += 1
            try:
                rel = max(rel, _relative(float(a), float(b)))
            except ValueError:
                text_changed = True
    text = "changed" if text_changed else "same"
    return f"{cells} cells, max rel {rel:.3g}, non-numeric cells {text}"


def compare(old: Run, new: Run) -> str:
    problems = []
    if old.code != new.code:
        problems.append(f"exit old={old.code} new={new.code}")
    for name in sorted(set(old.files) | set(new.files)):
        if old.files.get(name) == new.files.get(name):
            continue
        if name not in old.files or name not in new.files:
            problems.append(f"{name} differs (written by one tree only)")
        elif name in RECORDS:
            problems.append(f"{name} differs")
        else:
            problems.append(f"{name} differs ({drift(old.files[name], new.files[name])})")
    same = f"same (exit {new.code}, {len(new.files)} files)"
    verdict = "; ".join(problems) if problems else same
    cost = ", ".join(
        f"{tag} {r.wall_s:.2f} s {r.peak_rss_mib:.1f} MiB" for tag, r in (("old", old), ("new", new))
    )
    return f"{verdict}; {cost}"


def code_lines(source: str) -> int:
    """Lines of Python source that hold a token other than a comment, outside
    the docstrings of the module, its classes and its functions."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout and tok.type != tokenize.ENDMARKER:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def package_size(src: Path) -> str:
    """The total lines and code lines (`code_lines`) of src's dynolearn package."""
    texts = [p.read_text() for p in sorted((src / "dynolearn").glob("*.py"))]
    total = sum(text.count("\n") for text in texts)
    return f"{total} lines, {sum(map(code_lines, texts))} code lines"


def _stop(signum, frame):
    """SIGTERM or Ctrl-C: unwind, so the running child is killed and the work
    directory removed, then exit with 128 + the signal number."""
    raise SystemExit(128 + signum)


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

    for tag, src in (("old", args.old_src), ("new", args.new_src)):
        print(f"{tag} dynolearn: {package_size(src)}", flush=True)
    for signum in STOP_SIGNALS:
        signal.signal(signum, _stop)
    work = args.keep or Path(tempfile.mkdtemp(prefix="check_bytes-"))
    configs = sorted(p for d in CONFIG_DIRS for p in d.glob("*.cfg"))
    differing = 0
    wall = {"old": 0.0, "new": 0.0}
    sub_wall = {tag: dict.fromkeys(SUBCOMMANDS, 0.0) for tag in wall}
    sub_peak = {tag: dict.fromkeys(SUBCOMMANDS, 0.0) for tag in wall}  # MiB, largest over configs
    peak = {"old": (0.0, "none"), "new": (0.0, "none")}  # largest RSS, MiB, and its run
    trees = {"old": args.old_src, "new": args.new_src}
    pairs = [(config, sub) for config in configs for sub in SUBCOMMANDS]
    try:
        for i, (config, sub) in enumerate(pairs):
            label = config.relative_to(ROOT)
            results = {}
            for tag in ("old", "new") if i % 2 == 0 else ("new", "old"):
                out = work / f"{config.parent.name}-{config.stem}" / sub / tag
                res = results[tag] = run(trees[tag], command_args(sub, config, out, args.jobs), out)
                wall[tag] += res.wall_s
                sub_wall[tag][sub] += res.wall_s
                sub_peak[tag][sub] = max(sub_peak[tag][sub], res.peak_rss_mib)
                peak[tag] = max(peak[tag], (res.peak_rss_mib, f"{label} {sub}"))
            line = compare(results["old"], results["new"])
            differing += not line.startswith("same")
            print(f"{label} {sub}: {line}", flush=True)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    for sub in SUBCOMMANDS:
        old_s, new_s = sub_wall["old"][sub], sub_wall["new"][sub]
        ratio = f"{old_s / new_s:.2f}x" if new_s > 0 else "n/a"
        print(f"{sub} wall time: old {old_s:.1f} s, new {new_s:.1f} s ({ratio})")
    for sub in SUBCOMMANDS:
        old_mib, new_mib = sub_peak["old"][sub], sub_peak["new"][sub]
        ratio = f"{old_mib / new_mib:.2f}x" if new_mib > 0 else "n/a"
        print(f"{sub} peak RSS: old {old_mib:.1f} MiB, new {new_mib:.1f} MiB ({ratio})")
    print(f"wall time: old {wall['old']:.1f} s, new {wall['new']:.1f} s")
    print("peak RSS: " + ", ".join(f"{t} {peak[t][0]:.1f} MiB ({peak[t][1]})" for t in peak))
    print(f"{differing} of {len(configs) * len(SUBCOMMANDS)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
