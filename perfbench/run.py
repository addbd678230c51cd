#!/usr/bin/env python3
"""The dynolearn benchmark: runs the CLI as users do and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a dynolearn checkout; it needs nothing but that
checkout's ``src`` tree (no install step).  Every CLI invocation is its own
subprocess with an absolute ``PYTHONPATH`` and runs in its own output
directory under ``.perfbench/``.  The workload seed reaches the program only
as ``run.seed=<seed>``; the system matrices stay fixed.

A run first makes a reduced-size check pass at the default seed (0) and
compares its CSVs with the references pinned in ``perfbench/reference``,
then makes set-up probes, then repeats the workload at ``--seed`` for up to
``--seconds``.
``--trace 0`` reports the end-to-end metrics of those passes; ``--trace 1``
alternates untraced and traced passes (see ``traced_cli.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object;
everything measured, with sample counts, CSV digests and the environment,
also goes to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"
NPROC = len(os.sched_getaffinity(0))
DEFAULT_SEED = 0
RUN_BUDGET_S = 170.0  # one run must end within 180 s; keep a margin
SETUP_PROBES = 5
REL_TOL, ABS_TOL = 1e-6, 1e-12  # "within tolerance of the reference"

OUTPUTS = {
    "risk": ("risk.csv",),
    "burnin": ("burnin.csv",),
    "mstar": ("mstar_table.csv", "mstar.csv"),
    "agnostic": ("agnostic.csv",),
    "biasvar": ("biasvar.csv",),
}


@dataclass(frozen=True)
class Workload:
    config: str
    jobs: int
    commands: tuple[str, ...]
    # overrides of the check pass: the same config and code paths with fewer
    # trajectories (and, where simulation cost does not scale with them, fewer
    # x0), so that most of a run's time goes to measured samples
    check: tuple[str, ...]


# Why each workload exists is in README.md; each loads one layer heavily and
# leaves another nearly idle.
WORKLOADS = {
    "scalar": Workload(
        "scalar.cfg", 1, ("risk", "burnin", "mstar", "agnostic", "biasvar"), ("harness.n_traj=20",)
    ),
    "d50": Workload("d50.cfg", NPROC, ("risk",), ("harness.n_traj=20",)),
    "lorenz-long": Workload(
        "lorenz_long.cfg", 1, ("risk",), ("harness.n_traj=2", "system.x0_points=2")
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("risk_s", "s"),
    ("pred_steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
# subcommand wall times that only the scalar workload has; reported with the
# per-layer metrics because every end-to-end metric must exist on every workload
SUBCOMMAND_WALLS = ("mstar", "agnostic", "biasvar")
PER_LAYER = (
    layers.METRICS
    + tuple((f"cli.{c}_s", "s") for c in SUBCOMMAND_WALLS)
    + (("cli.csv_changed", "count"), ("trace.overhead_s", "s"))
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("DYNOLEARN_", "PYTHON"))}
    # worker threads (-j) plus BLAS threads must never exceed nproc
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class Invocation:
    command: str
    code: int
    wall_s: float
    rss_kib: int
    out: Path


def spawn(argv: list[str], cwd: Path, deadline: Deadline) -> tuple[int, float, int]:
    """Run one child to completion; returns (exit code, wall seconds, peak RSS KiB)."""
    with open(cwd / "stdout.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: kill() is a no-op now
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss


def run_pass(wl: Workload, seed: int, out: Path, deadline: Deadline, traced=False, check=False):
    """One pass of the workload: each subcommand as its own CLI process."""
    config = str(BENCH / "configs" / wl.config)
    result = []
    for command in wl.commands:
        d = out / command
        d.mkdir(parents=True)
        args = [command, "-c", config, "--out", str(d), "-j", str(wl.jobs), f"run.seed={seed}"]
        if check:
            args += wl.check
        if command == "burnin":
            args[1:1] = ["--curve", str(out / "risk" / "risk.csv")]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), "--spans", str(d / "spans.json")]
            argv.append("--")
        else:
            argv = [sys.executable, "-m", "dynolearn"]
        code, wall, rss = spawn(argv + args, d, deadline)
        result.append(Invocation(command, code, wall, rss, d))
        if deadline.left() <= 0:
            break
    return result


# --- output checks ---------------------------------------------------------


def _cells_match(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return False
    return x == y or math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def within_tolerance(path: Path, ref: Path) -> bool:
    rows, ref_rows = path.read_text().splitlines(), ref.read_text().splitlines()
    if len(rows) != len(ref_rows):
        return False
    for row, ref_row in zip(rows, ref_rows):
        cells, ref_cells = row.split(","), ref_row.split(",")
        if len(cells) != len(ref_cells) or not all(map(_cells_match, cells, ref_cells)):
            return False
    return True


def finite(path: Path) -> bool:
    """No NaN anywhere; infinity only as burnin's "never reached" time."""
    for cell in path.read_text().replace("\n", ",").split(","):
        try:
            x = float(cell)
        except ValueError:
            continue
        if math.isnan(x) or (math.isinf(x) and path.name != "burnin.csv"):
            return False
    return True


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    csv_changed: int = 0

    def invocation(self, inv: Invocation, ref_dir: Path | None, same_bytes: bool) -> None:
        """Count one invocation; ref_dir holds reference CSVs per subcommand.

        With same_bytes the outputs must equal the reference byte for byte
        (same seed and code, so anything else breaks determinism); otherwise
        they must be within tolerance and byte changes are counted.
        """
        self.attempted += 1
        ok = inv.code == 0
        for name in OUTPUTS[inv.command]:
            path = inv.out / name
            ref = None if ref_dir is None else ref_dir / inv.command / name
            if not (path.is_file() and finite(path)) or (ref is not None and not ref.is_file()):
                ok = False
            elif ref is not None and path.read_bytes() != ref.read_bytes():
                if same_bytes:
                    ok = False
                else:
                    self.csv_changed += 1
                    ok = ok and within_tolerance(path, ref)
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {inv.command} in {inv.out} (exit {inv.code})\n")


def digests(passes) -> list[dict[str, str]]:
    return [
        {
            f"{inv.command}/{name}": digest(inv.out / name)
            for inv in p
            for name in OUTPUTS[inv.command]
            if (inv.out / name).is_file()
        }
        for p in passes
    ]


# --- measurement -----------------------------------------------------------


def probe_setup(wl: Workload, seed: int, out: Path, count: int, deadline: Deadline, checks: Checks):
    """Time the set-up phase `count` times in fresh processes; returns (walls, probe output)."""
    walls, info = [], {}
    config = str(BENCH / "configs" / wl.config)
    argv = [sys.executable, str(BENCH / "setup_probe.py"), config, ",".join(wl.commands)]
    argv.append(f"run.seed={seed}")
    for i in range(count):
        d = out / f"setup{i}"
        d.mkdir(parents=True)
        code, wall, _ = spawn(argv, d, deadline)
        checks.attempted += 1
        if code != 0:
            checks.failed += 1
            sys.stderr.write(f"set-up probe failed (exit {code}); see {d / 'stdout.log'}\n")
            return [], {}
        walls.append(wall)
        info = json.loads((d / "stdout.log").read_text().splitlines()[-1])
    if Path(info["package"]).resolve() != (SRC / "dynolearn").resolve():
        raise SystemExit(f"dynolearn was imported from {info['package']}, not from {SRC}")
    return walls, info


def environment(wl_name: str, info: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return dict(
        info.get("env", {}),
        nproc=NPROC,
        cpu=cpu,
        workload=wl_name,
        jobs={name: wl.jobs for name, wl in WORKLOADS.items()},
    )


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def walls_of(passes, command: str) -> list[float]:
    return [inv.wall_s for p in passes for inv in p if inv.command == command]


def pass_wall(p) -> float:
    return sum(inv.wall_s for inv in p)


def measure(wl, seed, seconds, out, deadline, checks, traced: bool):
    """Repeat the workload for up to `seconds` (at least once): untraced passes,
    or (untraced, traced) pairs."""
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        n = len(plain)
        p = run_pass(wl, seed, out / f"pass{n}", deadline)
        checks_before = checks.failed
        for inv in p:
            checks.invocation(inv, plain[0][0].out.parent if plain else None, same_bytes=True)
        plain.append(p)
        if traced:
            t = run_pass(wl, seed, out / f"traced{n}", deadline, traced=True)
            for inv in t:
                checks.invocation(inv, p[0].out.parent, same_bytes=True)
            traced_passes.append(t)
        # start another pass only if it should end within `seconds`
        took = pass_wall(p) + (pass_wall(traced_passes[-1]) if traced else 0.0)
        if (
            time.perf_counter() - start + took > seconds
            or checks.failed > checks_before
            or deadline.left() < 1.5 * took
        ):
            return plain, traced_passes


def end_to_end(plain, setup_walls, info) -> dict[str, tuple[float, int]]:
    total_steps = sum(info["pred_steps"].values())
    return {
        "setup_s": (median(setup_walls), len(setup_walls)),
        "risk_s": (median(walls_of(plain, "risk")), len(walls_of(plain, "risk"))),
        "pred_steps_per_s": (total_steps / median([pass_wall(p) for p in plain]), len(plain)),
        "peak_rss_mb": (median([max(inv.rss_kib for inv in p) / 1024 for p in plain]), len(plain)),
    }


def per_layer(wl: Workload, plain, traced_passes, checks: Checks) -> dict[str, tuple[float, int]]:
    samples = []
    for t in traced_passes:
        docs = [json.loads((inv.out / "spans.json").read_text()) for inv in t]
        for doc in docs:
            for err in doc["hook_errors"]:
                sys.stderr.write(f"trace hook error: {err}\n")
        samples.append(layers.pass_metrics(docs, wl.jobs))
    for name in layers.COUNTS:
        if len({s[name] for s in samples}) > 1:
            values = [s[name] for s in samples]
            sys.stderr.write(f"count metric {name} differs between passes: {values}\n")
    n = len(samples)
    out = {name: (median([s[name] for s in samples]), n) for name, _ in layers.METRICS}
    for c in SUBCOMMAND_WALLS:
        out[f"cli.{c}_s"] = (median(walls_of(plain, c)), len(walls_of(plain, c)))
    out["cli.csv_changed"] = (checks.csv_changed, 1)
    overhead = [pass_wall(t) - pass_wall(p) for p, t in zip(plain, traced_passes)]
    out["trace.overhead_s"] = (median(overhead), len(overhead))
    return out


def pin(wl_name: str) -> int:
    """Write the reference CSVs of a workload's check pass: default seed, -j1, untraced."""
    wl = WORKLOADS[wl_name]
    out = WORK / "pin" / wl_name
    shutil.rmtree(out, ignore_errors=True)
    p = run_pass(
        replace(wl, jobs=1), DEFAULT_SEED, out, Deadline(RUN_BUDGET_S), check=True
    )
    checks = Checks()
    for inv in p:
        checks.invocation(inv, None, same_bytes=True)
    if checks.failed:
        return 1
    dest = REFERENCE / wl_name
    shutil.rmtree(dest, ignore_errors=True)
    for inv in p:
        (dest / inv.command).mkdir(parents=True)
        for name in OUTPUTS[inv.command]:
            shutil.copyfile(inv.out / name, dest / inv.command / name)
    print(f"pinned {dest}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dynolearn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the workload's reference CSVs")
    args = parser.parse_args(argv)

    if not (SRC / "dynolearn" / "__init__.py").is_file():
        sys.stderr.write(f"no dynolearn sources under {SRC}; run from a dynolearn checkout\n")
        return 2
    if args.pin:
        return pin(args.workload)
    ref_dir = REFERENCE / args.workload
    if not ref_dir.is_dir():
        sys.stderr.write(f"no reference outputs at {ref_dir}\n")
        return 2

    wl = WORKLOADS[args.workload]
    deadline = Deadline(RUN_BUDGET_S)
    out = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    checks = Checks()

    # check pass: default seed against the pinned -j1 references; also warms caches
    check = run_pass(wl, DEFAULT_SEED, out / "check", deadline, check=True)
    for inv in check:
        checks.invocation(inv, ref_dir, same_bytes=False)
    probes = 1 if args.trace else SETUP_PROBES
    setup_walls, info = probe_setup(wl, args.seed, out, probes, deadline, checks)
    plain, traced_passes = [], []
    if not checks.failed:
        plain, traced_passes = measure(
            wl, args.seed, args.seconds, out, deadline, checks, bool(args.trace)
        )

    complete = bool(plain) and bool(info) and all(len(p) == len(wl.commands) for p in plain)
    if args.trace:
        declared = PER_LAYER
        metrics = per_layer(wl, plain, traced_passes, checks) if complete else {}
    else:
        declared = END_TO_END
        metrics = end_to_end(plain, setup_walls, info) if complete else {}
    env = environment(args.workload, info)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "csv_changed": checks.csv_changed,
        "x0_used": info.get("x0_used"),
        "pred_steps": info.get("pred_steps"),
        "digests": {"check": digests([check])[0], "seed": digests(plain)},
        "samples": {
            "setup_s": setup_walls,
            "pass_s": [pass_wall(p) for p in plain],
            **{f"{c}_s": walls_of(plain, c) for c in wl.commands},
            "traced_pass_s": [pass_wall(t) for t in traced_passes],
        },
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{out.name}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(record["digests"]["seed"][:1], sort_keys=True))
    print(f"checks attempted={checks.attempted} failed={checks.failed}", end=" ")
    print(f"csv_changed={checks.csv_changed}")
    for name, unit in declared:
        value, n = metrics.get(name, (0.0, 0))
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0 and complete,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": metrics.get(name, (0.0, 0))[0], "unit": unit}
                    for name, unit in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
