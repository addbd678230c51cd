"""Run one dynolearn CLI command with the package's public functions timed from outside.

    python3 perfbench/traced_cli.py --spans FILE -- <subcommand> [args ...]

Before the command runs, every public function and public method of every
public dynolearn module is replaced by a wrapper that records a span: id,
name, start, end, parent span, thread and a few counts taken from the call's
arguments.  The wrapper is installed in the function's home module and at
every module that imported it by name (``learnability`` imports
``simulate_ensemble``, ``cli`` imports ``estimate_excess_risk``, ...), so no
call path escapes it.  Tasks submitted to a ``ThreadPoolExecutor`` inherit
the submitting span as parent.  Spans stay in memory and are written to FILE
as JSON when the command ends; the exit code is the command's.

The wrappers only observe: they never change arguments or results, so the
command's output files must be byte-identical to an untraced run's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor


def _x0_key(x0) -> str:
    import numpy as np  # not at module level: cli.import_s must include numpy's import

    return ",".join(repr(v) for v in np.asarray(x0, dtype=float).ravel().tolist())


def _shape(shape) -> tuple[int, ...]:
    return (int(shape),) if isinstance(shape, int) else tuple(int(s) for s in shape)


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[tuple] = []
        self.hook_errors: list[str] = []
        # per-object state for the reuse counters; weak so nothing is kept alive
        self._draw_ordinal: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._draw_keys: set = set()
        self._schedules: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def inherit(self, parent: int | None) -> None:
        self._local.inherited = parent

    def wrap(self, fn, name: str, hook=None):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if hook is not None:
                try:
                    attrs = hook(self, sig.bind(*args, **kwargs).arguments)
                except Exception as exc:  # a stale hook must not break the command
                    self.hook_errors.append(f"{name}: {exc!r}")
            with self._lock:
                sid = next(self._ids)
            parent = self.current()
            stack = self._stack()
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), attrs))

        return traced

    # argument hooks: counts that are measured where the work happens ------
    def draw(self, rng, shape) -> bool:
        """Record one normals() call; True if its (seed, path, ordinal, shape) repeats."""
        with self._lock:
            ordinal = self._draw_ordinal.get(rng, 0)
            self._draw_ordinal[rng] = ordinal + 1
            key = (rng.seed, tuple(rng.path), ordinal, shape)
            repeat = key in self._draw_keys
            self._draw_keys.add(key)
        return repeat

    def schedule(self, predictor, horizon: int) -> bool:
        """Record one gain_schedule() call; True if this predictor saw this horizon before."""
        with self._lock:
            seen = self._schedules.setdefault(predictor, set())
            repeat = horizon in seen
            seen.add(horizon)
        return repeat


def _hook_normals(tr: Tracer, a) -> dict:
    shape = _shape(a["shape"])
    return {"repeat": tr.draw(a["self"], shape), "values": math.prod(shape)}


def _hook_simulate_ensemble(tr: Tracer, a) -> dict:
    return {"state_steps": len(a["rngs"]) * int(a["horizon"]), "x0": _x0_key(a["x0"])}


def _hook_simulate_one(tr: Tracer, a) -> dict:
    return {"state_steps": int(a["horizon"]), "x0": _x0_key(a["x0"])}


def _hook_trajectory_features(tr: Tracer, a) -> dict:
    bank, ys = a["bank"], a["ys"]
    H = len(ys)
    p = 1 if getattr(ys, "ndim", 1) == 1 else ys.shape[1]
    return {"flops": 2 * H * p * bank.window * bank.feature_count}


def _hook_features(tr: Tracer, a) -> dict:
    bank, h = a["bank"], a["history"]
    p = 1 if getattr(h, "ndim", 1) <= 1 else h.shape[1]
    return {"flops": 2 * p * bank.window * bank.feature_count}


def _ridge_shape(Ys, q_per_output: int, refit_period: int) -> dict:
    n, H, p = Ys.shape
    q = q_per_output * p
    return {"refit_solves": n * (H // refit_period), "feature_bytes": n * H * q * 8}


def _hook_spectral_run(tr: Tracer, a) -> dict:
    pred = a["self"]
    return _ridge_shape(a["Ys"], pred.bank.feature_count, pred.refit_period)


def _hook_baseline_run(tr: Tracer, a) -> dict:
    pred = a["self"]
    if pred.kind != "ar":
        return {"refit_solves": 0, "feature_bytes": 0}
    # the baselines expose no public refit period; read the streaming core's
    return _ridge_shape(a["Ys"], pred.order, pred._core.refit_period)


def _hook_gain_schedule(tr: Tracer, a) -> dict:
    return {"repeat": tr.schedule(a["self"], int(a["horizon"]))}


HOOKS = {
    "numerics.SeededRng.normals": _hook_normals,
    "systems.simulate_lds_ensemble": _hook_simulate_ensemble,
    "systems.simulate_lorenz_ensemble": _hook_simulate_ensemble,
    "systems.simulate_lds": _hook_simulate_one,
    "systems.simulate_closed_loop": _hook_simulate_one,
    "systems.simulate_lorenz": _hook_simulate_one,
    "spectral.trajectory_features": _hook_trajectory_features,
    "spectral.features": _hook_features,
    "predictors.SpectralPredictor.run_ensemble": _hook_spectral_run,
    "predictors.BaselinePredictor.run_ensemble": _hook_baseline_run,
    "oracles.KalmanPredictor.gain_schedule": _hook_gain_schedule,
}


def install(tracer: Tracer, package) -> None:
    """Wrap the package's public functions and methods in place."""
    modules = [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")  # skips __main__, which runs the CLI on import
    ]

    # id(original) -> wrapper; each wrapper's __wrapped__ keeps its original
    # alive, so the ids stay unique
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                span = f"{short}.{name}"
                wrapped[id(obj)] = tracer.wrap(obj, span, HOOKS.get(span))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        span = f"{short}.{name}.{attr}"
                        setattr(obj, attr, tracer.wrap(member, span, HOOKS.get(span)))

    # replace the function in its home module and at every import site
    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == package.__name__]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])

    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        parent = tracer.current()

        def task(*a, **k):
            tracer.inherit(parent)
            try:
                return fn(*a, **k)
            finally:
                tracer.inherit(None)

        return submit(self, task, *args, **kwargs)

    ThreadPoolExecutor.submit = traced_submit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- subcommand [args ...]")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    t0 = time.perf_counter()
    import dynolearn
    import dynolearn.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer, dynolearn)
    code = 1
    try:
        code = dynolearn.cli.main(command)
    finally:
        threads: dict[int, int] = {}
        spans = [
            [sid, name, start, end, parent, threads.setdefault(thread, len(threads)), attrs]
            for sid, name, start, end, parent, thread, attrs in sorted(tracer.spans)
        ]
        with open(args.spans, "w") as fh:
            json.dump(
                {
                    "import_s": import_s,
                    "hook_errors": tracer.hook_errors,
                    "spans": spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
