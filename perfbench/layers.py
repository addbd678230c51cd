"""Reduce the spans of traced CLI runs to the per-layer metrics.

A span is ``[id, name, start, end, parent, thread, attrs]`` as written by
``traced_cli.py``; ``name`` is ``<module>.<function>`` or
``<module>.<Class>.<method>``.  A span's self time is its duration minus the
part of its interval that its child spans cover (children on worker threads
count, and overlapping children are counted once).  "Outermost" spans of a
set are those whose parent is not in the set, so a dispatcher and the
function it dispatches to are not counted twice.

Every metric is summed over all CLI invocations of one pass of a workload,
except ``learnability.x0_used`` (distinct initial states simulated in the
pass), the shares, and ``predictors.feature_tensor_mb`` (largest tensor).
"""

from __future__ import annotations

HARNESS = {
    "learnability.estimate_excess_risk",
    "learnability.minimal_filter_count",
    "learnability.agnostic_gap",
    "learnability.bias_variance_split",
}
WRITERS = ("write_csv", "write_summary_csv", "write_burn_in_csv", "write_trajectory_csv")

#: (name, unit) of every per-layer metric this module computes, in report order.
METRICS = (
    ("numerics.normals_s", "s"),
    ("numerics.draws", "count"),
    ("numerics.draw_reuse", "share"),
    ("systems.simulate_s", "s"),
    ("systems.simulate_self_s", "s"),
    ("systems.state_steps", "count"),
    ("spectral.features_s", "s"),
    ("spectral.feature_flops", "flop"),
    ("spectral.bank_build_s", "s"),
    ("predictors.spectral_s", "s"),
    ("predictors.ridge_s", "s"),
    ("predictors.baseline_s", "s"),
    ("predictors.refit_solves", "count"),
    ("predictors.feature_tensor_mb", "MiB"),
    ("oracles.kalman_s", "s"),
    ("oracles.gain_schedule_s", "s"),
    ("oracles.schedule_reuse", "share"),
    ("learnability.self_s", "s"),
    ("learnability.x0_used", "count"),
    ("learnability.parallel_efficiency", "share"),
    ("cli.import_s", "s"),
    ("config.load_s", "s"),
    ("config.build_s", "s"),
    ("cli.write_s", "s"),
)

#: metrics that count work; they must repeat exactly between runs of one input
COUNTS = (
    "numerics.draws",
    "systems.state_steps",
    "spectral.feature_flops",
    "predictors.refit_solves",
    "learnability.x0_used",
)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()), s[2], s[3]) for s in spans
    }


def _short(name: str) -> str:
    return name.rsplit(".", 1)[1]


def _dur(s) -> float:
    return s[3] - s[2]


def _attr(s, key):
    return (s[6] or {}).get(key, 0)


def _prefix(prefix: str):
    return lambda n: n.startswith(prefix)


def _is_normals(n):
    return n == "numerics.SeededRng.normals"


def _is_simulate(n):
    return n.startswith("systems.simulate")


def _is_features(n):
    return n in ("spectral.trajectory_features", "spectral.features")


def _is_bank(n):
    return n in ("spectral.build_filter_bank", "spectral.truncate_bank")


def _is_ridge_run(n):
    return n.startswith("predictors.") and n.endswith(".run_ensemble")


def _is_schedule(n):
    return n == "oracles.KalmanPredictor.gain_schedule"


def _is_load(n):
    return n in ("config.load_config", "config.parse_config", "config.validate_config")


def invocation_metrics(doc: dict, workers: int) -> dict[str, float]:
    """Per-layer sums for one traced CLI invocation (a spans document).

    Keys starting with "_" are partial sums that `pass_metrics` turns into
    shares and distinct counts.
    """
    spans = doc["spans"]
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)

    def select(pred):
        return [s for s in spans if pred(s[1])]

    def outer_time(pred):
        return sum(
            _dur(s) for s in select(pred) if not (s[4] in by_id and pred(by_id[s[4]][1]))
        )

    draws, simulate, runs = select(_is_normals), select(_is_simulate), select(_is_ridge_run)
    schedules, harness = select(_is_schedule), select(lambda n: n in HARNESS)
    learn = select(lambda n: n.startswith("learnability.") and _short(n) not in WRITERS)
    harness_ids = {h[0] for h in harness}
    return {
        "numerics.normals_s": sum(map(_dur, draws)),
        "numerics.draws": len(draws),
        "_draw_repeats": sum(_attr(s, "repeat") for s in draws),
        "systems.simulate_s": outer_time(_is_simulate),
        "systems.simulate_self_s": sum(own[s[0]] for s in simulate),
        "systems.state_steps": sum(_attr(s, "state_steps") for s in simulate),
        "_x0": {s[6]["x0"] for s in simulate if s[6]},
        "spectral.features_s": outer_time(_is_features),
        "spectral.feature_flops": sum(_attr(s, "flops") for s in select(_is_features)),
        "spectral.bank_build_s": outer_time(_is_bank),
        "predictors.spectral_s": outer_time(_prefix("predictors.SpectralPredictor.run")),
        "predictors.ridge_s": sum(own[s[0]] for s in runs),
        "predictors.baseline_s": outer_time(_prefix("predictors.BaselinePredictor.run")),
        "predictors.refit_solves": sum(_attr(s, "refit_solves") for s in runs),
        "_feature_bytes": max([_attr(s, "feature_bytes") for s in runs], default=0),
        "oracles.kalman_s": outer_time(_prefix("oracles.KalmanPredictor.run")),
        "oracles.gain_schedule_s": sum(map(_dur, schedules)),
        "_schedules": len(schedules),
        "_schedule_repeats": sum(_attr(s, "repeat") for s in schedules),
        "learnability.self_s": sum(own[s[0]] for s in learn),
        "_harness_busy_s": sum(_dur(s) for s in spans if s[4] in harness_ids),
        "_harness_capacity_s": workers * sum(map(_dur, harness)),
        "cli.import_s": doc["import_s"],
        "config.load_s": outer_time(_is_load),
        "config.build_s": outer_time(_prefix("config.build_")),
        "cli.write_s": outer_time(lambda n: _short(n) in WRITERS),
    }


def pass_metrics(docs, workers: int) -> dict[str, float]:
    """Combine the invocations of one traced pass into the reported metrics."""
    parts = [invocation_metrics(d, workers) for d in docs]

    def total(key):
        return sum(p[key] for p in parts)

    def share(part, whole):
        return total(part) / total(whole) if total(whole) else 0.0

    out = {k: total(k) for k in parts[0] if not k.startswith("_")}
    out["numerics.draw_reuse"] = share("_draw_repeats", "numerics.draws")
    out["predictors.feature_tensor_mb"] = max(p["_feature_bytes"] for p in parts) / 2**20
    out["oracles.schedule_reuse"] = share("_schedule_repeats", "_schedules")
    out["learnability.x0_used"] = len(set().union(*(p["_x0"] for p in parts)))
    out["learnability.parallel_efficiency"] = share("_harness_busy_s", "_harness_capacity_s")
    return {name: out[name] for name, _ in METRICS}
