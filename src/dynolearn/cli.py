"""Experiment runner CLI.

Subcommands: simulate | filters | risk | burnin | mstar | agnostic | biasvar.
Every successful run writes its artifacts plus a manifest (resolved config,
digest, seed, version) into the output directory, sufficient to reproduce
the run bit for bit; a failed run writes nothing.  Every subcommand but
`filters` runs one path (`_run`): it checks that `--out` is a directory or
can become one before it measures, and writes only after the measurement,
so a bad `--out` costs no measurement.  Exit codes: 0 success,
1 config error, 2 contract violation, 3 incompatible system/oracle pairing,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import (
    ExperimentConfig,
    build_baselines,
    build_oracle,
    build_predictor,
    build_system,
    canonical_text,
    load_config,
    parse_config,
    validate_config,
)
from .errors import ConfigError, ContractViolation, IncompatiblePairing, NumericalFailure
from .learnability import (
    bias_variance_split,
    burn_in_time,
    estimate_excess_risk,
    minimal_filter_count,
    read_risk_curve_csv,
    write_burn_in_csv,
)
from .numerics import SeededRng
from .spectral import build_filter_bank, reliable_filter_cap
from .systems import (
    _write_table, format_float, initial_states, simulate_ensemble, write_trajectory_csv
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONTRACT = 2
EXIT_PAIRING = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors
        raise ConfigError(message)


def _threads(flag: int | None) -> int:
    """Worker threads: `-j`, else every CPU this process may run on (its
    affinity set where the platform has one); the outputs do not depend on it."""
    if flag is not None:
        return max(1, flag)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _out_dir(path) -> Path:
    """The output directory `path`, made if missing; a path that cannot be
    one (an existing file, or a file among its parents) is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def _load(args) -> ExperimentConfig:
    overrides = list(args.overrides or [])
    if args.config is None:
        cfg = parse_config("", overrides)
    else:
        cfg = load_config(args.config, overrides)
    validate_config(cfg)
    return cfg


def _cmd_filters(args) -> int:
    window = args.window
    m = args.count
    cap = reliable_filter_cap(window)
    if m > cap:
        raise ContractViolation(
            f"filter count m={m} exceeds the reliable cap {cap} for window {window}"
        )
    bank = build_filter_bank(window, m)
    out = _out_dir(args.out or "out")
    spec_path = out / "spectrum.csv"
    _write_table(spec_path, ["i", "mu_i"], enumerate(bank.mus, start=1))
    filt_path = out / "filters.csv"
    header = ["k", *(f"phi_{j}" for j in range(1, m + 1))]
    _write_table(filt_path, header, ([k, *phi] for k, phi in enumerate(bank.phis, start=1)))
    print(f"wrote {spec_path} and {filt_path} (reliable cap {cap})")
    return EXIT_OK


def _run(args) -> int:
    """The one path of every subcommand that reads a config: load and
    validate it, check that the output path is a directory or can become
    one (it, or its nearest existing ancestor, is a directory), measure,
    and only then make the directory, write `resolved.cfg`, `manifest.txt`
    and the tables, and print the summary.  So a bad `--out` is refused
    before anything is measured, and a failed run writes nothing.

    `args.measure(cfg, args, harness)` takes the keywords that every
    measurement shares and returns its tables, {file name: writer of a
    path} in the order they are written, and its summary, a function of
    the output directory."""
    cfg = _load(args)
    out = Path(args.out or cfg.run.out_dir)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"cannot make output directory {out}: {nearest} is not a directory")
    harness = {
        "n_traj": cfg.harness.n_traj,
        "master_seed": cfg.run.seed,
        "window": cfg.harness.window,
        "n_workers": _threads(args.threads),
    }
    tables, summary = args.measure(cfg, args, harness)
    _out_dir(out)
    (out / "resolved.cfg").write_text(canonical_text(cfg))
    manifest = (
        f"tool = dynolearn {__version__}\n"
        f"subcommand = {args.command}\n"
        f"seed = {cfg.run.seed}\n"
        f"config_digest = {cfg.digest()}\n"
        "config_file = resolved.cfg\n"
    )
    (out / "manifest.txt").write_text(manifest)
    for name, write in tables.items():
        write(out / name)
    print(summary(out))
    return EXIT_OK


def _simulate(cfg: ExperimentConfig, args, harness):
    system = build_system(cfg)
    x0 = initial_states(system)[0]
    rngs = [SeededRng(cfg.run.seed).child(0, 0)]
    record = cfg.harness.record_states
    run = simulate_ensemble(system, cfg.harness.horizon, x0, rngs, record_states=record)
    ys, xs = (run[0][0], run[1][0]) if record else (run[0], None)
    tables = {"trajectory.csv": lambda path: write_trajectory_csv(ys, path, xs)}
    return tables, lambda out: f"rows={len(ys)} seed={cfg.run.seed}\nwrote {out / 'trajectory.csv'}"


def _curve(cfg: ExperimentConfig, harness, baselines: bool = False):
    """The configured learner's excess-risk curve over the oracle alone
    (`risk`, `burnin`), or over the baselines (`agnostic`)."""
    system = build_system(cfg)
    algorithm = build_predictor(cfg, system)
    refs = build_baselines(cfg, system) if baselines else (build_oracle(cfg, system),)
    return estimate_excess_risk(system, algorithm, refs, cfg.harness.t_grid, **harness)


def _risk(cfg: ExperimentConfig, args, harness):
    curve = _curve(cfg, harness)
    said = f"(oracle={curve.oracle_label}, n_traj={curve.n_traj})"
    return {"risk.csv": curve.write_csv}, lambda out: f"wrote {out / 'risk.csv'} {said}"


def _burnin(cfg: ExperimentConfig, args, harness):
    tables = {}
    if args.curve is not None:
        curve = read_risk_curve_csv(args.curve)
    else:
        curve = _curve(cfg, harness)
        tables["risk.csv"] = curve.write_csv
    reports = [burn_in_time(curve, eps) for eps in cfg.harness.epsilons]
    tables["burnin.csv"] = lambda path: write_burn_in_csv(reports, path)
    lines = []
    for r in reports:
        t = "inf" if not r.is_finite else str(int(r.t_star))
        eps = format_float(r.epsilon)
        lines.append(f"epsilon={eps} t_star={t} checked_to={r.uniform_checked_to}")
    return tables, lambda out: "\n".join([*lines, f"wrote {out / 'burnin.csv'}"])


def _mstar(cfg: ExperimentConfig, args, harness):
    h = cfg.harness
    system = build_system(cfg)
    # the configured learner with as many filters (AR lags) as the sweep reaches;
    # an empty m_range is refused by the sweep
    widest = dataclasses.replace(cfg.predictor, m=max(h.m_range, default=1))
    learner = build_predictor(dataclasses.replace(cfg, predictor=widest), system)
    oracle = build_oracle(cfg, system)
    report = minimal_filter_count(
        system, learner, oracle, h.epsilon, h.m_range, h.t_eval, **harness
    )
    tables = {"mstar_table.csv": report.write_csv, "mstar.csv": report.write_summary_csv}
    star = "none" if report.m_star is None else str(report.m_star)
    said = f"m_star={star} at epsilon={format_float(report.epsilon)} (t={report.t_eval})"
    return tables, lambda out: f"{said}\nwrote {out / 'mstar_table.csv'} and {out / 'mstar.csv'}"


def _agnostic(cfg: ExperimentConfig, args, harness):
    curve = _curve(cfg, harness, baselines=True)
    said = f"(comparator={curve.oracle_label})"
    return {"agnostic.csv": curve.write_csv}, lambda out: f"wrote {out / 'agnostic.csv'} {said}"


def _biasvar(cfg: ExperimentConfig, args, harness):
    h = cfg.harness
    system = build_system(cfg)
    learner = build_predictor(cfg, system)
    report = bias_variance_split(
        system, learner, h.t_grid, ref_multiplier=h.ref_multiplier, **harness
    )
    return {"biasvar.csv": report.write_csv}, lambda out: f"wrote {out / 'biasvar.csv'}"


def _add_common(sub: argparse.ArgumentParser, config_required: bool = False) -> None:
    sub.add_argument("--config", "-c", required=config_required, help="experiment config file")
    sub.add_argument("--out", help="output directory (overrides run.out_dir)")
    sub.add_argument("--threads", "-j", type=int, default=None, help="worker threads")
    sub.add_argument(
        "overrides",
        nargs="*",
        metavar="section.key=value",
        help="config overrides applied after the file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynolearn", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynolearn {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate", help="simulate one trajectory to CSV")
    _add_common(sp, config_required=True)
    sp.set_defaults(fn=_run, measure=_simulate)

    sp = subs.add_parser("filters", help="dump the filter-bank spectrum and filters")
    sp.add_argument("--window", "-T", type=int, required=True, help="window length")
    sp.add_argument("--count", "-m", type=int, required=True, help="filter count")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(fn=_cmd_filters)

    for name, measure, help_text in (
        ("risk", _risk, "excess-risk curve vs the oracle"),
        ("burnin", _burnin, "burn-in times from a risk curve"),
        ("mstar", _mstar, "minimal filter count achieving epsilon"),
        ("agnostic", _agnostic, "gap to the best baseline predictor"),
        ("biasvar", _biasvar, "approximation/estimation split"),
    ):
        sp = subs.add_parser(name, help=help_text)
        _add_common(sp, config_required=(name != "burnin"))
        if name == "burnin":
            sp.add_argument("--curve", help="existing risk-curve CSV to analyze")
        sp.set_defaults(fn=_run, measure=measure)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "burnin" and args.config is None and args.curve is None:
            raise ConfigError("burnin needs --config or --curve")
        return args.fn(args)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except IncompatiblePairing as exc:
        _emit_error("incompatible_pairing", exc)
        return EXIT_PAIRING
    except ContractViolation as exc:
        _emit_error("contract_violation", exc)
        return EXIT_CONTRACT
    except NumericalFailure as exc:
        _emit_error("numerical_failure", exc)
        return EXIT_NUMERICAL


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
