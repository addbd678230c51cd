"""Experiment runner CLI.

Subcommands: simulate | filters | risk | burnin | mstar | agnostic | biasvar.
Every successful run writes its artifacts plus a manifest (resolved config,
digest, seed, version) into the output directory, sufficient to reproduce
the run bit for bit; a failed run writes nothing.  Exit codes: 0 success,
1 config error, 2 contract violation, 3 incompatible system/oracle pairing,
4 numerical failure.
"""

from __future__ import annotations

import argparse
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
    agnostic_gap,
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
    LdsSpec,
    format_float,
    initial_states,
    simulate_ensemble,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONTRACT = 2
EXIT_PAIRING = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are config errors
        raise ConfigError(message)


def _threads(cfg_threads: int, flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    if cfg_threads > 0:
        return cfg_threads
    env = os.environ.get("DYNOLEARN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad DYNOLEARN_THREADS value {env!r}") from exc
    return os.cpu_count() or 1


def _prepare_out(cfg: ExperimentConfig, subcommand: str, out_flag: str | None) -> Path:
    out = Path(out_flag or cfg.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = canonical_text(cfg)
    (out / "resolved.cfg").write_text(resolved)
    manifest = (
        f"tool = dynolearn {__version__}\n"
        f"subcommand = {subcommand}\n"
        f"seed = {cfg.run.seed}\n"
        f"config_digest = {cfg.digest()}\n"
        "config_file = resolved.cfg\n"
    )
    (out / "manifest.txt").write_text(manifest)
    return out


def _load(args) -> ExperimentConfig:
    overrides = list(args.overrides or [])
    if args.config is None:
        cfg = parse_config("", overrides)
    else:
        cfg = load_config(args.config, overrides)
    validate_config(cfg)
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    system = build_system(cfg)
    x0 = initial_states(system)[0]
    rngs = [SeededRng(cfg.run.seed).child(0, 0)]
    record = cfg.harness.record_states
    run = simulate_ensemble(system, cfg.harness.horizon, x0, rngs, record_states=record)
    ys, xs = (run[0][0], run[1][0]) if record else (run[0], None)
    path = _prepare_out(cfg, "simulate", args.out) / "trajectory.csv"
    write_trajectory_csv(ys, path, xs)
    print(f"rows={len(ys)} seed={cfg.run.seed}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_filters(args) -> int:
    window = args.window
    m = args.count
    cap = reliable_filter_cap(window)
    if m > cap:
        raise ContractViolation(
            f"filter count m={m} exceeds the reliable cap {cap} for window {window}"
        )
    bank = build_filter_bank(window, m)
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spectrum.csv"
    with open(spec_path, "w", newline="") as fh:
        fh.write("i,mu_i\n")
        for i, mu in enumerate(bank.mus, start=1):
            fh.write(f"{i},{format_float(mu)}\n")
    filt_path = out / "filters.csv"
    with open(filt_path, "w", newline="") as fh:
        fh.write("k," + ",".join(f"phi_{j}" for j in range(1, m + 1)) + "\n")
        for k in range(window):
            fh.write(str(k + 1) + "," + ",".join(format_float(v) for v in bank.phis[k]) + "\n")
    print(f"wrote {spec_path} and {filt_path} (reliable cap {cap})")
    return EXIT_OK


def _risk_curve(cfg: ExperimentConfig, args, system, algorithm, oracle):
    """The configured excess-risk curve; `risk` and `burnin` share it."""
    return estimate_excess_risk(
        system,
        algorithm,
        oracle,
        t_grid=cfg.harness.t_grid,
        n_traj=cfg.harness.n_traj,
        master_seed=cfg.run.seed,
        window=cfg.harness.window,
        n_workers=_threads(cfg.run.threads, args.threads),
    )


def _cmd_risk(args) -> int:
    cfg = _load(args)
    system = build_system(cfg)
    algorithm = build_predictor(cfg, system)
    oracle = build_oracle(cfg, system)
    curve = _risk_curve(cfg, args, system, algorithm, oracle)
    path = _prepare_out(cfg, "risk", args.out) / "risk.csv"
    curve.write_csv(path)
    print(f"wrote {path} (oracle={curve.oracle_label}, n_traj={curve.n_traj})")
    return EXIT_OK


def _cmd_burnin(args) -> int:
    cfg = _load(args)
    if args.curve is not None:
        curve = read_risk_curve_csv(args.curve)
    else:
        system = build_system(cfg)
        algorithm = build_predictor(cfg, system)
        oracle = build_oracle(cfg, system)
        curve = _risk_curve(cfg, args, system, algorithm, oracle)
    reports = [burn_in_time(curve, eps) for eps in cfg.harness.epsilons]
    out = _prepare_out(cfg, "burnin", args.out)
    if args.curve is None:
        curve.write_csv(out / "risk.csv")
    path = out / "burnin.csv"
    write_burn_in_csv(reports, path)
    for r in reports:
        t = "inf" if not r.is_finite else str(int(r.t_star))
        print(f"epsilon={format_float(r.epsilon)} t_star={t} checked_to={r.uniform_checked_to}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_mstar(args) -> int:
    cfg = _load(args)
    system = build_system(cfg)
    oracle = build_oracle(cfg, system)
    report = minimal_filter_count(
        system,
        epsilon=cfg.harness.epsilon,
        m_range=cfg.harness.m_range,
        window_len=cfg.predictor.window,
        t_eval=cfg.harness.t_eval,
        n_traj=cfg.harness.n_traj,
        master_seed=cfg.run.seed,
        window=cfg.harness.window,
        oracle=oracle,
        reg=cfg.predictor.reg,
        refit_period=cfg.predictor.refit_period,
        sign_augmented=cfg.predictor.sign_augmented,
        n_workers=_threads(cfg.run.threads, args.threads),
    )
    out = _prepare_out(cfg, "mstar", args.out)
    report.write_csv(out / "mstar_table.csv")
    report.write_summary_csv(out / "mstar.csv")
    star = "none" if report.m_star is None else str(report.m_star)
    print(f"m_star={star} at epsilon={format_float(report.epsilon)} (t={report.t_eval})")
    print(f"wrote {out / 'mstar_table.csv'} and {out / 'mstar.csv'}")
    return EXIT_OK


def _cmd_agnostic(args) -> int:
    cfg = _load(args)
    system = build_system(cfg)
    algorithm = build_predictor(cfg, system)
    baselines = build_baselines(cfg, system)
    curve = agnostic_gap(
        system,
        algorithm,
        baselines,
        t_grid=cfg.harness.t_grid,
        n_traj=cfg.harness.n_traj,
        master_seed=cfg.run.seed,
        window=cfg.harness.window,
        n_workers=_threads(cfg.run.threads, args.threads),
    )
    path = _prepare_out(cfg, "agnostic", args.out) / "agnostic.csv"
    curve.write_csv(path)
    print(f"wrote {path} (comparator={curve.oracle_label})")
    return EXIT_OK


def _cmd_biasvar(args) -> int:
    cfg = _load(args)
    system = build_system(cfg)
    if not isinstance(system, LdsSpec):
        raise IncompatiblePairing("biasvar requires a linear system")
    bank = build_filter_bank(
        cfg.predictor.window, cfg.predictor.m, sign_augmented=cfg.predictor.sign_augmented
    )
    report = bias_variance_split(
        system,
        bank,
        t_grid=cfg.harness.t_grid,
        n_traj=cfg.harness.n_traj,
        master_seed=cfg.run.seed,
        window=cfg.harness.window,
        reg=cfg.predictor.reg,
        refit_period=cfg.predictor.refit_period,
        ref_multiplier=cfg.harness.ref_multiplier,
        n_workers=_threads(cfg.run.threads, args.threads),
    )
    path = _prepare_out(cfg, "biasvar", args.out) / "biasvar.csv"
    report.write_csv(path)
    print(f"wrote {path}")
    return EXIT_OK


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
    sp.set_defaults(fn=_cmd_simulate)

    sp = subs.add_parser("filters", help="dump the filter-bank spectrum and filters")
    sp.add_argument("--window", "-T", type=int, required=True, help="window length")
    sp.add_argument("--count", "-m", type=int, required=True, help="filter count")
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(fn=_cmd_filters)

    for name, fn, help_text in (
        ("risk", _cmd_risk, "excess-risk curve vs the oracle"),
        ("burnin", _cmd_burnin, "burn-in times from a risk curve"),
        ("mstar", _cmd_mstar, "minimal filter count achieving epsilon"),
        ("agnostic", _cmd_agnostic, "gap to the best baseline predictor"),
        ("biasvar", _cmd_biasvar, "approximation/estimation split"),
    ):
        sp = subs.add_parser(name, help=help_text)
        _add_common(sp, config_required=(name != "burnin"))
        if name == "burnin":
            sp.add_argument("--curve", help="existing risk-curve CSV to analyze")
        sp.set_defaults(fn=fn)
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
