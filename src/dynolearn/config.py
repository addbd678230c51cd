"""Experiment configs: flat, typed key/value sections, diffable on disk.

The on-disk format is INI-like::

    [system]
    kind = lds
    a = 0.9
    ...

Every field has a declared type, and one codec per annotation (`_CODECS`)
both parses and writes it; unknown sections or keys are rejected.
`canonical_text` emits a fully resolved, sorted form whose parse is the
identity, so resolved configs double as re-run manifests.  Floats are
written with `repr`, which round-trips exactly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ContractViolation
from .learnability import DEFAULT_N_TRAJ, DEFAULT_WINDOW, resolve_oracle
from .numerics import SeededRng
from .oracles import KalmanPredictor, KernelOracle
from .predictors import DEFAULT_REFIT_PERIOD, DEFAULT_REG, SpectralPredictor
from .spectral import build_filter_bank
from .systems import InitPolicy, LdsSpec, LorenzSpec, NoiseSpec, random_symmetric_psd, random_unit_row


@dataclass
class SystemConfig:
    kind: str = "lds"  # lds | closed_loop | lorenz
    # linear systems: scalar / diagonal / seeded-random transition
    a: float | None = None
    a_diag: tuple[float, ...] | None = None
    a_random_psd: bool = False
    a_eig_low: float = 0.0
    a_eig_high: float = 0.95
    a_seed: int = 0
    d: int | None = None
    c: float | None = None
    c_row: tuple[float, ...] | None = None
    c_random: bool = False
    b: tuple[float, ...] | None = None  # d*m entries, row major, for m inputs
    k: tuple[float, ...] | None = None  # m*d entries, row major
    process_stdev: float = 0.0
    obs_stdev: float = 0.0
    symmetric: bool = True
    x0_kind: str = "ball_grid"  # fixed | ball_grid | stationary
    x0: tuple[float, ...] | None = None
    x0_radius: float = 1.0
    x0_points: int = 8
    # Lorenz
    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    obs_coords: tuple[str, ...] = ("x",)


@dataclass
class PredictorConfig:
    kind: str = "spectral"  # spectral | ar | last_value | zero | kalman | kernel
    window: int = 100
    m: int = 15  # filters of the spectral bank, lags of AR(m)
    reg: float = DEFAULT_REG
    refit_period: int = DEFAULT_REFIT_PERIOD
    sign_augmented: bool = False


@dataclass
class HarnessConfig:
    horizon: int = 1000
    t_grid: tuple[int, ...] = (25, 50, 100, 150, 200, 300, 400, 600, 800, 1000)
    window: int = DEFAULT_WINDOW
    n_traj: int = DEFAULT_N_TRAJ
    epsilons: tuple[float, ...] = (0.05,)
    oracle: str = "auto"  # auto | kalman | kernel | truth | zero
    baselines: tuple[str, ...] = ("zero", "last_value", "ar1", "ar5")
    m_range: tuple[int, ...] = tuple(range(1, 21))
    t_eval: int = 1000
    epsilon: float = 0.05
    ref_multiplier: int = 10
    record_states: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "out"


@dataclass
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def digest(self) -> str:
        return hashlib.sha256(canonical_text(self).encode()).hexdigest()


_SECTIONS = {
    "system": SystemConfig,
    "predictor": PredictorConfig,
    "harness": HarnessConfig,
    "run": RunConfig,
}

def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _split(raw: str, item) -> tuple:
    return tuple(item(x) for x in raw.split(",") if x.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    if raw.startswith("geom(") and raw.endswith(")"):
        a, b, n = (int(x) for x in raw[5:-1].split(","))
        return geometric_grid(a, b, n)
    return _split(raw, int)


# (parse, format) per field annotation with "| None" removed: parse reads the
# stripped raw text and raises ValueError on a bad value; None is not written
_CODECS = {
    "str": (str, str),
    "int": (int, lambda v: str(int(v))),
    "float": (float, lambda v: repr(float(v))),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "tuple[int, ...]": (_parse_ints, lambda v: ",".join(str(int(x)) for x in v)),
    "tuple[float, ...]": (
        lambda raw: _split(raw, float),
        lambda v: ",".join(repr(float(x)) for x in v),
    ),
    "tuple[str, ...]": (lambda raw: _split(raw, str.strip), ",".join),
}


# a field whose annotation has no codec fails here, at import, with a KeyError
_FIELD_CODECS = {
    (sec, f.name): _CODECS[f.type.removesuffix(" | None")]
    for sec, cls in _SECTIONS.items()
    for f in fields(cls)
}


def geometric_grid(start: int, stop: int, count: int) -> tuple[int, ...]:
    """Roughly geometric integer grid from start to stop inclusive.

    Sorted and deduplicated in Python: `np.unique` would import `numpy.ma`,
    9-19 ms of every CLI process that reads a `geom(...)` grid."""
    if not (1 <= start < stop and count >= 2):
        raise ConfigError(f"bad geometric grid spec ({start}, {stop}, {count})")
    return tuple(sorted(set(np.round(np.geomspace(start, stop, count)).astype(int).tolist())))


def parse_config(text: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse config text, then apply "section.key=value" overrides in order."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    raw: dict[tuple[str, str], str] = {}
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if (sec, key) not in _FIELD_CODECS:
                raise ConfigError(f"unknown config key {sec}.{key}")
            raw[(sec, key)] = value
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {ov!r}")
        dotted, value = ov.split("=", 1)
        sec, key = dotted.split(".", 1)
        if (sec, key) not in _FIELD_CODECS:
            raise ConfigError(f"unknown override target {sec}.{key}")
        raw[(sec, key)] = value
    cfg = ExperimentConfig()
    for (sec, key), value in raw.items():
        parse = _FIELD_CODECS[(sec, key)][0]
        try:
            setattr(getattr(cfg, sec), key, parse(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"bad value for {sec}.{key}: {exc}") from exc
    return cfg


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Fully resolved config text; parsing it reproduces cfg exactly."""
    out = io.StringIO()
    for sec in sorted(_SECTIONS):
        out.write(f"[{sec}]\n")
        obj = getattr(cfg, sec)
        for f in sorted(fields(obj), key=lambda f: f.name):
            value = getattr(obj, f.name)
            if value is not None:
                out.write(f"{f.name} = {_FIELD_CODECS[(sec, f.name)][1](value)}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# builders


def _build_init(sc: SystemConfig) -> InitPolicy:
    if sc.x0_kind == "fixed":
        if sc.x0 is None:
            raise ConfigError("system.x0 is required when x0_kind = fixed")
        return InitPolicy(kind="fixed", x0=sc.x0)
    if sc.x0_kind == "ball_grid":
        return InitPolicy(kind="ball_grid", radius=sc.x0_radius, points=sc.x0_points)
    if sc.x0_kind == "stationary":
        return InitPolicy(kind="stationary", points=sc.x0_points)
    raise ConfigError(f"unknown x0_kind {sc.x0_kind!r}")


def _build_transition(sc: SystemConfig) -> np.ndarray:
    choices = [sc.a is not None, sc.a_diag is not None, sc.a_random_psd]
    if sum(choices) != 1:
        raise ConfigError("specify exactly one of system.a, system.a_diag, system.a_random_psd")
    if sc.a is not None:
        return np.array([[sc.a]])
    if sc.a_diag is not None:
        return np.diag(np.asarray(sc.a_diag, dtype=float))
    if sc.d is None:
        raise ConfigError("system.d is required with a_random_psd")
    return random_symmetric_psd(sc.d, sc.a_eig_low, sc.a_eig_high, SeededRng(sc.a_seed))


def _build_observation(sc: SystemConfig, d: int) -> np.ndarray:
    choices = [sc.c is not None, sc.c_row is not None, sc.c_random]
    if sum(choices) != 1:
        raise ConfigError("specify exactly one of system.c, system.c_row, system.c_random")
    if sc.c is not None:
        if d != 1:
            raise ConfigError("scalar system.c only valid for d = 1")
        return np.array([[sc.c]])
    if sc.c_row is not None:
        row = np.asarray(sc.c_row, dtype=float)
        if row.size != d:
            raise ConfigError(f"system.c_row has {row.size} entries, expected {d}")
        return row[None, :]
    return random_unit_row(d, SeededRng(sc.a_seed + 1))


def build_system(cfg: ExperimentConfig):
    sc = cfg.system
    if sc.kind != "closed_loop" and (sc.b is not None or sc.k is not None):
        raise ConfigError("system.b and system.k apply only to kind = closed_loop")
    try:
        if sc.kind == "lorenz":
            init = _build_init(sc)
            return LorenzSpec(
                sigma=sc.sigma,
                rho=sc.rho,
                beta=sc.beta,
                dt=sc.dt,
                obs_coords=sc.obs_coords,
                obs_noise=sc.obs_stdev,
                init=init,
            )
        if sc.kind not in ("lds", "closed_loop"):
            raise ConfigError(f"unknown system kind {sc.kind!r}")
        A = _build_transition(sc)
        d = A.shape[0]
        C = _build_observation(sc, d)
        B = K = None
        if sc.kind == "closed_loop":
            if sc.b is None or sc.k is None:
                raise ConfigError("closed_loop systems require system.b and system.k")
            if not sc.b or len(sc.b) != len(sc.k) or len(sc.b) % d:
                raise ConfigError(
                    f"system.b and system.k need the same nonzero multiple of d = {d} entries, "
                    f"got {len(sc.b)} and {len(sc.k)}"
                )
            B = np.asarray(sc.b, dtype=float).reshape(d, -1)
            K = np.asarray(sc.k, dtype=float).reshape(-1, d)
        noise = NoiseSpec(stdev_process=sc.process_stdev, stdev_obs=sc.obs_stdev)
        return LdsSpec(
            A=A,
            C=C,
            noise=noise,
            init=_build_init(sc),
            B=B,
            K=K,
            symmetric_flag=sc.symmetric,
        )
    except ContractViolation:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad system config: {exc}") from exc


def build_predictor(cfg: ExperimentConfig, system):
    pc = cfg.predictor
    p = system.p
    if pc.kind == "spectral":
        bank = build_filter_bank(pc.window, pc.m, sign_augmented=pc.sign_augmented)
        return SpectralPredictor(bank, obs_dim=p, reg=pc.reg, refit_period=pc.refit_period)
    if pc.kind == "ar":
        return SpectralPredictor.ar(pc.m, p, pc.reg, pc.refit_period)
    if pc.kind in ("last_value", "zero"):
        return SpectralPredictor.baseline(pc.kind, obs_dim=p)
    if pc.kind == "kalman":
        return KalmanPredictor(system)
    if pc.kind == "kernel":
        return KernelOracle(system)
    raise ConfigError(f"unknown predictor kind {pc.kind!r}")


def build_oracle(cfg: ExperimentConfig, system):
    return resolve_oracle(system, cfg.harness.oracle)


def build_baselines(cfg: ExperimentConfig, system):
    """`harness.baselines`, each from `build_predictor` (token arK: kind ar, m = K)."""
    out = []
    for token in cfg.harness.baselines:
        if token in ("zero", "last_value"):
            pc = replace(cfg.predictor, kind=token)
        elif token.startswith("ar"):
            try:
                order = int(token[2:])
            except ValueError as exc:
                raise ConfigError(f"bad baseline token {token!r}") from exc
            pc = replace(cfg.predictor, kind="ar", m=order)
        else:
            raise ConfigError(f"unknown baseline token {token!r}")
        out.append(build_predictor(replace(cfg, predictor=pc), system))
    if not out:
        raise ConfigError("harness.baselines must be nonempty")
    return out


def validate_config(cfg: ExperimentConfig) -> None:
    """Cross-field checks shared by all subcommands."""
    h = cfg.harness
    if h.horizon < 1:
        raise ConfigError(f"harness.horizon must be >= 1, got {h.horizon}")
    if not h.epsilons or any(e <= 0 or not math.isfinite(e) for e in h.epsilons):
        raise ConfigError("harness.epsilons must be nonempty, positive and finite")
    if not (h.epsilon > 0 and math.isfinite(h.epsilon)):
        raise ConfigError(f"harness.epsilon must be positive and finite, got {h.epsilon}")
    if h.n_traj < 2:
        raise ConfigError(f"harness.n_traj must be >= 2, got {h.n_traj}")
    if h.ref_multiplier < 1:
        raise ConfigError(f"harness.ref_multiplier must be >= 1, got {h.ref_multiplier}")
