from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    KalmanPredictor,
    KernelOracle,
    LdsSpec,
    LorenzSpec,
    SpectralPredictor,
    TruthOracle,
)
from conftest import run_whole
from dynolearn import config
from dynolearn.config import (
    ExperimentConfig,
    build_baselines,
    build_oracle,
    build_predictor,
    build_system,
    canonical_text,
    geometric_grid,
    parse_config,
    validate_config,
)
from dynolearn.errors import ConfigError

# One value strategy per field annotation ("| None" removed).  The format
# cannot carry NaN, nor strings with commas (in lists) or edge whitespace.
_TEXT = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=","),
    max_size=12,
).filter(lambda t: t == t.strip())
_FLOAT = st.floats(allow_nan=False)
_VALUES = {
    "str": _TEXT,
    "int": st.integers(),
    "float": _FLOAT,
    "bool": st.booleans(),
    "tuple[int, ...]": st.lists(st.integers(), max_size=4).map(tuple),
    "tuple[float, ...]": st.lists(_FLOAT, max_size=4).map(tuple),
    "tuple[str, ...]": st.lists(_TEXT.filter(bool), max_size=4).map(tuple),
}


def _section(cls):
    values = {}
    for f in fields(cls):
        value = _VALUES[f.type.removesuffix(" | None")]
        values[f.name] = st.none() | value if f.type.endswith(" | None") else value
    return st.fixed_dictionaries(values).map(lambda kw: cls(**kw))


_CONFIGS = st.builds(
    ExperimentConfig,
    **{f.name: _section(f.default_factory) for f in fields(ExperimentConfig)},
)

SCALAR_TEXT = """
[system]
kind = lds
a = 0.9
c = 1.0
process_stdev = 0.1
obs_stdev = 0.1
x0_kind = ball_grid
x0_radius = 1.0
x0_points = 8

[predictor]
kind = spectral
window = 100
m = 15

[harness]
horizon = 2000
t_grid = 25,50,100
n_traj = 200
epsilons = 0.05,0.01

[run]
seed = 42
out_dir = out
"""


class TestParsing:
    def test_round_trip_is_lossless(self):
        cfg = parse_config(SCALAR_TEXT)
        text = canonical_text(cfg)
        again = parse_config(text)
        assert again == cfg
        assert canonical_text(again) == text
        assert again.digest() == cfg.digest()

    @settings(max_examples=200, deadline=None)
    @given(_CONFIGS)
    def test_every_field_round_trips(self, cfg):
        text = canonical_text(cfg)
        again = parse_config(text)
        assert again == cfg
        assert canonical_text(again) == text

    def test_canonical_spelling(self):
        # repr floats, decimal ints, true/false, comma-joined lists; None is left out
        cfg = parse_config(
            "[system]\na = 0.1\nsymmetric = no\nobs_coords = x , z\n"
            "[predictor]\nsign_augmented = yes\n[harness]\nepsilons = inf,1e-3\n"
            "t_grid = geom(1,8,4)\n"
        )
        lines = canonical_text(cfg).splitlines()
        for line in (
            "a = 0.1",
            "symmetric = false",
            "obs_coords = x,z",
            "sign_augmented = true",
            "epsilons = inf,0.001",
            "t_grid = 1,2,4,8",
        ):
            assert line in lines
        assert not any(line.startswith("d = ") for line in lines)

    def test_defaults_fill_missing_sections(self):
        cfg = parse_config("[system]\nkind = lorenz\n")
        assert cfg.system.kind == "lorenz"
        assert cfg.run.seed == 0
        assert cfg.predictor.kind == "spectral"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("[system]\nwibble = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="system.d"):
            parse_config("[system]\nd = banana\n")

    def test_overrides_apply_after_file(self):
        cfg = parse_config(SCALAR_TEXT, overrides=["harness.n_traj=500", "run.seed=7"])
        assert cfg.harness.n_traj == 500
        assert cfg.run.seed == 7

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SCALAR_TEXT, overrides=["n_traj=500"])
        with pytest.raises(ConfigError):
            parse_config(SCALAR_TEXT, overrides=["harness.unknown=1"])

    def test_geometric_grid_expansion(self):
        cfg = parse_config("[harness]\nt_grid = geom(25,400,5)\n")
        assert cfg.harness.t_grid == geometric_grid(25, 400, 5)
        assert cfg.harness.t_grid[0] == 25
        assert cfg.harness.t_grid[-1] == 400
        assert all(a < b for a, b in zip(cfg.harness.t_grid, cfg.harness.t_grid[1:]))

    @settings(max_examples=200, deadline=None)
    @given(start=st.integers(1, 10**4), span=st.integers(1, 10**6), count=st.integers(2, 300))
    def test_geometric_grid_equals_np_unique_reference(self, start, span, count):
        stop = start + span
        ref = np.unique(np.round(np.geomspace(start, stop, count)).astype(int))
        grid = geometric_grid(start, stop, count)
        assert grid == tuple(int(t) for t in ref)
        assert all(type(t) is int for t in grid)

    def test_bool_parsing(self):
        cfg = parse_config("[predictor]\nsign_augmented = true\n")
        assert cfg.predictor.sign_augmented is True
        with pytest.raises(ConfigError):
            parse_config("[predictor]\nsign_augmented = maybe\n")

    def test_validate_config(self):
        cfg = parse_config(SCALAR_TEXT)
        validate_config(cfg)
        cfg.harness.n_traj = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestBuilders:
    def test_scalar_system(self):
        system = build_system(parse_config(SCALAR_TEXT))
        assert isinstance(system, LdsSpec)
        assert system.d == 1
        assert system.noise.stdev_process == 0.1

    def test_diagonal_system(self):
        cfg = parse_config("[system]\na_diag = 0.9,0.5\nc_row = 1.0,1.0\n")
        system = build_system(cfg)
        np.testing.assert_array_equal(system.A, np.diag([0.9, 0.5]))

    def test_random_psd_system_is_deterministic(self):
        text = "[system]\na_random_psd = true\nd = 6\na_seed = 3\nc_random = true\nx0_kind = fixed\nx0 = 0,0,0,0,0,0\n"
        s1 = build_system(parse_config(text))
        s2 = build_system(parse_config(text))
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.C, s2.C)
        evals = np.linalg.eigvalsh(s1.A)
        assert evals.min() >= -1e-12 and evals.max() <= 0.95 + 1e-12
        assert np.linalg.norm(s1.C) == pytest.approx(1.0)

    def test_closed_loop_system(self):
        cfg = parse_config(
            "[system]\nkind = closed_loop\na = 1.4\nc = 1.0\nb = 1.0\nk = -0.5\n"
            "symmetric = false\nx0_kind = fixed\nx0 = 1.0\n"
        )
        system = build_system(cfg)
        assert system.B is not None
        assert system.effective_transition()[0, 0] == pytest.approx(0.9)

    def test_two_input_closed_loop(self):
        # len(b) = 2 d: two inputs, B (1, 2) and K (2, 1), so A + B K = 1.4 - 0.5
        cfg = parse_config(
            "[system]\nkind = closed_loop\na = 1.4\nc = 1.0\nb = 1,1\nk = -0.25,-0.25\n"
            "symmetric = false\nx0_kind = fixed\nx0 = 1.0\n"
        )
        system = build_system(cfg)
        assert system.B.shape == (1, 2) and system.K.shape == (2, 1)
        assert system.effective_transition()[0, 0] == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "key", ["system.noise=none", "system.k_dim=1", "run.threads=2", "predictor.ar_order=2"]
    )
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown override target"):
            parse_config(SCALAR_TEXT, overrides=[key])

    def test_lorenz_system(self):
        cfg = parse_config("[system]\nkind = lorenz\nobs_coords = x,z\nobs_stdev = 0.1\n")
        system = build_system(cfg)
        assert isinstance(system, LorenzSpec)
        assert system.p == 2
        assert system.obs_noise == 0.1

    def test_exactly_one_transition_choice(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_system(parse_config("[system]\na = 0.9\na_diag = 0.9,0.5\nc = 1.0\n"))

    def test_predictor_kinds(self):
        cfg = parse_config(SCALAR_TEXT)
        system = build_system(cfg)
        assert isinstance(build_predictor(cfg, system), SpectralPredictor)
        cfg.predictor.m = 3
        for kind, cls in (
            ("ar", SpectralPredictor),
            ("last_value", SpectralPredictor),
            ("zero", SpectralPredictor),
            ("kalman", KalmanPredictor),
            ("kernel", KernelOracle),
        ):
            cfg.predictor.kind = kind
            pred = build_predictor(cfg, system)
            assert isinstance(pred, cls)
            if kind in ("last_value", "zero"):  # a frozen readout over the last observation
                want = SpectralPredictor.baseline(kind)
                assert (pred.label, pred.readout.tobytes()) == (kind, want.readout.tobytes())
        cfg.predictor.kind = "ar"
        ar = build_predictor(cfg, system)
        assert (ar.label, ar.bank.filter_matrix().tobytes()) == ("ar3", np.eye(3).tobytes())

    def test_oracle_auto(self):
        cfg = parse_config(SCALAR_TEXT)
        system = build_system(cfg)
        assert isinstance(build_oracle(cfg, system), KalmanPredictor)
        lor = parse_config("[system]\nkind = lorenz\n")
        assert isinstance(build_oracle(lor, build_system(lor)), TruthOracle)

    def test_baseline_tokens(self):
        cfg = parse_config(SCALAR_TEXT)
        system = build_system(cfg)
        baselines = build_baselines(cfg, system)
        assert [b.label for b in baselines] == ["zero", "last_value", "ar1", "ar5"]
        cfg.harness.baselines = ("ar3",)
        (ar3,) = build_baselines(cfg, system)
        pc = cfg.predictor
        assert (ar3.label, ar3.bank.m, ar3.reg, ar3.refit_period) == (
            "ar3", 3, pc.reg, pc.refit_period
        )
        cfg.harness.baselines = ("median",)
        with pytest.raises(ConfigError):
            build_baselines(cfg, system)

    @pytest.mark.parametrize("kind, p", [("lds", 1), ("lorenz", 2)])
    def test_baselines_are_built_by_build_predictor(self, kind, p, monkeypatch):
        # each token is the predictor section with its kind (arK: ar, m = K)
        # through the one builder, so AR(K) is SpectralPredictor.ar(K, p, reg,
        # refit_period) bit for bit
        text = SCALAR_TEXT if kind == "lds" else "[system]\nkind = lorenz\nobs_coords = x,z\n"
        cfg = parse_config(text, ["predictor.reg=0.7", "predictor.refit_period=8"])
        cfg.harness.baselines = ("zero", "ar3", "last_value", "ar1")
        system = build_system(cfg)
        built = []

        def spy(cfg, system):
            built.append(build_predictor(cfg, system))
            return built[-1]

        monkeypatch.setattr(config, "build_predictor", spy)
        baselines = build_baselines(cfg, system)
        assert baselines == built
        want = [
            SpectralPredictor.baseline("zero", p),
            SpectralPredictor.ar(3, p, 0.7, 8),
            SpectralPredictor.baseline("last_value", p),
            SpectralPredictor.ar(1, p, 0.7, 8),
        ]
        Ys = np.random.default_rng(p).standard_normal((3, 50, p))
        for got, ref in zip(baselines, want, strict=True):
            assert type(got) is type(ref)
            unbanked = [
                {k: v for k, v in vars(b).items() if k not in ("bank", "readout")}
                for b in (got, ref)
            ]
            assert unbanked[0] == unbanked[1]
            np.testing.assert_array_equal(got.readout, ref.readout)
            assert run_whole(got, Ys)[0].tobytes() == run_whole(ref, Ys)[0].tobytes()
            if isinstance(ref, SpectralPredictor):
                assert got.bank.filter_matrix().tobytes() == ref.bank.filter_matrix().tobytes()

    def test_default_config_builds(self):
        cfg = ExperimentConfig()
        text = canonical_text(cfg)
        assert parse_config(text) == cfg
