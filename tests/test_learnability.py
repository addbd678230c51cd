import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynolearn import (
    BaselinePredictor,
    ContractViolation,
    InitPolicy,
    KalmanPredictor,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    RiskCurve,
    SpectralPredictor,
    TruthOracle,
    agnostic_gap,
    bias_variance_split,
    build_filter_bank,
    burn_in_time,
    estimate_excess_risk,
    minimal_filter_count,
    read_risk_curve_csv,
    resolve_oracle,
    stationary_observation_power,
    write_burn_in_csv,
)
from dynolearn import learnability, systems
from dynolearn.errors import IncompatiblePairing
from dynolearn.learnability import BurnInReport, _traj_rngs
from dynolearn.numerics import SeededRng


def _noisy_scalar(a=0.9, radius=1.0, points=2):
    return LdsSpec(
        A=[[a]],
        C=[[1.0]],
        noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
        init=InitPolicy(kind="ball_grid", radius=radius, points=points),
    )


def _fixture_curve(excess, grid):
    excess = np.asarray(excess, dtype=float)
    grid = np.asarray(grid, dtype=int)
    return RiskCurve(
        t_grid=grid,
        excess_mean=excess,
        excess_ci_half=np.zeros_like(excess),
        raw_alg=excess,
        raw_oracle=np.zeros_like(excess),
        n_traj=2,
        x0_policy_digest="fixture",
        oracle_label="fixture",
    )


class TestEstimateExcessRisk:
    def test_algorithm_equal_oracle_gives_exact_zero(self, scalar_spec):
        kal = KalmanPredictor(scalar_spec)
        curve = estimate_excess_risk(scalar_spec, kal, kal, (10, 20, 40), n_traj=8, master_seed=1)
        assert (curve.excess_mean == 0.0).all()
        assert (curve.excess_ci_half == 0.0).all()

    def test_noiseless_truth_oracle_against_zero_baseline(self):
        spec = LdsSpec(
            A=[[0.9]],
            C=[[1.0]],
            noise=NoiseSpec(kind="none"),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        curve = estimate_excess_risk(
            spec,
            BaselinePredictor("zero"),
            TruthOracle(spec),
            (5, 10),
            n_traj=2,
            master_seed=0,
            window=4,
        )
        assert (curve.raw_oracle == 0.0).all()
        # excess equals the raw risk of predicting zero: the trajectory energy
        ys = 0.9 ** np.arange(14)
        for g, t in enumerate((5, 10)):
            energy = (ys[t : t + 4] ** 2).mean()
            assert curve.excess_mean[g] == pytest.approx(energy, rel=1e-12)

    def test_additivity_exact(self, scalar_spec):
        curve = estimate_excess_risk(
            scalar_spec,
            BaselinePredictor("last_value"),
            KalmanPredictor(scalar_spec),
            (10, 30),
            n_traj=16,
            master_seed=5,
        )
        assert np.array_equal(curve.excess_mean, curve.raw_alg - curve.raw_oracle)

    def test_reproducible_and_csv_stable(self, scalar_spec, tmp_path):
        def run():
            bank = build_filter_bank(20, 4)
            return estimate_excess_risk(
                scalar_spec,
                SpectralPredictor(bank),
                KalmanPredictor(scalar_spec),
                (10, 50),
                n_traj=12,
                master_seed=9,
            )

        a, b = run(), run()
        assert np.array_equal(a.excess_mean, b.excess_mean)
        assert np.array_equal(a.excess_ci_half, b.excess_ci_half)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        loaded = read_risk_curve_csv(pa)
        np.testing.assert_array_equal(loaded.excess_mean, a.excess_mean)

    def test_worst_case_over_x0_is_pointwise_max(self, scalar_spec):
        stem = dict(n_traj=10, master_seed=3, window=8)
        kal = KalmanPredictor(scalar_spec)
        alg = BaselinePredictor("last_value")
        grid = (10, 40)
        both = estimate_excess_risk(scalar_spec, alg, kal, grid, x0_grid=[[1.0], [-1.0]], **stem)
        only_a = estimate_excess_risk(scalar_spec, alg, kal, grid, x0_grid=[[1.0]], **stem)
        only_b = estimate_excess_risk(scalar_spec, alg, kal, grid, x0_grid=[[-1.0]], **stem)
        stacked = np.stack([only_a.excess_mean, only_b.excess_mean])
        np.testing.assert_array_equal(both.excess_mean, stacked.max(axis=0))
        assert (both.excess_mean >= stacked).all()

    def test_threaded_run_is_identical(self, scalar_spec):
        kal = KalmanPredictor(scalar_spec)
        alg = BaselinePredictor("ar", order=2)
        a = estimate_excess_risk(scalar_spec, alg, kal, (10, 30), n_traj=8, master_seed=2, n_workers=1)
        b = estimate_excess_risk(scalar_spec, alg, kal, (10, 30), n_traj=8, master_seed=2, n_workers=4)
        assert np.array_equal(a.excess_mean, b.excess_mean)

    def test_validation(self, scalar_spec):
        kal = KalmanPredictor(scalar_spec)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, kal, (10,), n_traj=1)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, kal, (30, 10), n_traj=4)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, kal, (), n_traj=4)


class TestResolveOracle:
    def test_auto_picks_kalman_for_linear(self, scalar_spec):
        assert isinstance(resolve_oracle(scalar_spec, "auto"), KalmanPredictor)

    def test_auto_picks_truth_for_noiseless_lorenz(self):
        assert isinstance(resolve_oracle(LorenzSpec(), "auto"), TruthOracle)

    def test_kalman_on_lorenz_refused(self):
        with pytest.raises(IncompatiblePairing):
            resolve_oracle(LorenzSpec(), "kalman")

    def test_auto_on_noisy_lorenz_refused(self):
        with pytest.raises(IncompatiblePairing):
            resolve_oracle(LorenzSpec(obs_noise=0.1), "auto")

    def test_zero_fallback_labels_curve(self):
        spec = LorenzSpec(obs_noise=0.1)
        oracle = resolve_oracle(spec, "zero")
        curve = estimate_excess_risk(
            spec,
            BaselinePredictor("last_value"),
            oracle,
            (10, 20),
            n_traj=4,
            master_seed=0,
            window=4,
        )
        assert curve.oracle_label == "zero"
        assert np.array_equal(curve.excess_mean, curve.raw_alg)  # raw-risk mode


class TestBurnIn:
    def test_handworked_fixture(self):
        curve = _fixture_curve([0.5, 0.2, 0.08, 0.04, 0.03], [10, 50, 100, 500, 1000])
        report = burn_in_time(curve, 0.05)
        assert report.t_star == 500
        assert report.uniform_checked_to == 1000

    def test_entirely_below(self):
        curve = _fixture_curve([0.01, 0.02, 0.01], [5, 10, 20])
        assert burn_in_time(curve, 0.05).t_star == 5

    def test_entirely_above(self):
        curve = _fixture_curve([1.0, 2.0], [5, 10])
        report = burn_in_time(curve, 0.05)
        assert math.isinf(report.t_star)
        assert not report.is_finite

    def test_non_suffix_dip_does_not_count(self):
        curve = _fixture_curve([0.01, 0.9, 0.01], [5, 10, 20])
        assert burn_in_time(curve, 0.05).t_star == 20

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=12),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_monotone_in_epsilon(self, values, eps, bump):
        grid = [10 * (i + 1) for i in range(len(values))]
        curve = _fixture_curve(values, grid)
        small = burn_in_time(curve, eps)
        large = burn_in_time(curve, eps + bump)
        assert large.t_star <= small.t_star

    def test_csv_inf_sentinel(self, tmp_path):
        reports = [
            BurnInReport(epsilon=0.05, t_star=500.0, uniform_checked_to=1000),
            BurnInReport(epsilon=0.01, t_star=math.inf, uniform_checked_to=1000),
        ]
        path = tmp_path / "burnin.csv"
        write_burn_in_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,t_star,uniform_checked_to"
        assert lines[1].split(",")[1] == "500"
        assert lines[2].split(",")[1] == "inf"


class TestMinimalFilterCount:
    def test_single_mode_needs_one_filter(self):
        spec = _noisy_scalar()
        report = minimal_filter_count(
            spec,
            epsilon=0.05,  # generous: roughly the signal power
            m_range=range(1, 5),
            window_len=30,
            t_eval=300,
            n_traj=40,
            master_seed=4,
        )
        assert report.m_star == 1

    def test_table_nonincreasing_up_to_ci(self):
        spec = _noisy_scalar()
        report = minimal_filter_count(
            spec,
            epsilon=1e-9,  # unattainable: exercise the not-achieved marker
            m_range=[1, 2, 4, 8],
            window_len=30,
            t_eval=400,
            n_traj=60,
            master_seed=8,
        )
        assert report.m_star is None
        for j in range(len(report.m_values) - 1):
            slack = report.ci_half[j] + report.ci_half[j + 1]
            assert report.excess[j + 1] <= report.excess[j] + slack + 1e-12

    def test_csv_outputs(self, tmp_path):
        spec = _noisy_scalar()
        report = minimal_filter_count(
            spec, epsilon=0.5, m_range=[1, 2], window_len=20, t_eval=100, n_traj=10, master_seed=0
        )
        report.write_csv(tmp_path / "table.csv")
        report.write_summary_csv(tmp_path / "summary.csv")
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "m,excess,ci,achieved"
        assert len(table) == 3
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[1].endswith(",1")

    @pytest.mark.filterwarnings("ignore:filter count")
    def test_high_dimensional_system_needs_few_filters(self):
        # 50 hidden modes, but the filter count achieving a tenth of the
        # signal power stays far below the state dimension
        from dynolearn.systems import random_symmetric_psd, random_unit_row
        from dynolearn.numerics import SeededRng

        d = 50
        spec = LdsSpec(
            A=random_symmetric_psd(d, 0.0, 0.95, SeededRng(50)),
            C=random_unit_row(d, SeededRng(51)),
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="fixed", x0=tuple(np.zeros(d))),
        )
        epsilon = 0.1 * stationary_observation_power(spec)
        report = minimal_filter_count(
            spec,
            epsilon=epsilon,
            m_range=range(1, 26),
            window_len=100,
            t_eval=400,
            n_traj=100,
            master_seed=17,
        )
        assert report.m_star is not None
        assert report.m_star <= 25


class TestAgnosticGap:
    def test_gap_to_self_is_zero(self, scalar_spec):
        alg = BaselinePredictor("ar", order=2)
        curve = agnostic_gap(scalar_spec, alg, [alg], (10, 40), n_traj=8, master_seed=1)
        assert (curve.excess_mean == 0.0).all()

    def test_zero_class_measures_raw_gap(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.0, stdev_obs=0.5),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        alg = BaselinePredictor("last_value")
        curve = agnostic_gap(spec, alg, [BaselinePredictor("zero")], (20,), n_traj=50, master_seed=2)
        # predicting the previous white-noise sample doubles the noise floor
        assert curve.excess_mean[0] == pytest.approx(curve.raw_oracle[0], rel=0.2)

    def test_spectral_at_least_matches_ar_class(self):
        # low observation SNR: the predictive kernel decays slowly, so short
        # lag models are genuinely biased while the filter bank is not
        spec = LdsSpec(
            A=[[0.95]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.3, stdev_obs=1.0),
            init=InitPolicy(kind="fixed", x0=(1.0,)),
        )
        bank = build_filter_bank(100, 12)
        curve = agnostic_gap(
            spec,
            SpectralPredictor(bank),
            [
                BaselinePredictor("ar", order=1),
                BaselinePredictor("ar", order=5),
                BaselinePredictor("last_value"),
            ],
            (3000,),
            n_traj=150,
            master_seed=6,
        )
        assert curve.excess_mean[0] <= curve.excess_ci_half[0]
        assert curve.oracle_label.startswith("best_of")


@pytest.fixture(scope="module")
def biasvar_report():
    spec = _noisy_scalar()
    bank = build_filter_bank(64, 15)
    rep = bias_variance_split(spec, bank, t_grid=(100, 200, 400, 800), n_traj=120, master_seed=11)
    return rep, spec


class TestBiasVarianceSplit:

    def test_bias_negligible_at_generous_filter_count(self, biasvar_report):
        rep, spec = biasvar_report
        bound = 1e-3 * stationary_observation_power(spec)
        assert (rep.bias <= bound + rep.bias_ci_half).all()

    def test_variance_decays(self, biasvar_report):
        rep, _ = biasvar_report
        slope = np.polyfit(np.log(rep.t_grid), np.log(rep.variance), 1)[0]
        assert slope <= -0.6

    def test_more_filters_cost_variance(self):
        spec = _noisy_scalar()
        grids = dict(t_grid=(150,), n_traj=80, master_seed=13)
        small = bias_variance_split(spec, build_filter_bank(64, 6), **grids)
        big = bias_variance_split(spec, build_filter_bank(64, 12), **grids)
        slack = small.variance_ci_half[0] + big.variance_ci_half[0]
        assert big.variance[0] >= small.variance[0] - slack

    def test_requires_linear_system(self):
        with pytest.raises(IncompatiblePairing):
            bias_variance_split(LorenzSpec(), build_filter_bank(16, 4), t_grid=(10,), n_traj=4)

    def test_csv(self, tmp_path, biasvar_report):
        rep, _ = biasvar_report
        rep.write_csv(tmp_path / "bv.csv")
        lines = (tmp_path / "bv.csv").read_text().splitlines()
        assert lines[0] == "t,bias,bias_ci,variance,variance_ci"
        assert len(lines) == 5


# --- shared noise across the x0 grid --------------------------------------

_SHARED = dict(n_traj=7, master_seed=4, window=4)  # 7 rows split 2/2/3 over 3 workers
# after the first refit (step 16): before it the learners all predict zero and
# the excess ties exactly across x0
_TIMES = (20, 30)


def _shared_system(kind):
    if kind == "lds":
        return LdsSpec(
            A=[[0.8, 0.1], [0.1, 0.5]],
            C=[[1.0, 0.5]],
            noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
            init=InitPolicy(kind="ball_grid", radius=1.0, points=3),
        )
    return LorenzSpec(
        obs_coords=("x", "y"), obs_noise=0.5, init=InitPolicy(kind="stationary", points=3)
    )


def _measure(name, system, n_workers=1, x0_grid=None):
    p = system.p
    bank = build_filter_bank(8, 3)
    oracle = (
        KalmanPredictor(system)
        if isinstance(system, LdsSpec)
        else BaselinePredictor("ar", order=2, obs_dim=p)
    )
    common = dict(_SHARED, x0_grid=x0_grid, n_workers=n_workers)
    if name == "risk":
        return estimate_excess_risk(
            system, SpectralPredictor(bank, obs_dim=p), oracle, _TIMES, **common
        )
    if name == "mstar":
        return minimal_filter_count(
            system, 0.5, (1, 2, 3), window_len=8, t_eval=30, oracle=oracle, **common
        )
    if name == "agnostic":
        baselines = [BaselinePredictor("last_value", obs_dim=p), oracle]
        return agnostic_gap(system, SpectralPredictor(bank, obs_dim=p), baselines, _TIMES, **common)
    return bias_variance_split(system, bank, _TIMES, ref_multiplier=3, **common)


def _worst_case(result):
    """The result's arrays as bytes: the worst-case values and their CIs."""
    return {k: v.tobytes() for k, v in vars(result).items() if isinstance(v, np.ndarray)}


_CASES = [
    ("risk", "lds"),
    ("risk", "lorenz"),
    ("mstar", "lds"),
    ("mstar", "lorenz"),
    ("agnostic", "lds"),
    ("agnostic", "lorenz"),
    ("biasvar", "lds"),
]


@pytest.mark.parametrize("name,kind", _CASES)
class TestSharedNoise:
    def test_bits_do_not_depend_on_worker_count(self, name, kind):
        system = _shared_system(kind)
        runs = [_measure(name, system, n_workers=w) for w in (1, 2, 3)]
        fields = [
            {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(r).items()}
            for r in runs
        ]
        assert fields[1] == fields[0] and fields[2] == fields[0]

    def test_matches_per_x0_replay_with_fresh_streams(self, name, kind, monkeypatch):
        system = _shared_system(kind)
        shared = _measure(name, system)
        replays = []

        def replay(system, horizon, x0, rngs, noise=None):
            if noise is not None:  # ignore the shared draw; draw again for this x0
                replays.append(x0)
                rngs = _traj_rngs(SeededRng(_SHARED["master_seed"]), len(rngs))
            return systems.simulate_ensemble(system, horizon, x0, rngs)

        monkeypatch.setattr(learnability, "simulate_ensemble", replay)
        replayed = _measure(name, system)
        assert len(replays) == len(systems.initial_states(system))
        assert _worst_case(replayed) == _worst_case(shared)

    def test_reversed_x0_order_keeps_worst_case(self, name, kind):
        system = _shared_system(kind)
        states = systems.initial_states(system)
        forward = _measure(name, system, x0_grid=states)
        backward = _measure(name, system, x0_grid=states[::-1])
        assert _worst_case(backward) == _worst_case(forward)
