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
from dynolearn.errors import ConfigError, IncompatiblePairing, IntegrationBlowup
from dynolearn.learnability import BurnInReport, MStarReport, _traj_rngs
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
            noise=NoiseSpec(),
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

    @pytest.mark.parametrize("measure", ["risk", "agnostic"])
    def test_exact_ties_do_not_depend_on_x0_order(self, scalar_spec, measure):
        # an arm against an identical arm ties at exactly 0 gap on every x0,
        # while the raw losses differ from one x0 to the next
        xs = [[1.0], [-0.5], [0.25]]
        grid = (2, 10, 30)

        def run(x0_grid):
            alg = BaselinePredictor("last_value")
            if measure == "risk":
                return estimate_excess_risk(
                    scalar_spec, alg, BaselinePredictor("last_value"), grid, n_traj=6,
                    x0_grid=x0_grid, window=4,
                )
            return agnostic_gap(
                scalar_spec, alg, [BaselinePredictor("last_value")], grid, n_traj=6,
                x0_grid=x0_grid, window=4,
            )

        raw = {run([x]).raw_alg.tobytes() for x in xs}
        assert len(raw) == len(xs)  # the tie-break decides which raw losses are reported
        curves = [run(order) for order in (xs, xs[::-1], xs[1:] + xs[:1])]
        for c in curves:
            assert (c.excess_mean == 0.0).all()
            for col in ("excess_ci_half", "raw_alg", "raw_oracle"):
                assert getattr(c, col).tobytes() == getattr(curves[0], col).tobytes()

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


class TestLorenzBlowup:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_diverging_grid_state_names_the_step(self, position):
        spec = LorenzSpec(dt=0.05, init=InitPolicy(kind="stationary", points=2))
        bad = np.array([1e8, 1e8, 1e8])
        with pytest.raises(IntegrationBlowup, match=r"at step \d+") as single:
            systems.simulate_lorenz_ensemble(spec, 24, bad, [SeededRng(0)])
        a, b = systems.initial_states(spec)
        grid = {"first": [bad, a, b], "middle": [a, bad, b], "last": [a, b, bad]}[position]
        for n_workers in (1, 2, 3):
            with pytest.raises(IntegrationBlowup) as exc:
                estimate_excess_risk(
                    spec,
                    BaselinePredictor("last_value"),
                    TruthOracle(),
                    (10, 20),
                    n_traj=4,
                    x0_grid=grid,
                    window=4,
                    n_workers=n_workers,
                )
            assert str(exc.value) == str(single.value)


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

    def test_unknown_kind_is_config_error(self, scalar_spec):
        with pytest.raises(ConfigError, match="unknown oracle kind 'bogus'"):
            resolve_oracle(scalar_spec, "bogus")

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

    def test_truth_and_zero_are_one_class(self):
        truth = resolve_oracle(LorenzSpec(), "truth")
        zero = resolve_oracle(LorenzSpec(obs_noise=0.1), "zero")  # no noiseless check
        assert type(truth) is type(zero) is TruthOracle
        assert (truth.label, zero.label) == ("truth", "zero")


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
        # floats at 17 significant digits, integers in decimal
        assert lines[1:] == ["0.050000000000000003,500,1000", "0.01,inf,1000"]


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
        assert table[1].startswith("1,") and table[1].endswith(",yes")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[1].endswith(",1")
        assert summary == ["epsilon,t_eval,m_star", "0.5,100,1"]
        # exact cells: a NumPy-integer m column, 17 digits for 0.1, the no/none tokens
        unmet = MStarReport(
            epsilon=0.1,
            t_eval=1000,
            m_values=np.array([1, 2], dtype=np.int64),
            excess=np.array([0.5, 0.2]),
            ci_half=np.array([0.25, 0.0]),
            m_star=None,
        )
        unmet.write_csv(tmp_path / "unmet.csv")
        unmet.write_summary_csv(tmp_path / "unmet_summary.csv")
        assert (tmp_path / "unmet.csv").read_text() == (
            "m,excess,ci,achieved\n1,0.5,0.25,no\n2,0.20000000000000001,0,no\n"
        )
        assert (tmp_path / "unmet_summary.csv").read_text() == (
            "epsilon,t_eval,m_star\n0.10000000000000001,1000,none\n"
        )

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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_comparator_is_best_baseline_per_x0_and_time(self, reverse):
        # on this 3-x0 system the best baseline changes with the grid time
        # (Kalman early, AR(2) late for two states) and with x0 (Kalman
        # throughout for the third); both x0 orders, so that no x0's
        # comparator can stand in for another's
        system = _shared_system("lds")
        window, n_traj = _SHARED["window"], _SHARED["n_traj"]
        grid = np.array([2, 5, 10, 20, 30])
        states = systems.initial_states(system)[:: -1 if reverse else 1]
        alg = SpectralPredictor(build_filter_bank(8, 3))
        baselines = [
            BaselinePredictor("last_value"),
            BaselinePredictor("zero"),
            BaselinePredictor("ar", order=2),
            KalmanPredictor(system),
        ]
        curve = agnostic_gap(system, alg, baselines, grid, x0_grid=states, **_SHARED)

        # the definition, one (x0, g) at a time, on the superposed observations:
        # fresh streams from x0 = 0 (every x0 sees the same noise) plus each
        # x0's free response, in the canonical (sorted) order of the grid;
        # the Kalman baseline runs on the two parts and its predictions add
        horizon = int(grid[-1]) + window
        rngs = _traj_rngs(SeededRng(_SHARED["master_seed"]), n_traj)
        base = systems.simulate_ensemble(system, horizon, np.zeros(system.d), rngs)
        states = sorted(states, key=tuple)
        free = systems.lds_free_responses(system, horizon, states)
        kalman = baselines[3]
        on_base, on_free = kalman.run_ensemble(base), kalman.run_ensemble(free)
        per_x0 = []
        for j in range(len(states)):
            Ys = base + free[j]
            la = learnability._grid_losses(alg.run_ensemble(Ys), Ys, grid, window)
            preds = [b.run_ensemble(Ys) for b in baselines[:3]] + [on_base + on_free[j]]
            lbs = [learnability._grid_losses(pr, Ys, grid, window) for pr in preds]
            per_x0.append((la, lbs))
        expected = {"excess_mean": [], "excess_ci_half": [], "raw_alg": [], "raw_oracle": []}
        winners = np.empty((len(per_x0), grid.size), dtype=int)
        for g in range(grid.size):
            worst = None
            for xi, (la, lbs) in enumerate(per_x0):
                means = [lb.mean(axis=0)[g] for lb in lbs]
                k = winners[xi, g] = means.index(min(means))
                gap = la.mean(axis=0)[g] - means[k]
                if worst is None or gap > worst[0]:
                    worst = (gap, la[:, g] - lbs[k][:, g], la.mean(axis=0)[g], means[k])
            gap, diffs, mean_alg, mean_best = worst
            expected["excess_mean"].append(gap)
            expected["excess_ci_half"].append(
                learnability.CI_Z * diffs.std(ddof=1) / math.sqrt(n_traj)
            )
            expected["raw_alg"].append(mean_alg)
            expected["raw_oracle"].append(mean_best)

        assert any(len(set(row)) > 1 for row in winners)  # changes with the grid time
        assert any(len(set(col)) > 1 for col in winners.T)  # changes with x0
        for name, values in expected.items():
            assert getattr(curve, name).tobytes() == np.array(values).tobytes(), name


@pytest.fixture(scope="module")
def biasvar_report():
    spec = _noisy_scalar()
    rep = bias_variance_split(spec, 64, 15, t_grid=(100, 200, 400, 800), n_traj=120, master_seed=11)
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
        small = bias_variance_split(spec, 64, 6, **grids)
        big = bias_variance_split(spec, 64, 12, **grids)
        slack = small.variance_ci_half[0] + big.variance_ci_half[0]
        assert big.variance[0] >= small.variance[0] - slack

    def test_requires_linear_system(self, monkeypatch):  # and builds no bank first
        built = []
        monkeypatch.setattr(learnability, "build_filter_bank", lambda *a, **k: built.append(a))
        with pytest.raises(IncompatiblePairing):
            bias_variance_split(LorenzSpec(), 16, 4, t_grid=(10,), n_traj=4)
        assert built == []

    def test_csv(self, tmp_path, biasvar_report):
        rep, _ = biasvar_report
        rep.write_csv(tmp_path / "bv.csv")
        lines = (tmp_path / "bv.csv").read_text().splitlines()
        assert lines[0] == "t,bias,bias_ci,variance,variance_ci"
        assert len(lines) == 5
        # the NumPy-integer grid in decimal; every float cell reads back exactly
        assert rep.t_grid.dtype.kind == "i"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["100", "200", "400", "800"]
        cols = (rep.bias, rep.bias_ci_half, rep.variance, rep.variance_ci_half)
        assert [[float(c) for c in row[1:]] for row in rows] == np.column_stack(cols).tolist()


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
    return bias_variance_split(system, 8, 3, _TIMES, ref_multiplier=3, **common)


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
        # Lorenz simulates every x0 of the grid in one stacked call; an LDS
        # simulates once from x0 = 0 and adds the grid's free responses
        system = _shared_system(kind)
        shared = _measure(name, system)
        replays, free_stacks = [], []

        def replay(system, horizon, x0, rngs, n_workers=1):
            # biasvar's reference run is one stream in its own namespace
            if rngs[0].path[0] != learnability._REF_NS:
                replays.extend(np.atleast_2d(x0))  # one row per x0 of a stacked call
                rngs = _traj_rngs(SeededRng(_SHARED["master_seed"]), len(rngs))
            return systems.simulate_ensemble(system, horizon, x0, rngs)

        def free_responses(system, horizon, states):
            free_stacks.append(np.array(states))
            return systems.lds_free_responses(system, horizon, states)

        monkeypatch.setattr(learnability, "simulate_ensemble", replay)
        monkeypatch.setattr(learnability, "lds_free_responses", free_responses)
        replayed = _measure(name, system)
        states = np.array(systems.initial_states(system))
        if kind == "lds":
            assert len(replays) == 1 and np.array_equal(replays[0], np.zeros(system.d))
            assert len(free_stacks) == 1 and np.array_equal(free_stacks[0], states)
        else:
            assert np.array_equal(np.array(replays), states) and not free_stacks
        assert _worst_case(replayed) == _worst_case(shared)

    def test_reversed_x0_order_keeps_worst_case(self, name, kind):
        system = _shared_system(kind)
        states = systems.initial_states(system)
        forward = _measure(name, system, x0_grid=states)
        backward = _measure(name, system, x0_grid=states[::-1])
        assert _worst_case(backward) == _worst_case(forward)


# --- superposed LDS grid ----------------------------------------------------


def _superposition_system(kind, g, d, p):
    """A random LDS: stable symmetric, symmetric with a pole at +-1, or a
    non-symmetric closed loop A + B K with spectral radius 0.9."""
    C = g.standard_normal((p, d))
    noise = NoiseSpec(stdev_process=g.uniform(0.01, 1.0), stdev_obs=g.uniform(0.01, 1.0))
    if kind == "closed_loop":
        A, B, K = g.standard_normal((d, d)), g.standard_normal((d, 2)), g.standard_normal((2, d))
        shrink = 0.9 / systems.spectral_radius(A + B @ K)
        return LdsSpec(A=A * shrink, C=C, noise=noise, B=B, K=K * shrink, symmetric_flag=False)
    Q, _ = np.linalg.qr(g.standard_normal((d, d)))
    lam = g.uniform(-0.99, 0.99, d)
    if kind == "marginal":
        lam[0] = g.choice([-1.0, 1.0])
    A = (Q * lam) @ Q.T
    return LdsSpec(A=0.5 * (A + A.T) if d > 1 else lam[None, :], C=C, noise=noise)


class TestSuperposedGrid:
    @pytest.mark.parametrize("kind", ["stable", "marginal", "closed_loop"])
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 5),
        p=st.integers(1, 2),
        k=st.integers(1, 4),
        n_traj=st.integers(2, 5),
        horizon=st.integers(1, 80),
    )
    def test_grid_observations_match_direct_simulation(
        self, kind, seed, d, p, k, n_traj, horizon
    ):
        # each x0's observations are the run from 0 plus its free response:
        # equal, up to rounding, to simulating that x0 on the same noise
        g = np.random.default_rng(seed)
        system = _superposition_system(kind, g, d, p)
        states = list(3.0 * g.standard_normal((k, d)))
        seen = []

        def losses(Ys, run):
            seen.append(Ys.copy())
            # a linear predictor in the "truth" role reproduces Ys exactly
            every_row = np.ones(horizon, dtype=bool)
            return [learnability._grid_losses(run(TruthOracle(), every_row), Ys, np.array([0]), 1)]

        L = learnability._evaluate(system, states, horizon, n_traj, SeededRng(seed), 1, losses)
        assert (L == 0.0).all()
        assert len(seen) == k
        for x0, Ys in zip(states, seen):
            rngs = _traj_rngs(SeededRng(seed), n_traj)
            direct = systems.simulate_lds_ensemble(system, horizon, x0, rngs)
            scale = np.abs(direct).max()
            np.testing.assert_allclose(Ys, direct, rtol=1e-12, atol=1e-12 * scale)

    def test_distinct_kalman_arms_tie_exactly_in_every_role(self):
        # two Kalman instances are superposed alike, as algorithm, oracle or
        # baseline, so their gap is exactly 0 on a grid of several x0
        system = _shared_system("lds")
        stem = dict(n_traj=6, master_seed=3, window=4)
        risk = estimate_excess_risk(
            system, KalmanPredictor(system), KalmanPredictor(system), (2, 10, 30), **stem
        )
        gap = agnostic_gap(
            system, KalmanPredictor(system), [KalmanPredictor(system)], (2, 10, 30), **stem
        )
        for curve in (risk, gap):
            assert (curve.excess_mean == 0.0).all() and (curve.excess_ci_half == 0.0).all()


# --- determinism over random systems ----------------------------------------


class TestRandomSystemDeterminism:
    """A risk curve depends only on (system, x0 grid, seed): not on the worker
    count, nor on the order in which the x0 grid is given."""

    @pytest.mark.parametrize("kind", ["lds", "lorenz"])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        rho=st.floats(0.0, 0.99),
        stdevs=st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
        k=st.integers(2, 4),
        data=st.data(),
    )
    def test_curve_ignores_workers_and_x0_order(self, kind, seed, d, rho, stdevs, k, data):
        from dynolearn.systems import random_symmetric_psd, random_unit_row

        g = np.random.default_rng(seed)
        if kind == "lds":
            system = LdsSpec(
                A=random_symmetric_psd(d, 0.0, rho, SeededRng(seed)),
                C=random_unit_row(d, SeededRng(seed).child(1)),
                noise=NoiseSpec(stdev_process=stdevs[0], stdev_obs=stdevs[1]),
            )
            x0_grid = list(g.standard_normal((k, d)))
            oracle = KalmanPredictor(system)
        else:
            system = LorenzSpec(obs_noise=stdevs[1])
            x0_grid = list(g.uniform([-20, -25, 0], [20, 25, 45], (k, 3)))
            oracle = TruthOracle()  # the zero reference: raw risk
        order = data.draw(st.permutations(range(k)))
        learner = SpectralPredictor(build_filter_bank(8, 3), obs_dim=1)

        def curve(grid, n_workers):
            return estimate_excess_risk(
                system, learner, oracle, (5, 20), n_traj=4, x0_grid=grid,
                master_seed=seed, n_workers=n_workers,
            )

        base = curve(x0_grid, 1)
        for other in (curve(x0_grid, 3), curve([x0_grid[i] for i in order], 1)):
            for col in ("t_grid", "excess_mean", "excess_ci_half", "raw_alg", "raw_oracle"):
                assert getattr(other, col).tobytes() == getattr(base, col).tobytes(), col
