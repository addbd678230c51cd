import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynolearn import (
    ContractViolation,
    InitPolicy,
    KalmanPredictor,
    KernelOracle,
    LdsSpec,
    LorenzSpec,
    NoiseSpec,
    RiskCurve,
    SpectralPredictor,
    TruthOracle,
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
from conftest import (
    REPO,
    bias_variance_reference,
    lorenz_evaluate_reference,
    run_whole,
    superposed_learner,
    whole_array_ridges,
)
from dynolearn import learnability, spectral, systems
from dynolearn.config import build_predictor, build_system, geometric_grid, load_config
from dynolearn.errors import ConfigError, IncompatiblePairing, IntegrationBlowup
from dynolearn.learnability import BurnInReport, MStarReport, _traj_rngs
from dynolearn.numerics import SeededRng
from dynolearn.spectral import _bank_columns


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
        curve = estimate_excess_risk(
            scalar_spec, kal, (kal,), (10, 20, 40), n_traj=8, master_seed=1
        )
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
            SpectralPredictor.baseline("zero"),
            (TruthOracle(spec),),
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
            SpectralPredictor.baseline("last_value"),
            (KalmanPredictor(scalar_spec),),
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
                (KalmanPredictor(scalar_spec),),
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
        # the CSV does not record the ensemble size, so a loaded curve has none
        assert (a.n_traj, loaded.n_traj, loaded.oracle_label) == (12, None, "loaded")
        loaded.write_csv(tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == pa.read_bytes()

    def test_worst_case_over_x0_is_pointwise_max(self, scalar_spec):
        stem = dict(n_traj=10, master_seed=3, window=8)
        kal = KalmanPredictor(scalar_spec)
        alg = SpectralPredictor.baseline("last_value")
        grid = (10, 40)
        both = estimate_excess_risk(
            scalar_spec, alg, (kal,), grid, x0_grid=[[1.0], [-1.0]], **stem
        )
        only_a = estimate_excess_risk(scalar_spec, alg, (kal,), grid, x0_grid=[[1.0]], **stem)
        only_b = estimate_excess_risk(scalar_spec, alg, (kal,), grid, x0_grid=[[-1.0]], **stem)
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
            alg = SpectralPredictor.baseline("last_value")
            if measure == "risk":
                return estimate_excess_risk(
                    scalar_spec, alg, (SpectralPredictor.baseline("last_value"),), grid, n_traj=6,
                    x0_grid=x0_grid, window=4,
                )
            return estimate_excess_risk(
                scalar_spec, alg, [SpectralPredictor.baseline("last_value")], grid, n_traj=6,
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
        alg = SpectralPredictor.ar(2)
        stem = dict(n_traj=8, master_seed=2)
        a = estimate_excess_risk(scalar_spec, alg, (kal,), (10, 30), n_workers=1, **stem)
        b = estimate_excess_risk(scalar_spec, alg, (kal,), (10, 30), n_workers=4, **stem)
        assert np.array_equal(a.excess_mean, b.excess_mean)

    def test_validation(self, scalar_spec):
        kal = KalmanPredictor(scalar_spec)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, (kal,), (10,), n_traj=1)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, (kal,), (30, 10), n_traj=4)
        with pytest.raises(ContractViolation):
            estimate_excess_risk(scalar_spec, kal, (kal,), (), n_traj=4)

    @pytest.mark.parametrize("kind", ["lds", "lorenz"])
    def test_ragged_x0_grid_is_a_contract_violation(self, kind):
        # every state of an explicit grid must have the system's dimension
        system = _noisy_scalar() if kind == "lds" else LorenzSpec()
        d = system.d
        ragged = [np.ones(d), np.ones(d + 1)] if kind == "lds" else [[1, 2, 3], [1, 2]]
        wrong = d + 1 if kind == "lds" else 2
        match = rf"x0 has shape \({wrong},\), expected \({d},\)"
        with pytest.raises(ContractViolation, match=match):
            estimate_excess_risk(
                system, SpectralPredictor.ar(1, 1), (TruthOracle(),), [5], n_traj=2, x0_grid=ragged
            )

    @pytest.mark.parametrize("kind", ["lds", "lorenz"])
    @pytest.mark.parametrize("learner", ["spectral", "ar"])
    def test_rejects_a_learner_of_another_observation_dim(self, kind, learner):
        # both systems observe p = 2 coordinates; the learner expects 1
        system = (
            LdsSpec(A=np.diag([0.8, 0.5]), C=np.eye(2), noise=NoiseSpec(0.1, 0.1))
            if kind == "lds"
            else LorenzSpec(obs_coords=("x", "y"))
        )
        wrong = (
            SpectralPredictor(build_filter_bank(8, 3), obs_dim=1)
            if learner == "spectral"
            else SpectralPredictor.ar(2, obs_dim=1)
        )
        right = SpectralPredictor.baseline("last_value", obs_dim=2)
        stem = dict(n_traj=2, window=2)
        match = r"observation dim 2 does not match predictor \(1\)"
        with pytest.raises(ContractViolation, match=match):
            estimate_excess_risk(system, wrong, (TruthOracle(),), (4,), **stem)
        with pytest.raises(ContractViolation, match=match):
            estimate_excess_risk(system, right, [right, wrong], (4,), **stem)


class TestLorenzBlowup:
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_diverging_grid_state_names_the_step(self, position):
        spec = LorenzSpec(dt=0.05, init=InitPolicy(kind="stationary", points=2))
        bad = np.array([1e8, 1e8, 1e8])
        with pytest.raises(IntegrationBlowup, match=r"at step \d+") as single:
            systems.simulate_ensemble(spec, 24, bad, [SeededRng(0)])
        a, b = systems.initial_states(spec)
        grid = {"first": [bad, a, b], "middle": [a, bad, b], "last": [a, b, bad]}[position]
        for n_workers in (1, 2, 3):
            with pytest.raises(IntegrationBlowup) as exc:
                estimate_excess_risk(
                    spec,
                    SpectralPredictor.baseline("last_value"),
                    (TruthOracle(),),
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
            SpectralPredictor.baseline("last_value"),
            (oracle,),
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
            SpectralPredictor(build_filter_bank(30, 4)),
            KalmanPredictor(spec),
            epsilon=0.05,  # generous: roughly the signal power
            m_range=range(1, 5),
            t_eval=300,
            n_traj=40,
            master_seed=4,
        )
        assert report.m_star == 1

    def test_table_nonincreasing_up_to_ci(self):
        spec = _noisy_scalar()
        report = minimal_filter_count(
            spec,
            SpectralPredictor(build_filter_bank(30, 8)),
            KalmanPredictor(spec),
            epsilon=1e-9,  # unattainable: exercise the not-achieved marker
            m_range=[1, 2, 4, 8],
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
        learner = SpectralPredictor(build_filter_bank(20, 2))
        report = minimal_filter_count(
            spec, learner, KalmanPredictor(spec), 0.5, [1, 2], t_eval=100, n_traj=10, master_seed=0
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
            SpectralPredictor(build_filter_bank(100, 25)),
            KalmanPredictor(spec),
            epsilon=epsilon,
            m_range=range(1, 26),
            t_eval=400,
            n_traj=100,
            master_seed=17,
        )
        assert report.m_star is not None
        assert report.m_star <= 25

    @pytest.mark.parametrize("kind", ["lds", "lorenz"])
    def test_ar_sweep_rows_are_ar_orders(self, kind):
        # over AR(K)'s identity bank the first m filters are the last m
        # observations, so row m has the bits of AR(m)'s excess at t_eval
        if kind == "lds":
            system = LdsSpec(
                A=np.diag([0.8, 0.5]),
                C=np.eye(2),
                noise=NoiseSpec(stdev_process=0.1, stdev_obs=0.1),
                init=InitPolicy(kind="ball_grid", radius=1.0, points=3),
            )
            oracle = KalmanPredictor(system)
        else:
            system = LorenzSpec(
                obs_coords=("x", "y"), obs_noise=0.5, init=InitPolicy(kind="stationary", points=2)
            )
            oracle = TruthOracle()  # the zero reference: raw risk
        stem = dict(n_traj=6, master_seed=5, window=4)
        ms, t_eval = (1, 2, 3, 5), 40
        learner = SpectralPredictor.ar(5, obs_dim=2)
        report = minimal_filter_count(system, learner, oracle, 0.1, ms, t_eval, **stem)
        for m, excess, ci in zip(ms, report.excess, report.ci_half):
            ar = SpectralPredictor.ar(m, obs_dim=2)
            curve = estimate_excess_risk(system, ar, (oracle,), (t_eval,), **stem)
            assert excess.tobytes() == curve.excess_mean[0].tobytes(), m
            assert ci.tobytes() == curve.excess_ci_half[0].tobytes(), m

    def test_rejects_counts_past_the_bank_and_linear_predictors(self):
        spec = _noisy_scalar()
        kal = KalmanPredictor(spec)
        stem = dict(t_eval=20, n_traj=4, window=4)
        with pytest.raises(ContractViolation, match="past the learner's 3 filters"):
            bank = build_filter_bank(8, 3)
            minimal_filter_count(spec, SpectralPredictor(bank), kal, 0.1, [2, 4], **stem)
        with pytest.raises(ContractViolation, match="past the learner's 2 filters"):
            minimal_filter_count(spec, SpectralPredictor.ar(2), kal, 0.1, [3], **stem)
        with pytest.raises(ContractViolation, match="repeats the filter count 3"):
            minimal_filter_count(spec, SpectralPredictor.ar(5), kal, 0.1, [5, 3, 3], **stem)
        for linear in (kal, SpectralPredictor.baseline("last_value")):
            with pytest.raises(IncompatiblePairing, match="needs a learner"):
                minimal_filter_count(spec, linear, kal, 0.1, [1], **stem)


class TestReferenceClass:
    """`estimate_excess_risk` over a class of references compares with the
    pointwise-best one, so duplicates change nothing and more references
    never lower the excess."""

    @staticmethod
    def _pool(system):
        return [
            SpectralPredictor.baseline("last_value"),
            SpectralPredictor.baseline("zero"),
            SpectralPredictor.ar(1),
            SpectralPredictor.ar(2),
            KalmanPredictor(system),
        ]

    @settings(max_examples=12, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=3),
        dup=st.integers(0, 2),
        extra=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_duplicates_keep_bits_and_more_references_never_lower_excess(
        self, picks, dup, extra, seed
    ):
        system = _noisy_scalar()
        pool = self._pool(system)
        alg = SpectralPredictor(build_filter_bank(8, 3))

        def curve(idx):
            refs = [pool[i] for i in idx]
            return estimate_excess_risk(
                system, alg, refs, (2, 10, 20, 30), n_traj=6, master_seed=seed, window=4
            )

        base = curve(picks)
        fields = ("t_grid", "excess_mean", "excess_ci_half", "raw_alg", "raw_oracle")
        duplicated = curve([*picks, picks[dup % len(picks)]])
        for name in fields:
            assert getattr(duplicated, name).tobytes() == getattr(base, name).tobytes(), name
        assert duplicated.n_traj == base.n_traj
        grown = curve([*picks, extra])
        assert (grown.excess_mean >= base.excess_mean).all()
        labels = [pool[i].label for i in (*picks, extra)]
        assert grown.oracle_label == f"best_of({','.join(labels)})"

    def test_a_lone_reference_keeps_its_label(self, scalar_spec):
        kal = KalmanPredictor(scalar_spec)
        alg = SpectralPredictor.baseline("last_value")
        curve = estimate_excess_risk(scalar_spec, alg, [kal], (10,), n_traj=4, window=4)
        assert curve.oracle_label == kal.label
        with pytest.raises(ContractViolation, match="references must be nonempty"):
            estimate_excess_risk(scalar_spec, alg, [], (10,), n_traj=4, window=4)


class TestAgnosticGap:
    def test_gap_to_self_is_zero(self, scalar_spec):
        alg = SpectralPredictor.ar(2)
        curve = estimate_excess_risk(scalar_spec, alg, [alg], (10, 40), n_traj=8, master_seed=1)
        assert (curve.excess_mean == 0.0).all()

    def test_zero_class_measures_raw_gap(self):
        spec = LdsSpec(
            A=[[0.0]],
            C=[[1.0]],
            noise=NoiseSpec(stdev_process=0.0, stdev_obs=0.5),
            init=InitPolicy(kind="fixed", x0=(0.0,)),
        )
        alg = SpectralPredictor.baseline("last_value")
        zero = [SpectralPredictor.baseline("zero")]
        curve = estimate_excess_risk(spec, alg, zero, (20,), n_traj=50, master_seed=2)
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
        curve = estimate_excess_risk(
            spec,
            SpectralPredictor(bank),
            [
                SpectralPredictor.ar(1),
                SpectralPredictor.ar(5),
                SpectralPredictor.baseline("last_value"),
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
            SpectralPredictor.baseline("last_value"),
            SpectralPredictor.baseline("zero"),
            SpectralPredictor.ar(2),
            KalmanPredictor(system),
        ]
        curve = estimate_excess_risk(system, alg, baselines, grid, x0_grid=states, **_SHARED)

        # the definition, one (x0, g) at a time, on the superposed observations:
        # fresh streams from x0 = 0 (every x0 sees the same noise) plus each
        # x0's free response, in the canonical (sorted) order of the grid;
        # the Kalman baseline runs on the two parts and its predictions add,
        # and the spectral learner reads the base's features plus the free
        # response's (AR's lags of the sum are exact, so it runs on Ys)
        horizon = int(grid[-1]) + window
        rngs = _traj_rngs(SeededRng(_SHARED["master_seed"]), n_traj)
        base = systems.simulate_ensemble(system, horizon, np.zeros(system.d), rngs)
        states = sorted(states, key=tuple)
        free = systems.lds_free_responses(system, horizon, states)
        kalman = baselines[3]
        on_base, on_free = run_whole(kalman, base)[0], run_whole(kalman, free)[0]
        per_x0 = []
        for j in range(len(states)):
            Ys = base + free[j]
            la = learnability._grid_losses(superposed_learner(alg, base, free[j]), Ys, grid, window)
            preds = [run_whole(b, Ys)[0] for b in baselines[:3]] + [on_base + on_free[j]]
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
    learner = SpectralPredictor(build_filter_bank(64, 15))
    rep = bias_variance_split(spec, learner, (100, 200, 400, 800), n_traj=120, master_seed=11)
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
        small = bias_variance_split(spec, SpectralPredictor(build_filter_bank(64, 6)), **grids)
        big = bias_variance_split(spec, SpectralPredictor(build_filter_bank(64, 12)), **grids)
        slack = small.variance_ci_half[0] + big.variance_ci_half[0]
        assert big.variance[0] >= small.variance[0] - slack

    def test_requires_linear_system(self):
        learner = SpectralPredictor(build_filter_bank(16, 4))
        with pytest.raises(IncompatiblePairing):
            bias_variance_split(LorenzSpec(), learner, t_grid=(10,), n_traj=4)

    def test_splits_an_ar_learner(self):
        # AR(k) is the learner over the identity bank: its w* is the best
        # fixed readout of the last k observations
        system = _noisy_scalar()
        learner = SpectralPredictor.ar(3, reg=0.5, refit_period=8)
        kw = dict(t_grid=(40, 80), n_traj=4, master_seed=3, window=4, ref_multiplier=2)
        rep = bias_variance_split(system, learner, **kw)
        got = (rep.bias, rep.bias_ci_half, rep.variance, rep.variance_ci_half)
        want = bias_variance_reference(system, learner, **kw)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        assert (rep.variance > 0).all()

    @pytest.mark.parametrize("kind", ["kalman", "zero", "last_value"])
    def test_refuses_a_linear_predictor(self, kind):
        spec = _noisy_scalar()
        linear = KalmanPredictor(spec) if kind == "kalman" else SpectralPredictor.baseline(kind)
        with pytest.raises(IncompatiblePairing, match="needs a learner"):
            bias_variance_split(spec, linear, (10,), n_traj=4)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        p=st.integers(1, 2),
        sign_augmented=st.booleans(),
        refit_period=st.sampled_from([4, 8, 16]),
        ref_multiplier=st.integers(1, 3),
        first=st.integers(1, 40),
        gap=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_loop_reference(
        self, d, p, sign_augmented, refit_period, ref_multiplier, first, gap, seed
    ):
        # the split's streamed arms against its own hand-written feature loops
        g = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(g.standard_normal((d, d)))
        A = Q @ np.diag(g.uniform(-0.95, 0.95, d)) @ Q.T
        system = LdsSpec(
            A=0.5 * (A + A.T),
            C=g.standard_normal((p, d)),
            noise=NoiseSpec(*g.uniform(0.05, 0.5, 2)),
            init=InitPolicy(kind="ball_grid", radius=1.0, points=2),
        )
        bank = build_filter_bank(8, 3, sign_augmented=sign_augmented)
        kw = dict(
            learner=SpectralPredictor(bank, p, reg=2.0, refit_period=refit_period),
            t_grid=(first, first + gap),
            n_traj=3,
            master_seed=seed,
            window=4,
            ref_multiplier=ref_multiplier,
        )
        rep = bias_variance_split(system, **kw)
        got = (rep.bias, rep.bias_ci_half, rep.variance, rep.variance_ci_half)
        want = bias_variance_reference(system, **kw)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("multiplier", [0, -1])
    def test_rejects_reference_multiplier_below_one(self, multiplier):
        learner = SpectralPredictor(build_filter_bank(8, 3))
        with pytest.raises(ContractViolation, match="ref_multiplier"):
            bias_variance_split(
                _noisy_scalar(), learner, (10,), n_traj=4, ref_multiplier=multiplier
            )

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
        else SpectralPredictor.ar(2, obs_dim=p)
    )
    common = dict(_SHARED, x0_grid=x0_grid, n_workers=n_workers)
    if name == "risk":
        return estimate_excess_risk(
            system, SpectralPredictor(bank, obs_dim=p), (oracle,), _TIMES, **common
        )
    if name == "mstar":
        learner = SpectralPredictor(bank, obs_dim=p)
        return minimal_filter_count(system, learner, oracle, 0.5, (1, 2, 3), t_eval=30, **common)
    if name == "agnostic":
        baselines = [SpectralPredictor.baseline("last_value", obs_dim=p), oracle]
        return estimate_excess_risk(
            system, SpectralPredictor(bank, obs_dim=p), baselines, _TIMES, **common
        )
    learner = SpectralPredictor(bank, obs_dim=p)
    return bias_variance_split(system, learner, _TIMES, ref_multiplier=3, **common)


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
    def test_bits_do_not_depend_on_worker_count(self, name, kind, monkeypatch):
        system = _shared_system(kind)
        runs = [_measure(name, system, n_workers=w) for w in (1, 2, 3)]
        monkeypatch.setattr(learnability, "_GROUP_BYTES", 1)  # nor on the groups: one x0 each
        runs.append(_measure(name, system, n_workers=2))
        fields = [
            {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(r).items()}
            for r in runs
        ]
        assert all(f == fields[0] for f in fields[1:])

    def test_matches_per_x0_replay_with_fresh_streams(self, name, kind, monkeypatch):
        # Lorenz streams every x0 of the grid from one stacked recursion (per
        # group of x0); an LDS simulates once from x0 = 0 and adds the grid's
        # free responses
        system = _shared_system(kind)
        shared = _measure(name, system)
        replays, free_stacks = [], []

        def fresh(rngs):
            return _traj_rngs(SeededRng(_SHARED["master_seed"]), len(rngs))

        def replay(system, horizon, x0, rngs, n_workers=1):
            # biasvar's reference run is one stream in its own namespace
            if rngs[0].path[0] != learnability._REF_NS:
                replays.append(np.asarray(x0))
                rngs = fresh(rngs)
            return systems.simulate_ensemble(system, horizon, x0, rngs)

        def replay_lorenz(system, horizon, X0, rngs, n_workers):
            replays.extend(X0)
            yield from systems._lorenz_observations(system, horizon, X0, fresh(rngs), 1)

        def free_responses(system, horizon, states):
            free_stacks.append(np.array(states))
            return systems.lds_free_responses(system, horizon, states)

        monkeypatch.setattr(learnability, "simulate_ensemble", replay)
        monkeypatch.setattr(learnability, "_lorenz_observations", replay_lorenz)
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


def _grid_learners(bank, p, reg, refit_period, order, readout):
    """The learner, an m* column arm and a frozen w*-readout, as arms of one
    predictor over `bank`; then AR(order)."""
    arms = [(None, reg), (_bank_columns(bank, 2, p), reg), (None, 0.0, readout)]
    learner = SpectralPredictor(bank, p, reg, refit_period, arms)
    return [learner, SpectralPredictor.ar(order, p, reg, refit_period)]


def _grid_predictions(system, states, horizon, n_traj, seed, n_workers, rows, runs):
    """Each x0's predictions by `learnability._evaluate`, one array per arm of `runs`."""
    seen = []

    def losses(ys, preds):
        seen.append(preds)
        return [np.zeros((n_traj, 1))]

    learnability._evaluate(
        system, states, horizon, n_traj, SeededRng(seed), n_workers, rows, runs, losses
    )
    return seen


def _bytes(per_x0):
    return [[a.tobytes() for a in preds] for preds in per_x0]


def _assert_direct_runs(got, system, states, horizon, n_traj, seed, rows, runs):
    """Each x0's predictions `got` of `_grid_learners`' runs equal runs on
    the whole base + free[j]: the learner's arms up to rounding, AR's bits."""
    learner, ar = runs
    F, arms = learner.bank.filter_matrix(), learner.arms
    base = systems.simulate_ensemble(
        system, horizon, np.zeros(system.d), _traj_rngs(SeededRng(seed), n_traj)
    )
    free = systems.lds_free_responses(system, horizon, states)
    for j, preds in enumerate(got):
        Ys = base + free[j]
        direct = [r.preds for r in whole_array_ridges(F, Ys, arms, learner.refit_period, rows)]
        (on_ar,) = whole_array_ridges(
            ar.bank.filter_matrix(), Ys, [(None, ar.reg)], ar.refit_period, rows
        )
        assert all(a.shape == (n_traj, rows.sum(), system.p) for a in preds)
        for a, want in zip(preds, direct):  # measured: within 3e-15 of |want| + scale
            scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=1e-12 * scale)
        assert preds[3].tobytes() == on_ar.preds.tobytes()


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

        def losses(ys, preds):
            seen.append(ys.copy())
            # a linear predictor in the "truth" role reproduces ys exactly
            return [learnability._grid_losses(preds[0], ys, np.array([0]), 1)]

        every_row = np.ones(horizon, dtype=bool)
        L = learnability._evaluate(
            system, states, horizon, n_traj, SeededRng(seed), 1, every_row, [TruthOracle()], losses
        )
        assert (L == 0.0).all()
        assert len(seen) == k
        for x0, Ys in zip(states, seen):
            rngs = _traj_rngs(SeededRng(seed), n_traj)
            direct = systems.simulate_ensemble(system, horizon, x0, rngs)
            scale = np.abs(direct).max()
            np.testing.assert_allclose(Ys, direct, rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["stable", "marginal", "closed_loop"]),
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        p=st.integers(1, 2),
        k=st.integers(1, 4),
        n_traj=st.integers(2, 7),
        horizon=st.integers(1, 90),
        sign_augmented=st.booleans(),
        order=st.integers(1, 3),
        refit_period=st.sampled_from([4, 8, 16]),
        reg=st.floats(0.1, 5.0),
        data=st.data(),
    )
    def test_learners_match_direct_runs(
        self, kind, seed, d, p, k, n_traj, horizon, sign_augmented, order, refit_period, reg, data
    ):
        # every learner arm runs once for the whole x0 grid, on the base's
        # features plus each free response's: each x0's read rows equal a run
        # on base + free[j] up to rounding (AR's identity features exactly),
        # with the same bits at any worker count
        g = np.random.default_rng(seed)
        system = _superposition_system(kind, g, d, p)
        states = list(3.0 * g.standard_normal((k, d)))
        if data.draw(st.booleans(), label="tail"):  # m*'s rows from t_eval
            rows = np.arange(horizon) >= data.draw(st.integers(0, horizon - 1), label="t_eval")
        else:
            times = st.lists(st.integers(0, horizon - 1), min_size=1, max_size=5)
            grid = data.draw(times, label="grid")
            window = data.draw(st.integers(1, 12), label="window")
            rows, _ = learnability._read_rows(sorted(set(grid)), window, horizon)
        bank = build_filter_bank(8, 3, sign_augmented=sign_augmented)
        readout = g.standard_normal((bank.feature_count * p, p))
        runs = _grid_learners(bank, p, reg, refit_period, order, readout)
        got = _grid_predictions(system, states, horizon, n_traj, seed, 1, rows, runs)
        for n_workers in (2, 3):
            other = _grid_predictions(system, states, horizon, n_traj, seed, n_workers, rows, runs)
            assert _bytes(other) == _bytes(got)
        _assert_direct_runs(got, system, states, horizon, n_traj, seed, rows, runs)

    @pytest.mark.parametrize("piece", ["one_trajectory", "two_trajectories", "past_n"])
    def test_window_pieces_keep_the_bits(self, piece, monkeypatch):
        # the feature kernel copies a block's sliding windows a piece of
        # trajectories at a time; each trajectory's product is its own, so
        # the pieces move no bit of any arm on a grid of k = 4 x0
        g = np.random.default_rng(12)
        p, n_traj, horizon, refit_period = 2, 5, 90, 8
        system = _superposition_system("stable", g, 3, p)
        states = list(3.0 * g.standard_normal((4, 3)))
        rows, _ = learnability._read_rows(np.array([5, 30, 61]), 12, horizon)
        bank = build_filter_bank(8, 3)
        readout = g.standard_normal((bank.feature_count * p, p))
        runs = _grid_learners(bank, p, 0.7, refit_period, 2, readout)
        stock = _grid_predictions(system, states, horizon, n_traj, 12, 1, rows, runs)
        per_trajectory = p * refit_period * bank.window  # AR(2)'s windows are shorter
        values = {"one_trajectory": 1, "two_trajectories": 2 * per_trajectory, "past_n": 1 << 40}
        monkeypatch.setattr(spectral, "_WINDOW_VALUES", values[piece])
        got = _grid_predictions(system, states, horizon, n_traj, 12, 1, rows, runs)
        assert _bytes(got) == _bytes(stock)
        _assert_direct_runs(got, system, states, horizon, n_traj, 12, rows, runs)

    def test_distinct_kalman_arms_tie_exactly_in_every_role(self):
        # two Kalman instances are superposed alike, as algorithm, oracle or
        # baseline, so their gap is exactly 0 on a grid of several x0
        system = _shared_system("lds")
        stem = dict(n_traj=6, master_seed=3, window=4)
        risk = estimate_excess_risk(
            system, KalmanPredictor(system), (KalmanPredictor(system),), (2, 10, 30), **stem
        )
        gap = estimate_excess_risk(
            system, KalmanPredictor(system), [KalmanPredictor(system)], (2, 10, 30), **stem
        )
        for curve in (risk, gap):
            assert (curve.excess_mean == 0.0).all() and (curve.excess_ci_half == 0.0).all()


# --- determinism over random systems ----------------------------------------


class TestRandomSystemDeterminism:
    """A risk curve depends only on (system, x0 grid, seed): not on the worker
    count, nor on the order in which the x0 grid is given.  The LDS cases
    take the Kalman and the kernel reference, whose frozen arm runs on the
    superposed base and free responses as the learner does."""

    @pytest.mark.parametrize("kind", ["lds", "lds_kernel", "lorenz"])
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
        if kind != "lorenz":
            system = LdsSpec(
                A=random_symmetric_psd(d, 0.0, rho, SeededRng(seed)),
                C=random_unit_row(d, SeededRng(seed).child(1)),
                noise=NoiseSpec(stdev_process=stdevs[0], stdev_obs=stdevs[1]),
            )
            x0_grid = list(g.standard_normal((k, d)))
            try:
                oracle = (KalmanPredictor if kind == "lds" else KernelOracle)(system)
            except IncompatiblePairing:  # no kernel: the gain does not converge
                assume(False)
        else:
            system = LorenzSpec(obs_noise=stdevs[1])
            x0_grid = list(g.uniform([-20, -25, 0], [20, 25, 45], (k, 3)))
            oracle = TruthOracle()  # the zero reference: raw risk
        order = data.draw(st.permutations(range(k)))
        learner = SpectralPredictor(build_filter_bank(8, 3), obs_dim=1)

        def curve(grid, n_workers):
            return estimate_excess_risk(
                system, learner, (oracle,), (5, 20), n_traj=4, x0_grid=grid,
                master_seed=seed, n_workers=n_workers,
            )

        base = curve(x0_grid, 1)
        for other in (curve(x0_grid, 3), curve([x0_grid[i] for i in order], 1)):
            for col in ("t_grid", "excess_mean", "excess_ci_half", "raw_alg", "raw_oracle"):
                assert getattr(other, col).tobytes() == getattr(base, col).tobytes(), col


# --- streamed Lorenz grid -----------------------------------------------------


class TestStreamedLorenz:
    """A Lorenz grid is streamed through its learners and baselines block by
    block; the results keep the bits of the per-x0 full-array evaluation."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        n_traj=st.integers(2, 5),
        t_end=st.integers(30, 300),
        loss_window=st.integers(1, 9),
        refit_period=st.sampled_from([3, 4, 8]),
        filter_window=st.integers(9, 20),  # longer than every refit period
        record_values=st.sampled_from([60, 700, 1 << 16]),
        group_bytes=st.sampled_from([1, 8 << 20]),
        obs_noise=st.sampled_from([0.0, 0.5]),
        n_workers=st.sampled_from([1, 2]),
    )
    def test_matches_per_x0_full_arrays(
        self, seed, k, n_traj, t_end, loss_window, refit_period, filter_window,
        record_values, group_bytes, obs_noise, n_workers,
    ):
        # small record buffers and group budgets put record blocks, noise
        # chunks and x0 groups across the refit blocks and the read rows
        g = np.random.default_rng(seed)
        system = LorenzSpec(obs_coords=("x", "z"), obs_noise=obs_noise)
        x0_grid = list(g.uniform([-20, -25, 0], [20, 25, 45], (k, 3)))
        p = system.p
        bank = build_filter_bank(filter_window, 3)
        order = int(g.integers(1, 4))
        stem = dict(n_traj=n_traj, x0_grid=x0_grid, master_seed=seed, window=loss_window)
        grid = sorted({max(1, t_end // 3), max(1, t_end // 2), t_end})

        def learner():
            return SpectralPredictor(bank, p, 0.7, refit_period)

        def measurements(n_workers):
            baselines = [
                SpectralPredictor.baseline("zero", p),
                SpectralPredictor.baseline("last_value", p),
                SpectralPredictor.ar(order, p, 0.7, refit_period),
            ]
            run = dict(stem, n_workers=n_workers)
            return [
                estimate_excess_risk(system, learner(), (TruthOracle(),), grid, **run),
                estimate_excess_risk(system, learner(), baselines, grid, **run),
                minimal_filter_count(
                    system, learner(), TruthOracle(), 0.5, (1, 2, 3), t_end, **run
                ),
            ]

        with mock.patch.object(systems, "_RECORD_VALUES", record_values), mock.patch.object(
            learnability, "_GROUP_BYTES", group_bytes
        ):
            streamed = measurements(n_workers)
        with mock.patch.object(learnability, "_evaluate", lorenz_evaluate_reference):
            reference = measurements(1)
        for got, want in zip(streamed, reference):
            assert _as_bytes(got) == _as_bytes(want)

    def test_memory_is_flat_in_the_horizon(self):
        # the traced heap peak of a noisy x,y,z grid (4 x0, 8 trajectories)
        # does not grow with the horizon: the whole grid of observations
        # would add 4 * 8 * 3 * 8 B per step, 4.6 MB from H = 2000 to 8000
        system = LorenzSpec(
            obs_coords=("x", "y", "z"), obs_noise=0.5, init=InitPolicy(kind="stationary", points=4)
        )
        x0_grid = systems.initial_states(system)
        learner = SpectralPredictor(build_filter_bank(32, 13), obs_dim=3)

        def peak(horizon):
            grid = (horizon // 4, horizon // 2, horizon - 16)  # the same read rows at any H
            tracemalloc.start()
            try:
                estimate_excess_risk(
                    system, learner, (TruthOracle(),), grid, n_traj=8, x0_grid=x0_grid, window=16
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2000), peak(8000)
        assert abs(long - short) < 2**20, (short, long)


def test_lds_memory_grows_by_the_base_alone():
    # the LDS case of `test_memory_is_flat_in_the_horizon`: `configs/scalar_lds.cfg`'s
    # system, learner and Kalman reference on 100 trajectories.  The run from
    # x0 = 0 is held whole, (n, H, p); nothing else may grow with the
    # horizon: not the reference's predictions, nor its gains, nor the
    # observation noise, whose chunks stop growing at `systems._NOISE_ROWS`
    # steps (2^20 values alone would be a scalar ensemble's whole horizon)
    cfg = load_config(REPO / "configs" / "scalar_lds.cfg")
    system = build_system(cfg)
    learner = build_predictor(cfg, system)
    n = 100

    def peak(T):
        tracemalloc.start()
        try:
            estimate_excess_risk(
                system, learner, (KalmanPredictor(system),), geometric_grid(25, T, 24), n_traj=n
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(2000), peak(8000)  # horizons 2016 and 8016
    base_growth = n * (8016 - 2016) * system.p * 8
    assert long - short <= base_growth + 2**20, (short, long, base_growth)


@pytest.mark.parametrize("group_bytes, groups", [(8 << 20, 1), (1, 2)], ids=["whole", "per-x0"])
def test_lds_streams_live_one_at_a_time(scalar_spec, group_bytes, groups, monkeypatch):
    # at one worker an LDS grid holds one stream at a time: each stream (the
    # learner's, the Kalman reference's, the observations') is made only
    # after the previous one's push has ended, once per group of x0 (the
    # scalar ball grid has 2 x0)
    events = []

    def spy(cls):
        make = cls.stream

        def stream(self, *args):
            events.append("make")
            made = make(self, *args)
            push = made.push

            def logged(*pushed):
                events.append("push")
                push(*pushed)
                events.append("pushed")

            made.push = logged
            return made

        monkeypatch.setattr(cls, "stream", stream)

    for cls in (SpectralPredictor, KalmanPredictor, TruthOracle):
        spy(cls)
    monkeypatch.setattr(learnability, "_GROUP_BYTES", group_bytes)
    learner = SpectralPredictor(build_filter_bank(8, 3))
    estimate_excess_risk(scalar_spec, learner, (KalmanPredictor(scalar_spec),), (20, 30), n_traj=4)
    assert events == ["make", "push", "pushed"] * 3 * groups


class _Captured(Exception):
    """Raised in place of `_evaluate` once its arguments are recorded."""


# `_x0_groups` of three benchmark workloads, sized from
# `SpectralPredictor.state_size` of the grid's runs, by one rule for both
# system types.  The groups set the peak memory, so they move only with the
# state a learner keeps.  Since m*'s filter counts solve from one Gram and moment,
# its learner holds d50's 8 x0 in one group (one per x0 when each arm kept
# its own Gram) and lorenz_long's 4 in one recursion (2 before).  A group's
# slice stops at the grid's end, so the groups partition the grid: d50's
# risk learner could hold 20 x0 and lorenz_long's m* 11, but each grid
# ends first.
X0_GROUPS = [
    ("d50", "mstar", [slice(0, 8)]),
    ("d50", "risk", [slice(0, 8)]),
    ("lorenz_long", "mstar", [slice(0, 4)]),
]


@pytest.mark.parametrize("name, subcommand, groups", X0_GROUPS)
def test_x0_groups_of_the_benchmark_workloads(name, subcommand, groups, monkeypatch):
    from dynolearn import cli

    seen = {}

    def capture(system, states, horizon, n_traj, master, n_workers, rows, runs, losses):
        seen.update(k=len(states), n=n_traj, runs=runs)
        raise _Captured

    monkeypatch.setattr(learnability, "_evaluate", capture)
    config = REPO / "perfbench" / "configs" / f"{name}.cfg"
    with warnings.catch_warnings(), pytest.raises(_Captured):
        warnings.simplefilter("ignore")  # m*'s widest bank passes the reliable cap
        cli.main([subcommand, "-c", str(config), "-j", "1"])
    k = seen["k"]
    got = learnability._x0_groups(seen["runs"], k, seen["n"])
    assert got == groups
    assert [j for g in got for j in range(g.start, g.stop)] == list(range(k))  # a partition


def _as_bytes(result):
    """A result's fields, arrays as bytes."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(result).items()}
