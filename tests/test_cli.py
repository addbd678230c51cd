import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import REPO, cli_env

from dynolearn import SpectralPredictor, estimate_excess_risk
from dynolearn.config import build_oracle, build_system, load_config

SCALAR_NOISELESS = """
[system]
kind = lds
a = 0.5
c = 1.0
x0_kind = fixed
x0 = 1.0

[harness]
horizon = 20

[run]
seed = 3
"""

SCALAR_RISK = """
[system]
kind = lds
a = 0.9
c = 1.0
process_stdev = 0.1
obs_stdev = 0.1
x0_kind = ball_grid
x0_radius = 1.0
x0_points = 2

[predictor]
kind = spectral
window = 30
m = 6

[harness]
t_grid = 25,50,100
n_traj = 20
epsilons = 0.05

[run]
seed = 11
"""


def run_cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "dynolearn", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        timeout=300,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "noiseless.cfg").write_text(SCALAR_NOISELESS)
    (tmp_path / "risk.cfg").write_text(SCALAR_RISK)
    return tmp_path


class TestSimulate:
    def test_noiseless_decay_csv(self, workdir):
        res = run_cli(["simulate", "-c", "noiseless.cfg", "--out", "sim"], workdir)
        assert res.returncode == 0, res.stderr
        assert "rows=20 seed=3" in res.stdout
        data = np.loadtxt(workdir / "sim" / "trajectory.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], 0.5 ** np.arange(20))

    def test_repeat_run_is_byte_identical(self, workdir):
        run_cli(["simulate", "-c", "noiseless.cfg", "--out", "s1"], workdir)
        run_cli(["simulate", "-c", "noiseless.cfg", "--out", "s2"], workdir)
        a = (workdir / "s1" / "trajectory.csv").read_bytes()
        b = (workdir / "s2" / "trajectory.csv").read_bytes()
        assert a == b

    def test_manifest_written(self, workdir):
        run_cli(["simulate", "-c", "noiseless.cfg", "--out", "sim"], workdir)
        manifest = (workdir / "sim" / "manifest.txt").read_text()
        assert "subcommand = simulate" in manifest
        assert "seed = 3" in manifest
        assert "config_digest = " in manifest
        resolved = (workdir / "sim" / "resolved.cfg").read_bytes()
        assert b"[system]" in resolved and b"a = 0.5" in resolved
        assert f"config_digest = {hashlib.sha256(resolved).hexdigest()}\n" in manifest

    def test_bad_config_exits_one_with_json_error(self, workdir):
        res = run_cli(["simulate", "-c", "missing.cfg"], workdir)
        assert res.returncode == 1
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config"

    def test_mismatched_control_matrices_exit_one(self, workdir):
        (workdir / "cl.cfg").write_text(
            "[system]\nkind = closed_loop\na = 1.4\nc = 1.0\nb = 1,1\nk = -0.5\n"
            "symmetric = false\nx0_kind = fixed\nx0 = 1.0\n"
        )
        res = run_cli(["simulate", "-c", "cl.cfg", "--out", "cl"], workdir)
        assert res.returncode == 1
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config" and "system.b and system.k" in err["message"]

    def test_lorenz_blowup_exits_four(self, workdir):
        (workdir / "blow.cfg").write_text(
            "[system]\nkind = lorenz\ndt = 0.05\nx0_kind = fixed\nx0 = 1e8,1e8,1e8\n"
            "[harness]\nhorizon = 100\n"
        )
        res = run_cli(["simulate", "-c", "blow.cfg", "--out", "b"], workdir)
        assert res.returncode == 4
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "numerical_failure"
        assert not (workdir / "b" / "manifest.txt").exists()  # a failed run writes nothing

    @pytest.mark.parametrize(
        "x0",
        [
            "x0_kind = fixed\nx0 = 1e8,1e8,1e8\n",
            # the stationary grid's burn-in overflows before any measurement
            "rho = 1e6\nx0_kind = stationary\nx0_points = 2\n",
        ],
        ids=["fixed", "stationary"],
    )
    def test_lorenz_blowup_in_risk_exits_four(self, x0, workdir):
        (workdir / "blow.cfg").write_text(
            f"[system]\nkind = lorenz\ndt = 0.05\n{x0}[harness]\nt_grid = 10,20\nn_traj = 4\n"
        )
        res = run_cli(["risk", "-c", "blow.cfg", "--out", "r"], workdir)
        assert res.returncode == 4
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "numerical_failure"
        assert "step" in err["message"]
        assert not (workdir / "r" / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["simulate", "risk", "mstar"])
    def test_diverging_lds_exits_four(self, command, tmp_path):
        # |a| = 1.5 overflows within the horizon: the LDS recursion names the step
        cfg = REPO / "configs" / "scalar_lds.cfg"
        overrides = ["system.a=1.5", "system.symmetric=false", "harness.n_traj=4"]
        overrides += ["harness.t_grid=100,1900", "harness.horizon=1900"]
        res = run_cli([command, "-c", str(cfg), "--out", "o", *overrides], tmp_path)
        assert res.returncode == 4, res.stderr
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "numerical_failure"
        assert "step" in err["message"]
        assert not (tmp_path / "o" / "manifest.txt").exists()

    @pytest.mark.parametrize("t_grid, code", [("10,20", 0), ("2,20", 4)])
    def test_singular_readout_fails_only_where_read(self, t_grid, code, tmp_path):
        # AR(2) with reg = 0 refit every 2 steps: the refit at step 2 sees a
        # zero lag-2 column.  Grid windows [10, 14) and [20, 24) never use
        # that readout, so it is not solved; a window from step 2 uses it.
        cfg = REPO / "configs" / "scalar_lds.cfg"
        overrides = ["predictor.kind=ar", "predictor.m=2", "predictor.reg=0"]
        overrides += ["predictor.refit_period=2", f"harness.t_grid={t_grid}"]
        overrides += ["harness.window=4", "harness.n_traj=4"]
        res = run_cli(["risk", "-c", str(cfg), "--out", "o", *overrides], tmp_path)
        assert res.returncode == code, res.stderr
        if code:
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "numerical_failure"
            assert "refit at step 2 is singular" in err["message"]
            assert not (tmp_path / "o" / "manifest.txt").exists()
        else:
            table = np.loadtxt(tmp_path / "o" / "risk.csv", delimiter=",", skiprows=1)
            assert np.isfinite(table).all()


class TestFilters:
    def test_window_two_spectrum(self, tmp_path):
        res = run_cli(["filters", "-T", "2", "-m", "2", "--out", "f"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "f" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "i,mu_i"
        mus = [float(line.split(",")[1]) for line in lines[1:]]
        assert mus[0] == pytest.approx((4 + np.sqrt(13)) / 6, rel=1e-12)
        assert mus[1] == pytest.approx((4 - np.sqrt(13)) / 6, rel=1e-12)
        assert lines[1] == "1,1.2675918792439982"  # 17 significant digits
        filters = (tmp_path / "f" / "filters.csv").read_text().splitlines()
        assert filters[:2] == ["k,phi_1,phi_2", "1,0.88167459876794363,-0.47185792553202427"]

    def test_spectrum_strictly_decreasing(self, tmp_path):
        res = run_cli(["filters", "-T", "256", "-m", "19", "--out", "f"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "f" / "spectrum.csv").read_text().splitlines()[1:]
        mus = np.array([float(line.split(",")[1]) for line in lines])
        assert (np.diff(mus) < 0).all()
        filters = np.loadtxt(tmp_path / "f" / "filters.csv", delimiter=",", skiprows=1)
        assert filters.shape == (256, 20)  # index column + 19 filters

    def test_above_cap_exits_two_naming_cap(self, tmp_path):
        res = run_cli(["filters", "-T", "64", "-m", "40", "--out", "f"], tmp_path)
        assert res.returncode == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "contract_violation"
        assert "cap 15" in err["message"]


class TestRiskPipeline:
    def test_risk_with_oracle_as_algorithm_is_zero(self, workdir):
        res = run_cli(
            ["risk", "-c", "risk.cfg", "--out", "r", "predictor.kind=kalman"], workdir
        )
        assert res.returncode == 0, res.stderr
        data = np.loadtxt(workdir / "r" / "risk.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], np.zeros(3))

    def test_risk_csv_header_and_reproducibility(self, workdir):
        r1 = run_cli(["risk", "-c", "risk.cfg", "--out", "r1"], workdir)
        r2 = run_cli(["risk", "-c", "risk.cfg", "--out", "r2"], workdir)
        assert r1.returncode == 0 and r2.returncode == 0
        a = (workdir / "r1" / "risk.csv").read_bytes()
        b = (workdir / "r2" / "risk.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "t,excess_mean,excess_ci,raw_alg,raw_oracle"

    @pytest.mark.parametrize("command", ["risk", "biasvar"])
    def test_noiseless_multi_state_lds_is_finite(self, command, tmp_path):
        # the innovation covariance collapses to rounding after d = 3 steps
        (tmp_path / "nl.cfg").write_text(
            "[system]\nkind = lds\na_diag = 0.9,0.5,-0.3\nc_row = 1,1,1\n"
            "x0_kind = ball_grid\nx0_points = 4\n"
            "[harness]\nt_grid = geom(25,2000,24)\nn_traj = 8\n"
        )
        res = run_cli([command, "-c", "nl.cfg", "--out", "o"], tmp_path)
        assert res.returncode == 0, res.stderr
        data = np.loadtxt(tmp_path / "o" / f"{command}.csv", delimiter=",", skiprows=1)
        assert np.isfinite(data).all()

    def test_kernel_oracle_matches_kalman(self, tmp_path):
        # the kernel is the steady-state Kalman predictor, so the two oracles'
        # losses agree within the excess CI at every grid time
        cfg = REPO / "configs" / "scalar_lds.cfg"
        runs = {}
        for oracle in ("auto", "kernel"):
            args = ["risk", "-c", str(cfg), "--out", oracle, "harness.n_traj=20"]
            res = run_cli([*args, f"harness.oracle={oracle}"], tmp_path)
            assert res.returncode == 0, res.stderr
            runs[oracle] = np.loadtxt(tmp_path / oracle / "risk.csv", delimiter=",", skiprows=1)
        auto, kernel = runs["auto"], runs["kernel"]
        for column in (1, 4):  # excess_mean, raw_oracle
            assert (np.abs(kernel[:, column] - auto[:, column]) <= auto[:, 2]).all()

    @pytest.mark.parametrize("command", ["risk", "biasvar"])
    def test_kalman_oracle_on_lorenz_exits_three(self, command, workdir):
        (workdir / "lor.cfg").write_text(
            "[system]\nkind = lorenz\nobs_stdev = 0.1\n"
            "[harness]\nt_grid = 10,20\nn_traj = 4\noracle = kalman\n"
        )
        res = run_cli([command, "-c", "lor.cfg", "--out", "r"], workdir)
        assert res.returncode == 3
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "incompatible_pairing"

    def test_lorenz_raw_risk_mode_with_explicit_zero_oracle(self, workdir):
        (workdir / "lorzero.cfg").write_text(
            "[system]\nkind = lorenz\nobs_stdev = 0.1\n"
            "[predictor]\nkind = last_value\n"
            "[harness]\nt_grid = 10,20\nn_traj = 4\noracle = zero\n"
        )
        res = run_cli(["risk", "-c", "lorzero.cfg", "--out", "rz"], workdir)
        assert res.returncode == 0, res.stderr
        assert "oracle=zero" in res.stdout
        data = np.loadtxt(workdir / "rz" / "risk.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], data[:, 3])  # excess == raw risk

    def test_burnin_on_fixture_curve(self, workdir):
        fixture = workdir / "curve.csv"
        fixture.write_text(
            "t,excess_mean,excess_ci,raw_alg,raw_oracle\n"
            "10,0.5,0,0.5,0\n50,0.2,0,0.2,0\n100,0.08,0,0.08,0\n"
            "500,0.04,0,0.04,0\n1000,0.03,0,0.03,0\n"
        )
        res = run_cli(
            ["burnin", "--curve", "curve.csv", "--out", "bi", "harness.epsilons=0.05"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        assert "t_star=500" in res.stdout
        lines = (workdir / "bi" / "burnin.csv").read_text().splitlines()
        assert lines[0] == "epsilon,t_star,uniform_checked_to"
        assert lines[1] == "0.050000000000000003,500,1000"

    @pytest.mark.parametrize(
        "curve, code, error",
        [
            (None, 1, "config"),  # no such file
            ("10,0.5,0,0.5,0\n20,low,0,0.6,0\n", 1, "config"),
            ("50,0.5,0,0.5,0\n25,0.01,0,0.01,0\n", 2, "contract_violation"),
            ("10,0.5,0,0.5,0\n25.7,0.01,0,0.01,0\n", 2, "contract_violation"),
        ],
        ids=["missing", "non-numeric", "decreasing-t", "fractional-t"],
    )
    def test_burnin_refuses_a_bad_curve(self, workdir, curve, code, error):
        # a curve that cannot be read is a config error; a t column that is
        # not strictly increasing integers >= 1 is no grid
        if curve is not None:
            (workdir / "bad.csv").write_text("t,excess_mean,excess_ci,raw_alg,raw_oracle\n" + curve)
        res = run_cli(["burnin", "--curve", "bad.csv", "--out", "bi"], workdir)
        assert res.returncode == code, res.stderr
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == error
        assert "Traceback" not in res.stderr
        assert not (workdir / "bi").exists()

    def test_burnin_inf_sentinel(self, workdir):
        fixture = workdir / "curve.csv"
        fixture.write_text(
            "t,excess_mean,excess_ci,raw_alg,raw_oracle\n10,0.5,0,0.5,0\n20,0.6,0,0.6,0\n"
        )
        res = run_cli(
            ["burnin", "--curve", "curve.csv", "--out", "bi", "harness.epsilons=0.05"],
            workdir,
        )
        assert res.returncode == 0
        assert "t_star=inf" in res.stdout
        assert ",inf," in (workdir / "bi" / "burnin.csv").read_text()

    def test_mstar_runs(self, workdir):
        res = run_cli(
            [
                "mstar",
                "-c",
                "risk.cfg",
                "--out",
                "ms",
                "harness.m_range=1,2,3",
                "harness.t_eval=100",
                "harness.epsilon=0.2",
            ],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        table = (workdir / "ms" / "mstar_table.csv").read_text().splitlines()
        assert table[0] == "m,excess,ci,achieved"
        assert len(table) == 4
        summary = (workdir / "ms" / "mstar.csv").read_text().splitlines()
        assert summary[0] == "epsilon,t_eval,m_star"

    @pytest.mark.parametrize(
        "override, code, error",
        [
            ("harness.epsilon=inf", 1, "config"),  # checked with the config, as epsilons is
            ("harness.epsilon=nan", 1, "config"),
            ("harness.m_range=0,2", 2, "contract_violation"),
            ("harness.m_range=", 2, "contract_violation"),
            ("harness.m_range=3,3", 2, "contract_violation"),
        ],
    )
    def test_mstar_rejects_bad_target(self, override, code, error, tmp_path):
        cfg = REPO / "configs" / "scalar_lds.cfg"
        args = ["mstar", "-c", str(cfg), "--out", "o", override, "harness.n_traj=4"]
        res = run_cli(args, tmp_path)
        assert res.returncode == code, res.stderr
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == error
        assert not (tmp_path / "o" / "mstar.csv").exists()
        assert not (tmp_path / "o" / "manifest.txt").exists()

    def test_mstar_sweeps_the_configured_learner(self, tmp_path):
        # predictor.kind picks the learner whose first m filters are swept:
        # AR's rows are AR(m), not the spectral bank's; a linear predictor
        # has no filters to sweep
        cfg = REPO / "configs" / "scalar_lds.cfg"
        small = ["harness.n_traj=8", "harness.t_eval=200", "predictor.m=4"]

        def run(kind):
            args = ["mstar", "-c", str(cfg), "--out", kind, f"predictor.kind={kind}", *small]
            return run_cli(args, tmp_path)

        tables = {}
        for kind in ("spectral", "ar"):
            res = run(kind)
            assert res.returncode == 0, res.stderr
            tables[kind] = (tmp_path / kind / "mstar_table.csv").read_text()
            # the written config is the one given, not the widened learner's
            resolved = (tmp_path / kind / "resolved.cfg").read_text()
            assert "m = 4\n" in resolved
        ms = [row.split(",")[0] for row in tables["ar"].splitlines()[1:]]
        assert ms == ["1", "2", "3", "4", "5", "6", "8", "10", "12", "15"]
        assert tables["ar"] != tables["spectral"]
        for kind in ("kalman", "kernel", "zero", "last_value"):
            res = run(kind)
            assert res.returncode == 3, res.stderr
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "incompatible_pairing" and "needs a learner" in err["message"]
            assert not (tmp_path / kind / "manifest.txt").exists()

    def test_ar_order_is_predictor_m(self, tmp_path):
        # predictor.m counts the filters of either bank: kind=ar runs AR(m),
        # and there is no AR-only order key (predictor.ar_order exits 1)
        cfg = REPO / "configs" / "scalar_lds.cfg"
        overrides = ["predictor.kind=ar", "predictor.m=5", "harness.n_traj=6"]
        res = run_cli(["risk", "-c", str(cfg), "--out", "o", "-j", "1", *overrides], tmp_path)
        assert res.returncode == 0, res.stderr
        config = load_config(cfg, overrides)
        system = build_system(config)
        pc, h = config.predictor, config.harness
        ar5 = SpectralPredictor.ar(5, system.p, pc.reg, pc.refit_period)
        curve = estimate_excess_risk(
            system, ar5, (build_oracle(config, system),), t_grid=h.t_grid, n_traj=h.n_traj,
            master_seed=config.run.seed, window=h.window, n_workers=1,
        )
        curve.write_csv(tmp_path / "ar5.csv")
        assert (tmp_path / "o" / "risk.csv").read_bytes() == (tmp_path / "ar5.csv").read_bytes()
        overrides[1] = "predictor.ar_order=2"
        res = run_cli(["risk", "-c", str(cfg), "--out", "gone", *overrides], tmp_path)
        assert res.returncode == 1, res.stderr
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config" and "predictor.ar_order" in err["message"]
        assert not (tmp_path / "gone").exists()

    def test_agnostic_runs(self, workdir):
        res = run_cli(
            ["agnostic", "-c", "risk.cfg", "--out", "ag", "harness.baselines=zero,ar1"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        header = (workdir / "ag" / "agnostic.csv").read_text().splitlines()[0]
        assert header == "t,excess_mean,excess_ci,raw_alg,raw_oracle"

    def test_biasvar_runs(self, workdir):
        res = run_cli(
            ["biasvar", "-c", "risk.cfg", "--out", "bv", "harness.ref_multiplier=3"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        header = (workdir / "bv" / "biasvar.csv").read_text().splitlines()[0]
        assert header == "t,bias,bias_ci,variance,variance_ci"

    def test_biasvar_splits_the_configured_learner(self, workdir):
        # predictor.kind picks the learner: AR(2) splits differently from the
        # spectral learner, and a linear predictor has no readout to split
        tables = {}
        for kind in ("spectral", "ar"):
            args = ["biasvar", "-c", "risk.cfg", "--out", kind, "harness.ref_multiplier=3"]
            res = run_cli([*args, f"predictor.kind={kind}", "predictor.m=2"], workdir)
            assert res.returncode == 0, res.stderr
            tables[kind] = (workdir / kind / "biasvar.csv").read_bytes()
        assert tables["ar"] != tables["spectral"]
        for kind in ("kalman", "kernel", "zero", "last_value"):
            args = ["biasvar", "-c", "risk.cfg", "--out", kind, f"predictor.kind={kind}"]
            res = run_cli(args, workdir)
            assert res.returncode == 3, res.stderr
            err = json.loads(res.stderr.strip().splitlines()[-1])
            assert err["error"] == "incompatible_pairing" and "needs a learner" in err["message"]
            assert not (workdir / kind / "manifest.txt").exists()

    @pytest.mark.parametrize("multiplier", ["0", "-1"])
    def test_biasvar_rejects_reference_multiplier_below_one(self, multiplier, workdir):
        args = ["biasvar", "-c", "risk.cfg", "--out", "bv", f"harness.ref_multiplier={multiplier}"]
        res = run_cli(args, workdir)
        assert res.returncode == 1, res.stderr
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config" and "ref_multiplier" in err["message"]
        assert not (workdir / "bv" / "biasvar.csv").exists()

    def test_thread_count_keeps_bytes(self, workdir):
        # -j is the one way to set the worker count, and it moves no output bit
        (workdir / "lor.cfg").write_text(
            "[system]\nkind = lorenz\nobs_stdev = 0.1\nx0_kind = stationary\nx0_points = 2\n"
            "[predictor]\nwindow = 20\nm = 4\n"
            "[harness]\nt_grid = 20,40\nn_traj = 5\noracle = zero\n"
        )
        for cfg in ("risk.cfg", "lor.cfg"):
            csvs = []
            for j in ("1", "3"):
                res = run_cli(["risk", "-c", cfg, "--out", f"r{j}", "-j", j], workdir)
                assert res.returncode == 0, res.stderr
                csvs.append((workdir / f"r{j}" / "risk.csv").read_bytes())
            assert csvs[0] == csvs[1]
        res = run_cli(["risk", "-c", "risk.cfg", "--out", "rt", "run.threads=2"], workdir)
        assert res.returncode == 1

    def test_usage_error_exits_one(self, tmp_path):
        res = run_cli(["frobnicate"], tmp_path)
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "command, override",
        [
            ("risk", "harness.oracle=bogus"),
            ("mstar", "harness.oracle=bogus"),
            ("risk", "predictor.kind=bogus"),
            ("risk", "system.kind=bogus"),
            ("risk", "system.x0_kind=bogus"),
            ("agnostic", "harness.baselines=bogus"),
        ],
    )
    def test_unknown_token_exits_one(self, command, override, tmp_path):
        cfg = REPO / "configs" / "scalar_lds.cfg"
        args = [command, "-c", str(cfg), "--out", "o", override, "harness.n_traj=4"]
        res = run_cli(args, tmp_path)
        assert res.returncode == 1, res.stderr
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "config" and "bogus" in err["message"]
        assert not (tmp_path / "o" / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "override",
        ["predictor.refit_period=0", "predictor.reg=-1", "predictor.reg=nan", "predictor.reg=inf"],
    )
    @pytest.mark.parametrize("command", ["risk", "mstar", "agnostic", "biasvar"])
    def test_bad_ridge_parameter_exits_two(self, command, override, tmp_path):
        # every learner arm builds the one streaming ridge, which checks both;
        # reg must lie in [0, inf): NaN would write NaN risks, inf zero every readout
        cfg = REPO / "configs" / "scalar_lds.cfg"
        args = [command, "-c", str(cfg), "--out", "o", override, "harness.n_traj=4"]
        res = run_cli(args, tmp_path)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == "contract_violation"
        assert not (tmp_path / "o" / "manifest.txt").exists()


class TestPerformanceBudgets:
    def test_long_simulation_under_budget(self, tmp_path):
        # horizon 1e5 at hidden dimension 20
        (tmp_path / "big.cfg").write_text(
            "[system]\na_random_psd = true\nd = 20\na_seed = 1\nc_random = true\n"
            "process_stdev = 0.1\nobs_stdev = 0.1\nx0_kind = fixed\n"
            "x0 = 0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n"
            "[harness]\nhorizon = 100000\n"
        )
        import time

        start = time.monotonic()
        res = run_cli(["simulate", "-c", "big.cfg", "--out", "big"], tmp_path)
        elapsed = time.monotonic() - start
        assert res.returncode == 0, res.stderr
        assert "rows=100000" in res.stdout
        assert elapsed < 5.0, f"simulate took {elapsed:.1f}s"

    def test_full_scalar_pipeline_under_two_minutes(self, tmp_path):
        import shutil
        import time
        from pathlib import Path

        cfg = Path(__file__).resolve().parent.parent / "configs" / "scalar_lds.cfg"
        shutil.copy(cfg, tmp_path / "scalar.cfg")
        start = time.monotonic()
        for step in (
            ["simulate", "-c", "scalar.cfg", "--out", "p"],
            ["risk", "-c", "scalar.cfg", "--out", "p"],
            ["burnin", "-c", "scalar.cfg", "--out", "p", "--curve", "p/risk.csv"],
        ):
            res = run_cli(step, tmp_path)
            assert res.returncode == 0, res.stderr
        elapsed = time.monotonic() - start
        assert (tmp_path / "p" / "burnin.csv").exists()
        assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


class TestThreads:
    def test_default_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        # under a cpuset or taskset the affinity set, not the host's CPU
        # count, bounds the workers a run without -j starts; no thread starts here
        from dynolearn import cli

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._threads(None) == 2
        assert (cli._threads(5), cli._threads(0)) == (5, 1)
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity sets
        assert cli._threads(None) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._threads(None) == 1


class TestImport:
    def test_cli_import_leaves_scipy_linalg_out(self):
        # scipy.linalg is most of the package's import time; only the Lyapunov
        # solve needs it, and it imports it itself
        code = "import sys, dynolearn.cli; print('scipy.linalg' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_geom_grid_config_leaves_numpy_ma_out(self):
        # np.unique imports numpy.ma, 9-19 ms of every CLI start; the grid is
        # deduplicated without it
        cfg = REPO / "configs" / "scalar_lds.cfg"
        code = (
            "import sys\n"
            "from dynolearn.config import load_config\n"
            f"assert len(load_config({str(cfg)!r}).harness.t_grid) > 2\n"
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
        )
        assert "geom(" in cfg.read_text()
        assert out.stdout.strip() == "False"

    def test_bias_variance_split_leaves_scipy_linalg_out(self):
        # the w* solve is a numpy Cholesky: biasvar on a ball grid needs no scipy
        code = (
            "import sys\n"
            "from dynolearn import InitPolicy, LdsSpec, NoiseSpec, SpectralPredictor,"
            " bias_variance_split, build_filter_bank\n"
            "spec = LdsSpec(A=[[0.9]], C=[[1.0]], noise=NoiseSpec(stdev_process=0.1,"
            " stdev_obs=0.1), init=InitPolicy(kind='ball_grid'))\n"
            "learner = SpectralPredictor(build_filter_bank(16, 4))\n"
            "rep = bias_variance_split(spec, learner, (20, 40), n_traj=4)\n"
            "assert rep.bias.shape == (2,)\n"
            "print('scipy.linalg' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
