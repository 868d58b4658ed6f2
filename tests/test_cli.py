import hashlib
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fundgrowth import cli

ONE_FUND_SCENARIO = """
# one-fund market at 18% annualised volatility on a trading-day clock
dim = 1
cov = 0.0324
prior_mean = 2.2222
prior_cov = 1.0
steps = 100
seed = 11
"""

TWO_FUND_SCENARIO = """
dim = 3
cov_preset = identity
f = 1,0; 0,1; 0.5,0.5
theta = 0.5, -0.2
dt = 0.25
steps = 60
seed = 17
drift_check_paths = 40000
"""

GOLDEN = Path(__file__).parent / "golden"
PANEL_FILES = ("portfolio.svg", "shrink_factor.svg", "wealth.svg", "quadratic_variation.svg",
               "panels.csv")

BACKTEST_SCENARIO = """
dim = 1
cov = 0.0324
nu = 2.2222
steps = 420
seed = 23
"""


def run(args):
    return cli.main(args)


class TestSimulate:
    def test_minimal_scenario(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(ONE_FUND_SCENARIO)
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "simulated.csv").read_text().strip().splitlines()
        assert lines[0] == "date,ret_1,rf"
        assert len(lines) == 101
        assert "realized quadratic variation" in capsys.readouterr().out

    def test_idempotent_bytes(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(ONE_FUND_SCENARIO)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", str(config), "--out", str(out_a)])
        run(["simulate", "--config", str(config), "--out", str(out_b)])
        assert (out_a / "simulated.csv").read_bytes() == (out_b / "simulated.csv").read_bytes()

    def test_fund_scenario_reports_residual_drift(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(TWO_FUND_SCENARIO)
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"residual drift: max \|z\| = ([0-9.]+)", out)
        assert match, out
        assert float(match.group(1)) <= 4.0

    def test_bad_scenario_value_is_usage_error(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(ONE_FUND_SCENARIO.replace("steps = 100", "steps = x"))
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, message", [
        (ONE_FUND_SCENARIO + "dt = -1\n", "dt must be positive and finite"),
        (ONE_FUND_SCENARIO + "dt = nan\n", "dt must be positive and finite"),
        (ONE_FUND_SCENARIO + "o_start = inf\n", "o_start finite"),
        (ONE_FUND_SCENARIO + "nu = 1.0, 2.0\n", "nu must be 1 finite value(s)"),
        (ONE_FUND_SCENARIO + "nu = nan\n", "nu must be 1 finite value(s)"),
        (ONE_FUND_SCENARIO.replace("2.2222", "2.2222, 1.0"), "prior_mean must be 1 finite"),
        (ONE_FUND_SCENARIO.replace("2.2222", "nan"), "prior_mean must be 1 finite"),
        (ONE_FUND_SCENARIO.replace("prior_cov = 1.0", "prior_cov = 1, 0; 0, 1"),
         "prior_cov has dim 2"),
        (TWO_FUND_SCENARIO.replace("f = 1,0; 0,1; 0.5,0.5", "f = 1,0; 0,1"),
         "f must be 3 x 2 finite value(s)"),
        (TWO_FUND_SCENARIO.replace("theta = 0.5, -0.2", "theta = 0.5"),
         "theta must be 2 finite value(s)"),
        (TWO_FUND_SCENARIO.replace("dim = 3", "dim = 0"), "dim must be positive"),
        ("dim = 1\ncov_preset = identity\nprior_mean = 0\nprior_cov = 1\n"
         "truncation_l = 40\ntruncation_r = 41\nsteps = 5\n", "no prior probability"),
        (ONE_FUND_SCENARIO.replace("seed = 11", "seed = -2"), "seed must be non-negative"),
        (TWO_FUND_SCENARIO.replace("= 40000", "= 1"), "drift_check_paths must be 0 (off) or"),
        (TWO_FUND_SCENARIO.replace("= 40000", "= -5"), "drift_check_paths must be 0 (off) or"),
    ], ids=["dt_negative", "dt_nan", "o_start_inf", "nu_size", "nu_nan", "prior_mean_size",
            "prior_mean_nan", "prior_cov_dim", "f_rows", "theta_size", "dim_zero",
            "truncation_no_mass", "seed_negative", "drift_paths_one", "drift_paths_negative"])
    def test_bad_scenario_value_is_config_error(self, tmp_path, capsys, text, message):
        config = tmp_path / "scenario.cfg"
        config.write_text(text)
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "simulated.csv").exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run(["simulate", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [["simulate", "--config", "scenario.cfg", "--out", "."],
                                     ["verify", "--checks", "cardano"]],
                         ids=["simulate", "verify"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text(ONE_FUND_SCENARIO)
    assert run(command + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed: must be non-negative, got -1" in captured.err
    assert captured.out == "" and not (tmp_path / "simulated.csv").exists()


class TestVerify:
    def test_default_sweep_passes(self, capsys):
        assert run(["verify", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_sabotage_fails_named_check(self, capsys):
        assert run(["verify", "--seed", "5", "--sabotage", "dis_fund_law"]) == 1
        captured = capsys.readouterr()
        assert "dis_fund_law" in captured.err

    @pytest.mark.parametrize("seed", [37, 58, 97, 191])
    def test_dis_fund_law_passes_where_k_equals_dim(self, seed):
        # these seeds draw ill-conditioned square combinations, which once
        # failed the K/2 comparison by round-off alone
        assert run(["verify", "--checks", "dis_fund_law", "--seed", str(seed)]) == 0

    def test_check_filter(self, capsys):
        assert run(["verify", "--checks", "error_reduction", "--instances", "500",
                    "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "error_reduction" in out
        assert "cardano" not in out

    def test_unknown_check_is_usage_error(self, capsys):
        assert run(["verify", "--checks", "bogus"]) == 2

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_instances_below_one_is_usage_error(self, capsys, instances):
        assert run(["verify", "--checks", "cardano", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert "--instances must be at least 1" in captured.err
        assert "pass" not in captured.out


class TestBacktestReport:
    @pytest.fixture()
    def backtest_csv(self, tmp_path):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 120\n")
        code = run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        return tmp_path / "backtest.csv"

    def test_pipeline_emits_panels(self, backtest_csv, tmp_path):
        assert run(["report", "--input", str(backtest_csv), "--out", str(tmp_path)]) == 0
        for name in ("portfolio", "shrink_factor", "wealth", "quadratic_variation"):
            svg = tmp_path / f"{name}.svg"
            assert svg.exists()
            ET.parse(svg)       # well-formed XML
        panels = (tmp_path / "panels.csv").read_text().strip().splitlines()
        header = panels[0].split(",")
        first = panels[1].split(",")
        for column in ("logW_market", "logW_nuhat", "logW_shrunk", "F"):
            assert float(first[header.index(column)]) == 0.0

    def test_report_idempotent(self, backtest_csv, tmp_path):
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        run(["report", "--input", str(backtest_csv), "--out", str(out_a)])
        run(["report", "--input", str(backtest_csv), "--out", str(out_b)])
        for name in PANEL_FILES:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_golden_report(self, tmp_path):
        # report.sha256 holds the digests of the report outputs on the golden
        # K = 3 backtest table; any change to their bytes fails here
        golden = GOLDEN / "k3_anchored"
        assert run(["report", "--input", str(golden / "backtest.csv"),
                    "--out", str(tmp_path)]) == 0
        want = dict(reversed(line.split()) for line in
                    (golden / "report.sha256").read_text().splitlines())
        assert sorted(want) == sorted(PANEL_FILES)
        for name, digest in want.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_report_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a\n2001-01-01,0.4\n")
        assert run(["report", "--input", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row, line", [
        ("2001-01-03,0.5,0.4,0.0,0.0,0.0,0.0,abc", 4),     # non-numeric cell
        ("2001-01-03,0.5,0.4,0.0", 4),                     # short row
        ("2001-01-03,0.5,0.4,0.0,0.0,0.0,0.0,1.0 # note", 4),   # no comments in a table
        ("\n2001-13-03,0.5,0.4,0.0,0.0,0.0,0.0,1.0", 5),   # bad date after a blank line
        ("2001-01-03,0.5,0.4,0.0,0.0,0.0,0.0,1.0,9.0", 4),     # long row
    ])
    def test_report_malformed_row_names_its_line(self, tmp_path, capsys, row, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n"
                       "2001-01-01,0.5,0.4,0.0,0.0,0.0,0.0,1.0\n"
                       "2001-01-02,0.5,0.4,0.0,0.0,0.0,0.0,1.0\n" + row + "\n")
        assert run(["report", "--input", str(bad), "--out", str(tmp_path)]) == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_report_all_nan_is_empty_range(self, tmp_path, capsys):
        nan = tmp_path / "nan.csv"
        nan.write_text("date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n"
                       + "".join(f"2001-01-0{d},nan,nan,nan,nan,nan,nan,nan\n" for d in (1, 2)))
        assert run(["report", "--input", str(nan), "--out", str(tmp_path)]) == 2
        assert "no finite values" in capsys.readouterr().err

    def test_report_unscalable_span_leaves_no_partial_svg(self, tmp_path, capsys):
        # c_11 spans more than a double can hold, so the last panel is refused
        huge = tmp_path / "huge.csv"
        huge.write_text("date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n"
                        "2001-01-01,0.5,0.4,0.0,0.0,0.0,0.0,1e308\n"
                        "2001-01-02,0.5,0.4,0.0,0.0,0.0,0.0,-1e308\n")
        out = tmp_path / "out"
        assert run(["report", "--input", str(huge), "--out", str(out)]) == 2
        assert "no range a chart can scale" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == [
            "panels.csv", "portfolio.svg", "shrink_factor.svg", "wealth.svg"]

    def test_report_empty_range(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n")
        assert run(["report", "--input", str(empty), "--out", str(tmp_path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text("nonsense = 1\n")
        assert run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", ["burn_in_days = abc\n",
                                      "burn_in_days = 20\nburn_in_days = 30\n"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text(text)
        assert run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "line " in capsys.readouterr().err

    def test_indefinite_kappa0_is_config_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text("prior = anchored\nburn_in_days = 0\nnu0 = 0.5\nkappa0 = -1\n")
        assert run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "kappa0 must be positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("truncation_l = 1.0\ntruncation_r = 0.0", "truncation interval (1.0, 0.0) is empty"),
        ("truncation_l = nan", "truncation interval (nan, inf) is empty"),
        ("force_a = nan", "force_a must lie in [0, 1]"),
        ("force_a = 2.5", "force_a must lie in [0, 1]"),
        ("force_nu_hat = nan", "force_nu_hat must be finite"),
        ("prior = anchored\nnu0 = nan\nkappa0 = 5.0", "nu0 must be finite"),
        ("prior = anchored\nnu0 = 0.5, 0.5\nkappa0 = 5.0", "nu0 and kappa0 must be of size 1"),
    ], ids=["truncation_empty", "truncation_nan", "force_a_nan", "force_a_above_one",
            "force_nu_hat_nan", "nu0_nan", "nu0_size"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, text, message):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 120\n" + text + "\n")
        assert run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "backtest.csv").exists()

    def test_singular_c_leaves_no_backtest_csv(self, tmp_path, capsys):
        # one return of 1e5 in both funds after burn-in: lambda_min / lambda_max < PD_RTOL
        rets = 4e-4 + 0.012 * np.random.default_rng(63).standard_normal((50, 2))
        rets[40] = 1e5
        returns = tmp_path / "returns.csv"
        returns.write_text("date,ret_1,ret_2,rf\n" + "".join(
            f"2001-{1 + i // 28:02d}-{1 + i % 28:02d},{r1!r},{r2!r},0.0\n"
            for i, (r1, r2) in enumerate(rets.tolist())))
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 20\n")
        out = tmp_path / "out"
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(out)]) == 2
        assert "not positive definite" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_too_many_funds_is_config_error(self, tmp_path, capsys):
        # the output names c_1111 twice from K = 111 on; refused before the engine
        # runs, which would find C singular after one burn-in day
        header = "date," + ",".join(f"ret_{j}" for j in range(1, 112)) + ",rf\n"
        returns = tmp_path / "returns.csv"
        returns.write_text(header + "".join(f"2001-01-0{d}" + ",0.01" * 111 + ",0.0\n"
                                            for d in (1, 2, 3)))
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 1\n")
        out = tmp_path / "out"
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "repeated output column names ['c_1111']" in err
        assert not out.exists()

    def test_backtest_deterministic_bytes(self, tmp_path):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(BACKTEST_SCENARIO)
        run(["simulate", "--config", str(scenario), "--out", str(tmp_path)])
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 120\n")
        out_a, out_b = tmp_path / "ba", tmp_path / "bb"
        for out in (out_a, out_b):
            run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                 "--config", str(config), "--out", str(out)])
        assert (out_a / "backtest.csv").read_bytes() == (out_b / "backtest.csv").read_bytes()


def test_import_loads_no_scipy():
    # numpy is the only run-time dependency; scipy serves the tests' oracles
    code = ("import sys, fundgrowth, fundgrowth.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
