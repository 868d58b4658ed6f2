import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fundgrowth import cli, tableio

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

# a scenario with a fixed portfolio and no prior keys
NU_SCENARIO = """
dim = 1
cov = 0.0324
nu = 2
steps = 50
seed = 3
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


def upper_tail_returns() -> str:
    """A one-fund returns file of 400 days of 0.01 N(0, 1) returns."""
    rets = 0.01 * np.random.default_rng(0).standard_normal(400)
    return "date,ret_1,rf\n" + "".join(
        f"{np.datetime64('2001-01-01') + i},{r!r},0.0\n" for i, r in enumerate(rets.tolist()))


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

    @pytest.mark.parametrize("lower", [0.0, 9.0], ids=["rejection", "inverse_cdf"])
    def test_a_truncated_prior_gives_the_same_bytes(self, tmp_path, lower):
        config = tmp_path / "scenario.cfg"
        config.write_text("dim = 1\ncov_preset = us_one_fund\nprior_mean = 0\nprior_cov = 1\n"
                          f"truncation_l = {lower}\nsteps = 50\n")
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "simulated.csv").read_bytes())
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 51

    def test_fund_scenario_reports_residual_drift(self, tmp_path, capsys):
        config = tmp_path / "scenario.cfg"
        config.write_text(TWO_FUND_SCENARIO)
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        match = re.search(r"residual drift: max \|z\| = ([0-9.]+)", out)
        assert match, out
        assert float(match.group(1)) <= 4.0

    @pytest.mark.parametrize("text, summary", [
        (ONE_FUND_SCENARIO,
         ["realized quadratic variation: relative error 1.629e-01 over 100 steps"]),
        (TWO_FUND_SCENARIO,
         ["realized quadratic variation: relative error 2.185e-01 over 60 steps",
          "residual drift: max |z| = 0.58 over 40000 paths (2 fund(s), 3 assets)"]),
    ], ids=["one_fund", "two_fund"])
    def test_summary_lines_are_pinned(self, tmp_path, capsys, text, summary):
        config = tmp_path / "scenario.cfg"
        config.write_text(text)
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == summary

    @pytest.mark.parametrize("flag, seed", [([], 0), (["--seed", "7"], 7)],
                             ids=["scenario_default", "flag"])
    def test_the_seed_is_the_flag_else_the_scenario_key(self, tmp_path, capsys, flag, seed):
        config = tmp_path / "scenario.cfg"
        config.write_text("dim = 1\ncov = 0.0324\nnu = 2\nsteps = 50\n")     # no seed key
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)] + flag) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f" dim=1 seed={seed}")

    def test_bad_scenario_value_is_usage_error(self, tmp_path):
        config = tmp_path / "scenario.cfg"
        config.write_text(ONE_FUND_SCENARIO.replace("steps = 100", "steps = x"))
        assert run(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, message", [
        (ONE_FUND_SCENARIO + "dt = -1\n", "dt must be positive and finite"),
        (ONE_FUND_SCENARIO + "dt = nan\n", "dt must be positive and finite"),
        (ONE_FUND_SCENARIO + "o_start = 0\n", "unknown scenario key 'o_start'"),
        (NU_SCENARIO.replace("nu = 2", "nu = 1.0, 2.0"), "nu must be 1 finite value(s)"),
        (NU_SCENARIO.replace("nu = 2", "nu = nan"), "nu must be 1 finite value(s)"),
        (ONE_FUND_SCENARIO.replace("2.2222", "2.2222, 1.0"), "prior_mean must be 1 finite"),
        (ONE_FUND_SCENARIO.replace("2.2222", "nan"), "prior_mean must be 1 finite"),
        (ONE_FUND_SCENARIO.replace("prior_cov = 1.0", "prior_cov = 1, 0; 0, 1"),
         "prior_cov has dim 2"),
        (TWO_FUND_SCENARIO.replace("f = 1,0; 0,1; 0.5,0.5", "f = 1,0; 0,1"),
         "f must be 3 x 2 finite value(s)"),
        (TWO_FUND_SCENARIO.replace("f = 1,0; 0,1; 0.5,0.5", "f = ;"), "f must be 3 x"),
        (TWO_FUND_SCENARIO.replace("theta = 0.5, -0.2", "theta = 0.5"),
         "theta must be 2 finite value(s)"),
        (TWO_FUND_SCENARIO.replace("dim = 3", "dim = 0"), "dim must be positive"),
        ("dim = 1\ncov_preset = identity\nprior_mean = 0\nprior_cov = 1\n"
         "truncation_l = 40\ntruncation_r = 41\nsteps = 5\n", "no prior probability"),
        ("dim = 1\ncov_preset = identity\nprior_mean = 0\nprior_cov = 0\n"
         "truncation_l = 1\ntruncation_r = 2\nsteps = 5\n", "no prior probability"),
        ("dim = 2\ncov_preset = identity\nprior_mean = 2, 2\nprior_cov = 1, 0; 0, 1\n"
         "truncation_l = 0\nsteps = 5\n", "truncation interval requires dimension one"),
        (ONE_FUND_SCENARIO.replace("seed = 11", "seed = -2"), "seed must be non-negative"),
        (TWO_FUND_SCENARIO.replace("= 40000", "= 1"), "drift_check_paths must be 0 (off) or"),
        (TWO_FUND_SCENARIO.replace("= 40000", "= -5"), "drift_check_paths must be 0 (off) or"),
        (ONE_FUND_SCENARIO + "theta = nan\n", "declares both 'f' and 'theta'"),
        (TWO_FUND_SCENARIO + "nu = 1, 2, 3\n", "it declares no 'nu'"),
        (TWO_FUND_SCENARIO.replace("= identity", "= bogus\ncov = 1, 0, 0; 0, 1, 0; 0, 0, 1"),
         "one of 'cov' and 'cov_preset'"),
        (NU_SCENARIO + "prior_mean = 7\n", "prior_mean set beside nu"),
        (NU_SCENARIO + "truncation_l = 0\nprior_cov = 4\n",
         "prior_cov, truncation_l set beside nu"),
        (TWO_FUND_SCENARIO + "truncation_r = 1\n", "truncation_r set beside f"),
        (NU_SCENARIO + "drift_check_paths = 1000000\n", "drift_check_paths set without f"),
        (ONE_FUND_SCENARIO + "drift_check_paths = 0\n", "drift_check_paths set without f"),
        (NU_SCENARIO + "dt = 1e308\n", "dt * steps must be finite"),
        (NU_SCENARIO.replace("cov = 0.0324", "cov = 1e308").replace("nu = 2", "nu = 1e10"),
         "the simulated path overflows double precision"),
        (TWO_FUND_SCENARIO.replace("theta = 0.5, -0.2", "theta = 1e200, 1e200")
         .replace("f = 1,0", "f = 1e200,0"), "the simulated path overflows double precision"),
    ], ids=["dt_negative", "dt_nan", "o_start_unknown", "nu_size", "nu_nan", "prior_mean_size",
            "prior_mean_nan", "prior_cov_dim", "f_rows", "f_no_rows", "theta_size", "dim_zero",
            "truncation_no_mass", "truncation_point_prior", "truncation_dim_two",
            "seed_negative", "drift_paths_one",
            "drift_paths_negative", "theta_without_f", "nu_with_f", "cov_with_cov_preset",
            "prior_mean_with_nu", "truncation_with_nu", "truncation_with_f", "drift_paths_with_nu",
            "drift_paths_with_prior", "clock_overflows", "path_overflows",
            "fund_nu_overflows"])
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


def test_steps_past_the_last_date_are_a_usage_error(tmp_path, capsys):
    # the dates of 2,948,423 steps from 1927-07-01 would run past 9999-12-31
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("dim = 1\ncov = 0.0324\nsteps = 2948423\n")
    assert run(["simulate", "--config", str(scenario), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: steps must be at most 2948422, got 2948423\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


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

    def test_no_convergence_exits_with_code_2(self, monkeypatch, capsys):
        monkeypatch.setattr("fundgrowth.shrinkage.MAX_ITERATIONS", 1)
        assert run(["verify", "--checks", "shrink_fixed_point", "--instances", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: fixed point not reached after 1 iterations\n"

    def test_unknown_check_is_usage_error(self, capsys):
        assert run(["verify", "--checks", "bogus"]) == 2

    @pytest.mark.parametrize("checks", [",", " ", ""])
    def test_checks_that_name_no_check_are_a_usage_error(self, capsys, checks):
        assert run(["verify", "--checks", checks]) == 2
        assert capsys.readouterr() == ("", "error: no check named\n")

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

    def test_golden_k30_report(self, tmp_path):
        # report.sha256 holds the digests of the report outputs on the golden
        # K = 30 backtest table, whose 135 rows of 501 cells report reads in three
        # blocks; any change to their bytes fails here
        golden = GOLDEN / "k30_blocks"
        lines = (golden / "backtest.csv").read_text().splitlines()
        assert len(lines) == 136 and len(lines[0].split(",")) == 501
        assert 2 * tableio.block_rows(501) < 135 <= 3 * tableio.block_rows(501)
        assert run(["report", "--input", str(golden / "backtest.csv"),
                    "--out", str(tmp_path)]) == 0
        want = dict(reversed(line.split()) for line in
                    (golden / "report.sha256").read_text().splitlines())
        assert sorted(want) == sorted(PANEL_FILES)
        for name, digest in want.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_report_writes_utf8_in_a_c_locale(self, backtest_csv, tmp_path):
        # report copies a date cell verbatim, a no-break space before it included
        lines = backtest_csv.read_text().splitlines(keepends=True)
        table = tmp_path / "nbsp.csv"
        table.write_text("".join([lines[0], "\u00a0" + lines[1]] + lines[2:]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0")
        panels = []
        for utf8_mode in ("0", "1"):
            out = tmp_path / f"utf8_mode_{utf8_mode}"
            done = subprocess.run([sys.executable, "-m", "fundgrowth.cli", "report",
                                   "--input", str(table), "--out", str(out)],
                                  env=dict(env, PYTHONUTF8=utf8_mode), capture_output=True,
                                  text=True)
            assert done.returncode == 0, done.stderr
            panels.append((out / "panels.csv").read_bytes())
        assert panels[0] == panels[1]
        assert panels[0].splitlines()[1].startswith("\u00a0".encode("utf-8"))

    @staticmethod
    def with_column(backtest_csv, tmp_path, name):
        """``backtest_csv`` with one more column, ``name``, of 1.5 in every row."""
        lines = backtest_csv.read_text().splitlines()
        table = tmp_path / "more.csv"
        table.write_text(f"{lines[0]},{name}\n" + "".join(f"{line},1.5\n" for line in lines[1:]))
        return table

    @pytest.mark.parametrize("name", ["c_<&>", "c_&amp;", "c_]]>", "c_\u00e9\U0001f600"])
    def test_report_svgs_parse_with_markup_in_a_column_name(self, backtest_csv, tmp_path, name):
        table = self.with_column(backtest_csv, tmp_path, name)
        out = tmp_path / "out"
        assert run(["report", "--input", str(table), "--out", str(out)]) == 0
        for svg in PANEL_FILES[:4]:
            ET.parse(out / svg)
        labels = [element.text for element in ET.parse(out / "quadratic_variation.svg").iter()
                  if element.tag.endswith("text")]
        assert name in labels
        assert name in (out / "panels.csv").read_text().splitlines()[0].split(",")

    @pytest.mark.parametrize("name", ["c_\x01", "c_\x1f", "c_\ufffe"])
    def test_report_rejects_a_column_name_xml_forbids(self, backtest_csv, tmp_path, capsys,
                                                      name):
        table = self.with_column(backtest_csv, tmp_path, name)
        out = tmp_path / "out"
        assert run(["report", "--input", str(table), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: header names")
        assert not out.exists()

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

    def test_report_subnormal_span_is_input_error(self, tmp_path, capsys):
        # c_11 spans one subnormal, whose fifth, the tick step, underflows to 0
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n"
                        "2001-01-01,0.5,0.4,0.0,0.0,0.0,0.0,0.0\n"
                        "2001-01-02,0.5,0.4,0.0,0.0,0.0,0.0,5e-324\n")
        out = tmp_path / "out"
        assert run(["report", "--input", str(tiny), "--out", str(out)]) == 2
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
        config.write_text("burn_in_days = 0\nnu0 = 0.5\nkappa0 = -1\n")
        assert run(["backtest", "--input", str(tmp_path / "simulated.csv"),
                    "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "kappa0 must be positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("truncation_l = 1.0\ntruncation_r = 0.0", "truncation interval (1.0, 0.0) is empty"),
        ("truncation_l = nan", "truncation interval (nan, inf) is empty"),
        ("force_a = nan", "force_a must lie in [0, 1]"),
        ("force_a = 2.5", "force_a must lie in [0, 1]"),
        ("force_nu_hat = nan", "force_nu_hat must be finite"),
        ("nu0 = nan\nkappa0 = 5.0", "nu0 must be finite"),
        ("nu0 = 0.5, 0.5\nkappa0 = 5.0", "nu0 and kappa0 must be of size 1"),
        ("prior = anchored\nnu0 = 0.5\nkappa0 = 5.0", "unknown config key 'prior'"),
        ("nu0 = 0.5", "anchored prior needs nu0 and kappa0"),
        ("kappa0 = 5.0", "anchored prior needs nu0 and kappa0"),
    ], ids=["truncation_empty", "truncation_nan", "force_a_nan", "force_a_above_one",
            "force_nu_hat_nan", "nu0_nan", "nu0_size", "prior_key", "nu0_alone", "kappa0_alone"])
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

    @pytest.mark.parametrize("lower", [36.0, 60.0])
    def test_an_upper_tail_truncation_is_solved(self, tmp_path, lower):
        # after 200 days of returns near 0 the interval lies far above the posterior mean,
        # where the CDF has saturated: the mean fell below the interval and kappa below 0
        returns = tmp_path / "returns.csv"
        returns.write_text(upper_tail_returns())
        config = tmp_path / "bt.cfg"
        config.write_text(f"burn_in_days = 200\ntruncation_l = {lower}\n")
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "backtest.csv").read_text().splitlines()
        nu_hat = [float(row.split(",")[header.split(",").index("nu_hat_1")]) for row in rows]
        assert len(nu_hat) == 200 and min(nu_hat) > lower

    @pytest.mark.parametrize("lower, upper", [(0.0, 1e-8), (1000.0, math.inf)])
    def test_a_narrow_or_far_truncation_is_solved(self, tmp_path, lower, upper):
        # (0, 1e-8) is narrow against the posterior scale; 1000 lies 136-200 sd above R/C
        returns = tmp_path / "returns.csv"
        returns.write_text(upper_tail_returns())
        config = tmp_path / "bt.cfg"
        config.write_text(f"burn_in_days = 200\ntruncation_l = {lower}\ntruncation_r = {upper}\n")
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "backtest.csv").read_text().splitlines()
        nu_hat = [float(row.split(",")[header.split(",").index("nu_hat_1")]) for row in rows]
        assert len(nu_hat) == 200 and all(lower < nu < upper for nu in nu_hat)

    def test_an_interval_without_posterior_variance_is_config_error(self, tmp_path, capsys):
        returns = tmp_path / "returns.csv"
        returns.write_text(upper_tail_returns())
        config = tmp_path / "bt.cfg"
        config.write_text("burn_in_days = 200\ntruncation_l = 0\ntruncation_r = 1e-300\n")
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(tmp_path / "out")]) == 2
        assert "interval (0.0, 1e-300)" in capsys.readouterr().err

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


REPORT_HEADER = b"date,nu_hat_1,a,F,logW_market,logW_nuhat,logW_shrunk,c_11\n"


@pytest.mark.parametrize("command, text", [
    (["simulate", "--config", "bad"], b"dim = 1\ncov = 0.0324\xff\n"),
    (["backtest", "--input", "bad"], b"date,ret_1,rf\xff\n2001-01-01,0.01,0.0\n"),
    (["backtest", "--input", "returns.csv", "--config", "bad"], b"burn_in_days = 1\xff\n"),
    (["backtest", "--input", "returns.csv", "--config", "bad"], b"drop_policy\xff = skip\n"),
    (["report", "--input", "bad"], REPORT_HEADER + b"2001-01-01,0.5,0.4,0.0,0.0,0.0,0.0,1\xff\n"),
    (["report", "--input", "bad"], REPORT_HEADER.replace(b"\n", b",c_\xff\n")
     + b"2001-01-01,0.5,0.4,0.0,0.0,0.0,0.0,1,2\n"),
], ids=["simulate-config", "backtest-header", "backtest-config-value", "backtest-config-key",
        "report-row", "report-header"])
def test_non_utf8_input_is_usage_error(tmp_path, monkeypatch, capsys, command, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "returns.csv").write_text("date,ret_1,rf\n2001-01-01,0.01,0.0\n")
    (tmp_path / "bad").write_bytes(text)
    assert run(command + ["--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line ") and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_non_utf8_row_is_dropped_and_counted(tmp_path, capsys):
    rows = [f"2001-{1 + i // 28:02d}-{1 + i % 28:02d},{(-1) ** i * 0.01},0.0\n" for i in range(336)]
    rows[100] = rows[100].replace("0.01", "0.0\udcff1")      # line 102
    returns = tmp_path / "returns.csv"
    returns.write_bytes(("date,ret_1,rf\n" + "".join(rows)).encode("utf-8", "surrogateescape"))
    config = tmp_path / "bt.cfg"
    config.write_text("burn_in_days = 10\n")
    with pytest.warns(UserWarning, match="dropped 1 "):
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(tmp_path)]) == 0
    assert "read 336 rows (1 dropped)" in capsys.readouterr().out
    config.write_text("burn_in_days = 10\ndrop_policy = error\n")
    assert run(["backtest", "--input", str(returns), "--config", str(config),
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 102: ")


def test_a_byte_order_mark_starts_no_name(tmp_path, capsys):
    # Excel's "CSV UTF-8" and Notepad write one in front of every file
    outputs = []
    for mark in ("", "\ufeff"):
        out = tmp_path / f"out{len(mark)}"
        scenario, config = tmp_path / f"scenario{len(mark)}.cfg", tmp_path / f"bt{len(mark)}.cfg"
        scenario.write_text(mark + BACKTEST_SCENARIO.lstrip(), encoding="utf-8")
        config.write_text(mark + "burn_in_days = 120\n", encoding="utf-8")
        assert run(["simulate", "--config", str(scenario), "--out", str(out)]) == 0
        returns = out / "simulated.csv"
        returns.write_text(mark + returns.read_text(encoding="utf-8"), encoding="utf-8")
        assert run(["backtest", "--input", str(returns), "--config", str(config),
                    "--out", str(out)]) == 0
        assert "read 420 rows (0 dropped)" in capsys.readouterr().out
        assert run(["report", "--input", str(out / "backtest.csv"), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("backtest.csv", *PANEL_FILES)])
    assert outputs[0] == outputs[1]
    (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + outputs[0][0])
    assert run(["report", "--input", str(tmp_path / "marked.csv"), "--out", str(tmp_path)]) == 0
    assert [(tmp_path / name).read_bytes() for name in PANEL_FILES] == outputs[0][1:]


def test_import_loads_no_scipy():
    # numpy is the only run-time dependency; scipy serves the tests' oracles
    code = ("import sys, fundgrowth, fundgrowth.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_a_wiped_out_row_is_counted_next_to_the_floored_steps(tmp_path, capsys):
    rows = [f"2001-{1 + i // 28:02d}-{1 + i % 28:02d},{(-1) ** i * 0.01},0.0\n" for i in range(60)]
    rows[41] = rows[41].replace("0.01", "1.5")       # a return of -150%
    returns = tmp_path / "returns.csv"
    returns.write_text("date,ret_1,rf\n" + "".join(rows))
    config = tmp_path / "bt.cfg"
    config.write_text("burn_in_days = 10\n")
    assert run(["backtest", "--input", str(returns), "--config", str(config),
                "--out", str(tmp_path)]) == 0
    assert re.search(r" floored_steps=[1-9][0-9]* rows_wiped_out=1\n\Z", capsys.readouterr().out)
