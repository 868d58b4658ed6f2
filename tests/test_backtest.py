import dataclasses
import datetime
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fundgrowth import tableio
from fundgrowth.backtest import (
    BacktestConfig,
    ReturnSeries,
    backtest_blocks,
    ingest_csv,
    parse_backtest_config,
    read_backtest_csv,
    run_backtest,
    write_backtest_csv,
)
from fundgrowth.errors import (
    ConfigError,
    EmptySeries,
    InsufficientBurnIn,
    MissingColumns,
    NonMonotoneDates,
    ParseError,
)
from fundgrowth.filtering import truncated_posterior_1d
from fundgrowth.marketsim import build_fund_model, simulate_path, uniform_clock
from fundgrowth.psd import CovMatrix
from posterior_columns import kappa, with_posterior

US_LIKE_DAILY_V  = 0.18 ** 2 / 252.0          # 18% annualised volatility
US_LIKE_NU = 0.4 / 0.18                        # Sharpe 0.4


def make_series(returns, rf=None, start=datetime.date(1990, 1, 2)):
    returns = np.asarray(returns, dtype=float)
    if returns.ndim == 1:
        returns = returns[:, None]
    n = returns.shape[0]
    dates = tuple(start + datetime.timedelta(days=i) for i in range(n))
    rf = np.zeros(n) if rf is None else np.asarray(rf, dtype=float)
    return ReturnSeries(dates=dates, fund_returns=returns, risk_free=rf)


def simulated_series(n, seed, nu=US_LIKE_NU, daily_var=US_LIKE_DAILY_V):
    c = CovMatrix([[daily_var * 252.0]])
    path = simulate_path([nu], c, uniform_clock(n), seed=seed)
    return make_series(path.increments)


def write_csv(tmp_path, text, name="returns.csv"):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


# Ingest cases on a two-fund file: (text, rows read, rows dropped under 'skip', the
# kept (date, ret_1, ret_2, rf) rows, the ParseError line under 'error' or None, and
# its message after "line N: ", if checked).
HEADER2 = "date,ret_1,ret_2,rf\n"
ROW1, ROW3 = "2001-01-01,0.01,0.02,0.0005", "2001-01-03,0.03,0.04,0.001"
KEPT13 = [("2001-01-01", 0.01, 0.02, 0.0005), ("2001-01-03", 0.03, 0.04, 0.001)]


def between(row, case_id, message=None):
    """A bad ``row`` on line 3, between two good ones."""
    return pytest.param(f"{HEADER2}{ROW1}\n{row}\n{ROW3}\n", 3, 1, KEPT13, 3, message,
                        id=case_id)


def with_cell(column, cell):
    cells = ["0.01", "0.02", "0.0"]
    cells[column] = cell
    return "2001-01-02," + ",".join(cells)


INGEST_CASES = [
    between("2001-01-02,0.01,0.0", "short-row"),
    between("2001-01-02,0.01,0.02,0.0,0.5", "long-row"),
    between("2001-01-02,,0.02,0.0", "blank-ret_1"),
    between("2001-01-02,0.01, ,0.0", "blank-ret_2"),
    between("2001-02-30,0.01,0.02,0.0", "bad-date"),
    between("2001-01-02,0.01,abc,0.0", "bad-number"),
    between("2001-01-02,0.01,0.02,x", "bad-rf"),
    *[between(with_cell(column, cell), f"{cell}-in-{name}")
      for column, name in enumerate(["ret_1", "ret_2", "rf"])
      for cell in ["nan", "inf", "-inf"]],
    # the number grammar of every other column: float() alone takes these
    *[between(with_cell(2, cell), f"{name}-rf",
              f"could not convert string {cell!r} to float64 in column 'rf'")
      for cell, name in [("1_0", "separator"), ("\uff10.\uff15", "full-width"),
                         ('"0.01"', "quoted")]],
    pytest.param(f"{HEADER2}2001-01-01,0.01,0.02,\n{ROW3}\n", 2, 0,
                 [("2001-01-01", 0.01, 0.02, 0.0), KEPT13[1]], None, None,
                 id="blank-rf-first-row"),
    pytest.param(f"{HEADER2}2001-01-01,x,0.02,0.0007\n2001-01-02,0.01,0.02,\n{ROW3}\n", 3, 1,
                 [("2001-01-02", 0.01, 0.02, 0.0), KEPT13[1]], 2, None,
                 id="blank-rf-first-kept-row"),
    *[pytest.param(f"{HEADER2}{ROW1}\n2001-01-02,0.05,0.06,{blank}\n{ROW3}\n", 3, 0,
                   [KEPT13[0], ("2001-01-02", 0.05, 0.06, 0.0005), KEPT13[1]], None, None,
                   id=f"{name}-rf-filled")
      for blank, name in [(" \t", "whitespace"), ("\u00a0", "no-break-space"),
                          ("\u3000", "ideographic-space")]],
    pytest.param(f"{HEADER2}{ROW1}\n\n \t\n2001-01-02,0.01\n{ROW3}\n", 3, 1, KEPT13, 5, None,
                 id="blank-and-whitespace-lines"),
    pytest.param("date,ret_1,ret_2,rf\r\n" + ROW1 + "\r\n2001-01-02,abc,0.04,0.001\r\n"
                 "2001-01-03,0.05,0.06,", 3, 1,
                 [KEPT13[0], ("2001-01-03", 0.05, 0.06, 0.0005)], 3, None,
                 id="crlf-no-final-newline"),
    pytest.param(" date , ret_1,ret_2 ,\trf \n 2001-01-01 ,0.01,0.02,0.0005\n"
                 "\t2001-01-03, 0.03 ,0.04,0.001\n", 2, 0, KEPT13, None, None,
                 id="blanks-around-names-and-dates"),
    pytest.param(f"{HEADER2}2001-01-03,0.05,0.06,\n2001-01-01,0.01,0.02,\n"
                 "2001-01-02,0.03,0.04,0.0002\n", 3, 0,
                 [("2001-01-01", 0.01, 0.02, 0.0), ("2001-01-02", 0.03, 0.04, 0.0002),
                  ("2001-01-03", 0.05, 0.06, 0.0002)], None, None,
                 id="unsorted-rf-filled-after-sort"),
    pytest.param(f"{HEADER2}{ROW1}\n2001-01-02,nan,0.02,0.0\n2001-01-03,0.01\n"
                 "2001-01-04,0.03,0.04,0.001\n", 4, 2,
                 [KEPT13[0], ("2001-01-04", 0.03, 0.04, 0.001)], 3, None,
                 id="non-finite-then-short"),
    pytest.param(f"{HEADER2}{ROW1}\n2001-01-02,0.01\n2001-01-03,0.01,inf,0.0\n"
                 "2001-01-04,0.03,0.04,0.001\n", 4, 2,
                 [KEPT13[0], ("2001-01-04", 0.03, 0.04, 0.001)], 3, None,
                 id="short-then-non-finite"),
]


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n"
            "2001-01-01,0.01,0.0001\n"
            "2001-01-02,-0.02,0.0001\n"
            "2001-01-03,0.005,0.0002\n",
        )
        result = ingest_csv(path)
        assert result.series.n == 3 and result.rows_dropped == 0
        np.testing.assert_allclose(result.series.fund_returns[:, 0], [0.01, -0.02, 0.005])

    def test_malformed_row_skipped_with_warning(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-01,0.01,0.0\nnot-a-date,0.02,0.0\n2001-01-03,0.03,0.0\n",
        )
        with pytest.warns(UserWarning, match="dropped 1"):
            result = ingest_csv(path, drop_policy="skip")
        assert result.series.n == 2 and result.rows_dropped == 1

    def test_malformed_row_raises_under_error_policy(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-01,0.01,0.0\nnot-a-date,0.02,0.0\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path, drop_policy="error")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_skipped(self, tmp_path, cell):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-01,0.01,0.0\n"
            f"2001-01-02,{cell},0.0\n2001-01-03,0.02,{cell}\n2001-01-04,0.03,0.0\n",
        )
        with pytest.warns(UserWarning, match="dropped 2"):
            result = ingest_csv(path, drop_policy="skip")
        assert result.rows_read == 4 and result.rows_dropped == 2
        np.testing.assert_array_equal(result.series.fund_returns[:, 0], [0.01, 0.03])

    def test_a_return_of_minus_100_percent_or_less_is_counted(self, tmp_path):
        path = write_csv(tmp_path, "date,ret_1,ret_2,rf\n2001-01-01,0.01,-0.5,0.0\n"
                                   "2001-01-02,0.02,-1.0,0.0\n2001-01-03,-1.5,-1.25,0.0\n"
                                   "2001-01-04,-0.99,0.0,0.0\n")
        result = ingest_csv(path, drop_policy="error")
        assert (result.rows_read, result.rows_dropped, result.rows_wiped_out) == (4, 0, 2)
        assert result.series.n == 4

    @pytest.mark.parametrize("row", ["2001-01-02,nan,0.0", "2001-01-02,0.02,inf"])
    def test_non_finite_cell_raises_under_error_policy(self, tmp_path, row):
        path = write_csv(tmp_path, f"date,ret_1,rf\n2001-01-01,0.01,0.0\n{row}\n")
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            ingest_csv(path, drop_policy="error")
        assert excinfo.value.line == 3

    def test_header_mismatch(self, tmp_path):
        path = write_csv(tmp_path, "day,r1,rf\n2001-01-01,0.01,0.0\n")
        with pytest.raises(ParseError):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptySeries):
            ingest_csv(write_csv(tmp_path, "date,ret_1,rf\n"))

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-01,0.01,0.0\n2001-01-01,0.02,0.0\n",
        )
        with pytest.raises(NonMonotoneDates):
            ingest_csv(path)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-03,0.03,0.0\n2001-01-01,0.01,0.0\n2001-01-02,0.02,0.0\n",
        )
        series = ingest_csv(path).series
        np.testing.assert_allclose(series.fund_returns[:, 0], [0.01, 0.02, 0.03])

    def test_risk_free_forward_filled(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ret_1,rf\n2001-01-01,0.01,0.0002\n2001-01-02,0.02,\n2001-01-03,0.03,0.0004\n",
        )
        series = ingest_csv(path).series
        np.testing.assert_allclose(series.risk_free, [0.0002, 0.0002, 0.0004])

    @pytest.mark.parametrize("text, read, dropped, kept, line, message", INGEST_CASES)
    def test_case_under_skip(self, tmp_path, text, read, dropped, kept, line, message):
        path = write_csv(tmp_path, text, name="case.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = ingest_csv(path, drop_policy="skip")
        assert [str(w.message) for w in caught] == (
            [f"{path}: dropped {dropped} malformed row(s)"] if dropped else [])
        assert (result.rows_read, result.rows_dropped) == (read, dropped)
        series = result.series
        assert series.dates == tuple(datetime.date.fromisoformat(row[0]) for row in kept)
        want = np.array([row[1:] for row in kept], dtype=float)
        got = np.column_stack([series.fund_returns, series.risk_free])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, read, dropped, kept, line, message", INGEST_CASES)
    def test_case_under_error(self, tmp_path, text, read, dropped, kept, line, message):
        path = write_csv(tmp_path, text, name="case.csv")
        if line is None:
            result = ingest_csv(path, drop_policy="error")
            assert (result.series.n, result.rows_read, result.rows_dropped) == (read, read, 0)
            return
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path, drop_policy="error")
        assert excinfo.value.line == line
        assert message is None or str(excinfo.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("policy", ["skip", "error"])
    def test_zero_byte_file(self, tmp_path, policy):
        with pytest.raises(EmptySeries):
            ingest_csv(write_csv(tmp_path, ""), drop_policy=policy)

    def test_no_usable_row(self, tmp_path):
        path = write_csv(tmp_path, f"{HEADER2}2001-01-01,nan,0.0,0.0\n2001-01-02,0.01\n")
        with pytest.raises(EmptySeries, match="no usable rows"):
            ingest_csv(path, drop_policy="skip")
        with pytest.raises(ParseError, match="^line 2: "):
            ingest_csv(path, drop_policy="error")

    @pytest.mark.parametrize("policy", ["skip", "error"])
    def test_bad_cell_deep_in_a_long_file(self, tmp_path, policy):
        days = [datetime.date(1990, 1, 1) + datetime.timedelta(days=i) for i in range(10_000)]
        rows = [f"{day},{i * 1e-6!r},0.0\n" for i, day in enumerate(days)]
        rows[4_999] = f"{days[4_999]},0.01x,0.0\n"       # line 5,001 after the header
        path = write_csv(tmp_path, "date,ret_1,rf\n" + "".join(rows))
        if policy == "error":
            with pytest.raises(ParseError) as excinfo:
                ingest_csv(path, drop_policy=policy)
            assert excinfo.value.line == 5_001
            return
        with pytest.warns(UserWarning, match="dropped 1 "):
            result = ingest_csv(path, drop_policy=policy)
        assert (result.rows_read, result.rows_dropped) == (10_000, 1)
        assert result.series.dates == tuple(days[:4_999] + days[5_000:])
        assert result.series.fund_returns[4_999, 0] == 5_000 * 1e-6

    @pytest.mark.parametrize("bad", [{6: "nan,0.0", 7: "x,0.0"}, {6: "--1,0.0", 7: "0.01,inf"}])
    def test_error_policy_reads_no_block_after_a_bad_row(self, tmp_path, monkeypatch, bad):
        # blocks of three kept rows; the second starts at line 5 and holds both bad rows,
        # a non-finite one and a malformed one, and the lower line is raised
        monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", 9)
        rows = [f"2001-01-{day:02d},0.01,0.0" for day in range(1, 31)]
        for line, cells in bad.items():
            rows[line - 2] = rows[line - 2][:11] + cells
        path = write_csv(tmp_path, "date,ret_1,rf\n" + "\n".join(rows) + "\n")
        blocks, read = tableio.table_blocks, []

        def counted(*args, **kwargs):
            for block in blocks(*args, **kwargs):
                read.append(block)
                yield block

        monkeypatch.setattr(tableio, "table_blocks", counted)
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path, drop_policy="error")
        assert excinfo.value.line == 6
        assert len(read) == 3       # the header and two blocks
        read.clear()
        with pytest.warns(UserWarning, match="dropped 2 "):
            assert ingest_csv(path).rows_read == 30
        assert len(read) == 12      # the header, ten blocks and the empty last one

    def test_round_trip_from_simulated_path(self, tmp_path):
        from fundgrowth.marketsim import write_path_csv

        path = simulate_path([1.5], CovMatrix([[0.02]]), uniform_clock(50), seed=3)
        buf = io.StringIO()
        write_path_csv(path, buf)
        csv_path = write_csv(tmp_path, buf.getvalue())
        series = ingest_csv(csv_path).series
        excess = series.fund_returns - series.risk_free[:, None]
        np.testing.assert_allclose(excess[:, 0], path.increments[:, 0], atol=1e-12, rtol=0)


class CountedDay:
    """A date-like day number that counts the ``<`` comparisons made on its class."""

    comparisons = 0

    def __init__(self, day):
        self.day = day

    def __lt__(self, other):
        CountedDay.comparisons += 1
        return self.day < other.day

    def __eq__(self, other):
        return self.day == other.day


def series_on(dates):
    return ReturnSeries(dates=dates, fund_returns=np.zeros((len(dates), 1)),
                        risk_free=np.zeros(len(dates)))


class TestDateCheck:
    def test_an_equal_copy_is_checked_again(self):
        dates = tuple(map(CountedDay, range(50)))
        series_on(dates)
        copy = tuple(list(dates))
        assert copy == dates and copy is not dates
        before = CountedDay.comparisons
        series_on(copy)
        assert CountedDay.comparisons - before == len(dates) - 1

    def test_one_tuple_is_checked_once(self):
        dates = tuple(map(CountedDay, range(50)))
        before = CountedDay.comparisons
        series_on(dates), series_on(dates)
        assert CountedDay.comparisons - before == len(dates) - 1

    @pytest.mark.parametrize("bad", [(0, 1, 3, 2, 4), (0, 1, 1, 2, 3)], ids=["swapped", "repeated"])
    def test_a_bad_tuple_raises_each_time(self, bad):
        good = tuple(datetime.date(2001, 1, 1 + i) for i in range(5))
        bad = tuple(good[i] for i in bad)
        for dates in (good, bad, bad, good, bad):
            if dates is good:
                assert series_on(dates).n == 5
            else:
                with pytest.raises(NonMonotoneDates):
                    series_on(dates)


class TestRunBacktest:
    @pytest.mark.parametrize("day, fund, rf", [(7, math.nan, 0.0), (0, 0.01, math.inf),
                                               (19, -math.inf, 0.0), (3, 0.01, math.nan)])
    def test_non_finite_returns_rejected(self, day, fund, rf):
        rets, rates = np.full(20, 0.001), np.zeros(20)
        rets[day], rates[day] = fund, rf
        with pytest.raises(ValueError, match="finite"):
            make_series(rets, rf=rates)

    def test_series_must_outlast_burn_in(self):
        series = simulated_series(100, seed=1)
        with pytest.raises(InsufficientBurnIn):
            run_backtest(series, BacktestConfig(burn_in_days=100))

    def test_covariance_must_be_definite_at_burn_in(self):
        rng = np.random.default_rng(2)
        rets = np.column_stack([rng.standard_normal(50) * 0.01, np.zeros(50)])
        series = make_series(rets)
        with pytest.raises(InsufficientBurnIn):
            run_backtest(series, BacktestConfig(burn_in_days=20))

    def test_zero_returns_freeze_everything(self):
        rng = np.random.default_rng(3)
        rets = np.concatenate([rng.standard_normal(15) * 0.01 + 0.001, np.zeros(15)])
        series = make_series(rets)
        bt = run_backtest(series, BacktestConfig(burn_in_days=10))
        assert np.all(bt.nu_hat[15:, 0] == bt.nu_hat[15, 0])
        assert np.all(bt.a[15:] == bt.a[15])
        for track in (bt.log_wealth_market, bt.log_wealth_nuhat, bt.log_wealth_shrunk):
            assert np.all(track[16:] == track[16])
        assert np.all(bt.f_growth[16:] == bt.f_growth[16])

    def test_shrink_factor_in_unit_interval(self):
        series = simulated_series(800, seed=4)
        bt = run_backtest(series, BacktestConfig(burn_in_days=300))
        post = bt.a[300:]
        assert np.all((post >= 0.0) & (post <= 1.0))

    def test_cumulative_covariance_nondecreasing(self):
        series = simulated_series(120, seed=5)
        bt = run_backtest(series, BacktestConfig(burn_in_days=60))
        steps = np.diff(bt.c_cum, axis=0)
        eigs = np.linalg.eigvalsh(0.5 * (steps + steps.transpose(0, 2, 1)))
        assert eigs.min() >= -1e-15

    def test_prefix_equals_head_of_full_run(self):
        series = simulated_series(400, seed=6)
        config = BacktestConfig(burn_in_days=150)
        full = with_posterior(run_backtest(series, config), config)
        for m in (151, 152, 277, 400):
            prefix = with_posterior(run_backtest(
                ReturnSeries(dates=series.dates[:m], fund_returns=series.fund_returns[:m],
                             risk_free=series.risk_free[:m]),
                config,
            ), config)
            assert prefix.dates == full.dates[:m]
            for name in ("excess", "r_cum", "c_cum", "nu_hat", "kappa", "psi", "a", "rho",
                         "log_wealth_market", "log_wealth_nuhat", "log_wealth_shrunk",
                         "f_growth"):
                np.testing.assert_array_equal(
                    getattr(prefix, name), getattr(full, name)[:m], err_msg=f"{name}, m={m}"
                )

    def test_deterministic(self):
        series = simulated_series(300, seed=7)
        config = BacktestConfig(burn_in_days=100)
        first, second = run_backtest(series, config), run_backtest(series, config)
        np.testing.assert_array_equal(first.a, second.a)
        np.testing.assert_array_equal(first.log_wealth_nuhat, second.log_wealth_nuhat)

    def test_posterior_band_coverage(self):
        # anchored prior: the growth-optimal portfolio drawn per run from the
        # prior should land inside the 95% posterior band about 95% of runs
        nu0, kappa0 = 2.2, 5.0
        c = CovMatrix([[US_LIKE_DAILY_V * 252.0]])
        config = BacktestConfig(
            burn_in_days=0, nu0=np.array([nu0]), kappa0=np.array([[kappa0]]),
        )
        hits = 0
        n_runs = 1000
        for i in range(n_runs):
            rng = np.random.default_rng(5000 + i)
            nu = nu0 + math.sqrt(kappa0) * rng.standard_normal()
            path = simulate_path([nu], c, uniform_clock(600), seed=9000 + i)
            bt = run_backtest(make_series(path.increments), config)
            half_width = 1.96 * math.sqrt(kappa(bt)[-1, 0, 0])
            hits += abs(bt.nu_hat[-1, 0] - nu) <= half_width
        assert 0.93 <= hits / n_runs <= 0.97

    def test_long_us_like_sample_settles_near_point_six(self):
        # qualitative: over ~93 years of trading days at 18% annualised
        # volatility and Sharpe 0.4, the shrink factor ends up around 0.6
        n = 23_558
        rng = np.random.default_rng(0)
        x = US_LIKE_DAILY_V * US_LIKE_NU + math.sqrt(US_LIKE_DAILY_V) * rng.standard_normal(n)
        bt = run_backtest(make_series(x), BacktestConfig(burn_in_days=7500))
        assert 0.4 <= float(bt.a[-1]) <= 0.75

    def test_truncated_mode_matches_closed_form(self):
        series = simulated_series(200, seed=8)
        config = BacktestConfig(burn_in_days=50, truncation_l=0.0)
        bt = run_backtest(series, config)
        assert np.all(bt.nu_hat[50:, 0] > 0.0)
        nu_hat, kappa_end = truncated_posterior_1d(
            float(bt.r_cum[-1, 0]), float(bt.c_cum[-1, 0, 0]), 0.0, math.inf
        )
        assert bt.nu_hat[-1, 0] == pytest.approx(nu_hat[0], rel=1e-12)
        assert kappa(bt, config.truncation)[-1, 0, 0] == pytest.approx(
            kappa_end[0, 0], rel=1e-12)

    def test_demeaned_covariance_variant(self):
        series = simulated_series(300, seed=9)
        bt = run_backtest(series, BacktestConfig(burn_in_days=100, demean_covariance=True))
        excess = series.fund_returns - series.risk_free[:, None]
        demeaned = excess - excess.mean(axis=0)
        np.testing.assert_allclose(
            bt.c_cum[-1], demeaned.T @ demeaned, rtol=1e-9, atol=1e-12
        )


def growth_loss(series, burn_in):
    """Half the growth of ``log det C`` from the burn-in day to the last day, and the
    last day's filtered log wealth, from the streamed blocks: only one block's ``C``
    stack is alive at a time."""
    c_burn_in = None
    for block in backtest_blocks(series, BacktestConfig(burn_in_days=burn_in)):
        if c_burn_in is None and block.burn_in < block.n:
            c_burn_in = block.c_cum[block.burn_in].copy()
        c_last, wealth = block.c_cum[-1].copy(), block.log_wealth_nuhat[-1]
    return 0.5 * (np.linalg.slogdet(c_last)[1] - np.linalg.slogdet(c_burn_in)[1]), wealth


def wishart_loss_law(k, n, b):
    """Mean and sd of the loss ``1/2 (log det C_n - log det C_b)`` of K funds with no
    drift.  The daily squared returns sum to Wishart matrices: C_b on the burn-in day b
    has b + 1 degrees of freedom and C_n on the last day n.  Then
    E log det C_m = sum_i psi((m - i + 1) / 2) + K log 2 + log det(c dt), and
    det C_b / det C_n is Wilks' Lambda, a product of independent
    Beta((b + 2 - i) / 2, (n - b - 1) / 2) (Muirhead 1982, ch. 3)."""
    i = np.arange(1, k + 1)
    mean = 0.5 * np.sum(special.digamma((n - i + 1) / 2) - special.digamma((b + 2 - i) / 2))
    sd = 0.5 * math.sqrt(np.sum(special.polygamma(1, (b + 2 - i) / 2)
                                - special.polygamma(1, (n - i + 1) / 2)))
    return mean, sd


def test_growth_loss_follows_the_wishart_law():
    # with nu = 0 the mean loss of five seeds must lie within 4 sd / sqrt(5) of the
    # law's mean, and the loss grows with K
    n, b, seeds = 6_000, 1_500, range(5)
    means = []
    for k in (1, 3, 10, 30):
        cov = CovMatrix(0.18 ** 2 * (0.5 * np.eye(k) + 0.5 * np.ones((k, k))))
        expected, sd = wishart_loss_law(k, n, b)
        losses = [growth_loss(make_series(simulate_path(np.zeros(k), cov, uniform_clock(n),
                                                        seed).increments), b)[0]
                  for seed in seeds]
        means.append(np.mean(losses))
        assert abs(means[-1] - expected) <= 4.0 * sd / math.sqrt(len(seeds)), (k, expected)
    assert np.all(np.diff(means) > 0.0)


# The sd of the funds-minus-assets filtered log wealth gap below, over seeds 0-59
# (mean 5.34 against the laws' 5.56; positive in 59 of 60).
FUND_GAP_SD = 2.43


def test_a_fund_model_loses_growth_by_its_funds_not_its_assets():
    # The paper's headline on the engine: N = 10 assets whose growth-optimal portfolio
    # nu = f theta lies in the span of K = 2 funds, backtested on the asset returns and
    # on the fund returns f' dR.  Each loss follows the Wishart law of its own dimension,
    # N or K: with this drift its bias is about 1e-4, far inside sd / sqrt(seeds).  Both
    # universes hold the same optimum, so the filtered portfolio through the funds ends
    # ahead by the difference of the two losses, here checked on average to 4 of the
    # gap's sd / sqrt(seeds).
    n, b, seeds = 6_000, 1_500, range(10)
    cov = CovMatrix(0.18 ** 2 * (0.5 * np.eye(10) + 0.5 * np.ones((10, 10))))
    f = np.column_stack([np.full(10, 0.1), np.linspace(-1.0, 1.0, 10)])
    spec = build_fund_model(cov, f)
    nu = spec.f @ np.array([2.0, 1.0])
    runs = []
    for seed in seeds:
        increments = simulate_path(nu, spec.cov_rate, uniform_clock(n), seed).increments
        runs.append([*growth_loss(make_series(increments), b),
                     *growth_loss(make_series(increments @ spec.f), b)])
    asset_loss, asset_wealth, fund_loss, fund_wealth = np.array(runs).T
    for losses, k in ((asset_loss, spec.assets), (fund_loss, spec.funds)):
        expected, sd = wishart_loss_law(k, n, b)
        assert abs(losses.mean() - expected) <= 4.0 * sd / math.sqrt(len(seeds)), (k, expected)
    law_gap = wishart_loss_law(spec.assets, n, b)[0] - wishart_loss_law(spec.funds, n, b)[0]
    gap = fund_wealth - asset_wealth
    assert gap.mean() >= law_gap - 4.0 * FUND_GAP_SD / math.sqrt(len(seeds)) > 0.0, gap


class TestWealthTracks:
    def test_first_displayed_values_are_zero(self):
        series = simulated_series(250, seed=10)
        bt = run_backtest(series, BacktestConfig(burn_in_days=100))
        assert bt.burn_in == 100
        assert bt.log_wealth_market[100] == 0.0
        assert bt.log_wealth_nuhat[100] == 0.0
        assert bt.log_wealth_shrunk[100] == 0.0
        assert bt.f_growth[100] == 0.0
        assert bt.n - bt.burn_in == 150

    def test_forced_unit_shrink_collapses_tracks(self):
        series = simulated_series(250, seed=11)
        bt = run_backtest(series, BacktestConfig(burn_in_days=100, force_a=1.0))
        np.testing.assert_array_equal(
            bt.log_wealth_shrunk[100:], bt.log_wealth_nuhat[100:]
        )

    def test_forced_zero_portfolio_flattens_everything(self):
        series = simulated_series(250, seed=12)
        bt = run_backtest(
            series, BacktestConfig(burn_in_days=100, force_nu_hat=np.array([0.0]))
        )
        assert np.all(bt.log_wealth_nuhat[100:] == 0.0)
        assert np.all(bt.log_wealth_shrunk[100:] == 0.0)
        assert np.all(bt.f_growth[100:] == 0.0)


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        series = simulated_series(160, seed=13)
        bt = run_backtest(series, BacktestConfig(burn_in_days=60))
        target = tmp_path / "out.csv"
        with open(target, "w") as handle:
            rows, _ = write_backtest_csv([bt], handle)
        assert rows == 100
        dates, k, table = read_backtest_csv(str(target), io.StringIO())
        assert k == 1
        np.testing.assert_array_equal(table["nu_hat_1"], bt.nu_hat[60:, 0])
        np.testing.assert_array_equal(table["a"], bt.a[60:])
        np.testing.assert_array_equal(table["logW_shrunk"], bt.log_wealth_shrunk[60:])
        np.testing.assert_array_equal(table["c_11"], bt.c_cum[60:, 0, 0])
        assert dates == bt.dates[60:]

    def test_missing_columns_rejected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("date,a,F\n2001-01-01,0.5,0.1\n")
        with pytest.raises(MissingColumns):
            read_backtest_csv(str(target), io.StringIO())


class TestConfigParsing:
    def test_round_trip(self):
        config = parse_backtest_config(
            "burn_in_days = 100\ntruncation_l = 0.0\ndemean_covariance = true\n"
        )
        assert config.burn_in_days == 100
        assert config.truncation == (0.0, math.inf)
        assert config.demean_covariance

    def test_anchored_prior_keys(self):
        config = parse_backtest_config(
            "burn_in_days = 0\nnu0 = 2.0\nkappa0 = 5.0\n"
        )
        np.testing.assert_allclose(config.nu0, [2.0])
        np.testing.assert_allclose(config.kappa0, [[5.0]])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_backtest_config("burn_in = 100\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2: config key 'burn_in_days' already set"):
            parse_backtest_config("burn_in_days = 20\nburn_in_days = 30\n")

    def test_unknown_drop_policy_rejected(self):
        # before any input is read, not first in ingest_csv
        with pytest.raises(ConfigError, match="unknown drop_policy 'bogus'"):
            parse_backtest_config("drop_policy = bogus\n")

    @pytest.mark.parametrize("line", ["burn_in_days = abc", "force_a = high",
                                      "kappa0 = 1, 2; 3", "demean_covariance = maybe"])
    def test_bad_value_names_its_line(self, line):
        with pytest.raises(ConfigError, match="line 2: bad value"):
            parse_backtest_config("drop_policy = skip\n" + line + "\n")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rendered_config_parses_back(self, data):
        k = data.draw(st.integers(1, 3))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vector = st.lists(finite, min_size=k, max_size=k).map(np.array)
        matrix = st.lists(vector, min_size=k, max_size=k).map(np.array)
        lo = data.draw(st.none() | finite)
        hi = data.draw(st.none() | finite.filter(lambda x: lo is None or x > lo))
        anchored = data.draw(st.booleans())
        config = BacktestConfig(
            burn_in_days=data.draw(st.integers(0, 10 ** 6)),
            nu0=data.draw(vector) if anchored else None,
            kappa0=data.draw(matrix) if anchored else None,
            truncation_l=lo, truncation_r=hi,
            drop_policy=data.draw(st.sampled_from(["skip", "error"])),
            demean_covariance=data.draw(st.booleans()),
            force_a=data.draw(st.none() | st.floats(0.0, 1.0)),
            force_nu_hat=data.draw(st.none() | vector),
        )

        def render(value):
            if isinstance(value, np.ndarray):
                rows = np.atleast_2d(value).tolist()
                return "; ".join(", ".join(map(repr, row)) for row in rows)
            return str(value).lower() if isinstance(value, bool) else repr(value).strip("'")

        fields = dataclasses.fields(BacktestConfig)
        text = "".join(f"{field.name} = {render(getattr(config, field.name))}\n"
                       for field in fields if getattr(config, field.name) is not None)
        parsed = parse_backtest_config(text)
        for field in fields:
            want, got = getattr(config, field.name), getattr(parsed, field.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            else:
                assert type(got) is type(want) and got == want, field.name

    @pytest.mark.parametrize("days", [100.5, "100"], ids=["fraction", "text"])
    def test_burn_in_days_must_be_an_integer(self, days):
        with pytest.raises(ConfigError, match=f"^burn_in_days must be an integer, got {days!r}$"):
            BacktestConfig(burn_in_days=days)

    def test_anchored_needs_both_moments(self):
        for moment in ({"nu0": np.array([1.0])}, {"kappa0": np.eye(1)}):
            with pytest.raises(ConfigError, match="anchored prior needs nu0 and kappa0"):
                BacktestConfig(**moment)
