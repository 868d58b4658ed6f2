"""Differential and golden tests of ``run_backtest``.

The differential tests compare the library against ``backtest_oracle``, the
per-day loop kept as a reference.  Tolerances: the excess returns and the
accumulators ``R`` and ``C`` are bit-identical (except ``C`` under
``demean_covariance``, whose running mean may round differently), NaN masks
and ``floored_steps`` are exactly equal, and every other column agrees to
``rtol=1e-9, atol=1e-12``.

The golden tests rerun ``fundgrowth simulate -> backtest`` on the scenarios
under ``tests/golden/`` and compare with the committed ``backtest.csv``, which
was produced by the per-day loop, to the same tolerance.
"""

import datetime
import io
from pathlib import Path

import numpy as np
import pytest

from backtest_oracle import run_oracle
from posterior_columns import with_posterior
from fundgrowth import backtest, cli, shrinkage
from fundgrowth.backtest import (BacktestConfig, ReturnSeries, backtest_blocks, read_backtest_csv,
                                 run_backtest, write_backtest_csv)
from fundgrowth.errors import ConfigError, InsufficientBurnIn, SingularC
from fundgrowth.psd import CovMatrix, inverse_entries

GOLDEN = Path(__file__).parent / "golden"
RTOL, ATOL = 1e-9, 1e-12

EXACT_COLUMNS = ("excess", "r_cum", "c_cum")
CLOSE_COLUMNS = ("nu_hat", "kappa", "psi", "a", "rho", "log_wealth_market",
                 "log_wealth_nuhat", "log_wealth_shrunk", "f_growth")


def daily_dates(n):
    start = datetime.date(1990, 1, 1)
    return tuple(start + datetime.timedelta(days=i) for i in range(n))


def random_series(k, n, seed, crash_day=None, jump=-1.5):
    """Correlated daily fund returns; ``crash_day`` sets every fund to ``jump``."""
    rng = np.random.default_rng(seed)
    corr = 0.4 * np.ones((k, k)) + 0.6 * np.eye(k)
    root = np.linalg.cholesky(corr * 0.012 ** 2)
    rets = 4e-4 + rng.standard_normal((n, k)) @ root.T
    if crash_day is not None:
        rets[crash_day] = jump
    rf = np.abs(rng.normal(1e-4, 5e-5, size=n))
    return ReturnSeries(dates=daily_dates(n), fund_returns=rets, risk_free=rf)


def near_collinear_series(n, eta, seed):
    """Two funds whose daily returns differ by ``eta``-sized noise."""
    rng = np.random.default_rng(seed)
    first = 4e-4 + 0.012 * rng.standard_normal(n)
    rets = np.column_stack([first, first + eta * rng.standard_normal(n)])
    return ReturnSeries(dates=daily_dates(n), fund_returns=rets, risk_free=np.zeros(n))


def anchored(k, **kwargs):
    kappa0 = 2.0 * np.eye(k) + 0.5 * np.ones((k, k))
    nu0 = np.linspace(1.0, -0.5, k)
    return BacktestConfig(nu0=nu0, kappa0=kappa0, **kwargs)


def assert_matches_oracle(series, config, exact_c=True, rtol=RTOL, atol=ATOL):
    new, old = with_posterior(run_backtest(series, config), config), run_oracle(series, config)
    assert new.dates == old.dates
    assert new.burn_in == old.burn_in
    assert new.floored_steps == old.floored_steps
    for name in EXACT_COLUMNS + CLOSE_COLUMNS:
        got, want = getattr(new, name), getattr(old, name)
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
        if name in EXACT_COLUMNS and (exact_c or name != "c_cum"):
            np.testing.assert_array_equal(got, want, err_msg=name)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, err_msg=name)
    return new


class TestDifferential:
    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    def test_uninformative_prior(self, k):
        assert_matches_oracle(random_series(k, 500, seed=k), BacktestConfig(burn_in_days=200))

    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    @pytest.mark.parametrize("burn_in", [0, 60])
    def test_anchored_prior(self, k, burn_in):
        assert_matches_oracle(random_series(k, 300, seed=10 + k), anchored(k, burn_in_days=burn_in))

    @pytest.mark.parametrize("bounds", [(0.0, None), (None, 1.0), (-0.5, 2.0)])
    def test_truncated(self, bounds):
        lo, hi = bounds
        config = BacktestConfig(burn_in_days=100, truncation_l=lo, truncation_r=hi)
        assert_matches_oracle(random_series(1, 400, seed=20), config)

    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    def test_demeaned_covariance(self, k):
        config = BacktestConfig(burn_in_days=150, demean_covariance=True)
        assert_matches_oracle(random_series(k, 400, seed=30 + k), config, exact_c=False)

    def test_demeaned_covariance_with_anchor(self):
        config = anchored(2, burn_in_days=0, demean_covariance=True)
        assert_matches_oracle(random_series(2, 300, seed=35), config, exact_c=False)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("force", [{"force_a": 0.3}, {"force_a": 1.0}, {"force_nu_hat": 0.7}])
    def test_forced_estimates(self, k, force):
        if "force_nu_hat" in force:
            force = {"force_nu_hat": np.full(k, force["force_nu_hat"])}
        config = BacktestConfig(burn_in_days=150, **force)
        assert_matches_oracle(random_series(k, 350, seed=40 + k), config)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_wealth_floor(self, k):
        config = BacktestConfig(burn_in_days=150, force_nu_hat=np.full(k, 1.0))
        bt = assert_matches_oracle(random_series(k, 300, seed=50 + k, crash_day=200), config)
        assert bt.floored_steps >= 2          # the market and nu_hat tracks both floor

    def test_floor_with_estimated_portfolio(self):
        bt = assert_matches_oracle(random_series(1, 300, seed=55, crash_day=250),
                                   BacktestConfig(burn_in_days=150))
        assert bt.floored_steps >= 1

    def test_exact_rule_decides_where_weyl_bound_fails(self, monkeypatch):
        # C is definite with a condition number near 1e11, so lambda_min on the
        # burn-in day soon falls below PD_RTOL * tr C plus the round-off margin;
        # those days go to eigvalsh, which still finds C definite
        series = near_collinear_series(400, eta=1e-7, seed=64)
        config = BacktestConfig(burn_in_days=20)
        checked, eigvalsh = [], np.linalg.eigvalsh      # 2 x 2 matrices given to eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: checked.append(np.size(m) // 4) or eigvalsh(m))
        run_backtest(series, config)
        monkeypatch.undo()
        assert sum(checked) > 1
        lam = np.linalg.eigvalsh(run_oracle(series, config).c_cum[20:])
        # two backward-stable solvers agree to about eps times the condition number
        tol = 100 * np.finfo(float).eps * float((lam[:, -1] / lam[:, 0]).max())
        assert_matches_oracle(series, config, rtol=tol, atol=tol)

    @pytest.mark.parametrize("series, config, error", [
        (random_series(2, 100, seed=60), BacktestConfig(burn_in_days=100), InsufficientBurnIn),
        (ReturnSeries(dates=tuple(datetime.date(2000, 1, 1) + datetime.timedelta(days=i)
                                  for i in range(50)),
                      fund_returns=np.column_stack([np.linspace(-0.01, 0.01, 50)] * 2),
                      risk_free=np.zeros(50)),
         BacktestConfig(burn_in_days=20), InsufficientBurnIn),
        (random_series(2, 100, seed=61), BacktestConfig(burn_in_days=20, truncation_l=0.0),
         ConfigError),
        (random_series(2, 100, seed=62),
         BacktestConfig(burn_in_days=0, nu0=np.ones(3), kappa0=np.eye(3)),
         ConfigError),
        # one return of 1e5 in both funds after burn-in: lambda_min / lambda_max < PD_RTOL
        (random_series(2, 100, seed=63, crash_day=60, jump=1e5), BacktestConfig(burn_in_days=20),
         SingularC),
    ])
    def test_same_errors(self, series, config, error):
        with pytest.raises(error):
            run_oracle(series, config)
        with pytest.raises(error):
            run_backtest(series, config)


def test_a_pinned_estimate_makes_no_solve(monkeypatch):
    # at K = 3 the pin takes the place of the batched solve: no solve runs, and every
    # column is what a solve that returned the pin gives
    series, pin = random_series(3, 300, seed=80), np.array([0.5, -0.25, 1.0])
    solved, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda c, r: solved.append(len(c)) or solve(c, r))
    pinned = run_backtest(series, BacktestConfig(burn_in_days=100, force_nu_hat=pin))
    assert solved == []
    run_backtest(series, BacktestConfig(burn_in_days=100))
    assert solved == [200]
    monkeypatch.setattr(np.linalg, "solve",
                        lambda c, r: np.broadcast_to(pin[:, None], r.shape).copy())
    solved_pin = run_backtest(series, BacktestConfig(burn_in_days=100))
    assert (pinned.burn_in, pinned.floored_steps) == (solved_pin.burn_in, solved_pin.floored_steps)
    for name in backtest._ROW_COLUMNS:
        assert getattr(pinned, name).tobytes() == getattr(solved_pin, name).tobytes(), name


BLOCK_CONFIGS = {
    "uninformative": lambda k: BacktestConfig(burn_in_days=100),
    "anchored_no_burn_in": lambda k: anchored(k, burn_in_days=0),
    "anchored_burn_in_opens_a_block": lambda k: anchored(k, burn_in_days=63),
    "anchored_one_post_burn_in_row": lambda k: anchored(k, burn_in_days=62),
    # day 105 is row 0 of a block, after a row of NaN estimates; day 104 a block's last row
    "burn_in_opens_a_block": lambda k: BacktestConfig(burn_in_days=105),
    "burn_in_ends_a_block": lambda k: BacktestConfig(burn_in_days=104),
    "demeaned": lambda k: BacktestConfig(burn_in_days=100, demean_covariance=True),
    "demeaned_burn_in_opens_a_block":
        lambda k: BacktestConfig(burn_in_days=105, demean_covariance=True),
    "force_a": lambda k: BacktestConfig(burn_in_days=100, force_a=0.3),
    "force_nu_hat": lambda k: BacktestConfig(burn_in_days=100, force_nu_hat=np.full(k, 1.0)),
    "truncated": lambda k: BacktestConfig(burn_in_days=100, truncation_l=0.0),
}


@pytest.mark.parametrize("k, case", [(k, case) for case in sorted(BLOCK_CONFIGS)
                                     for k in (1, 2, 5) if case != "truncated" or k == 1])
def test_block_size_invariance(monkeypatch, k, case):
    # 43 blocks of 7 rows, each starting from the row before it; the crash on day 200
    # floors wealth steps
    series, config = random_series(k, 300, seed=70 + k, crash_day=200), BLOCK_CONFIGS[case](k)
    whole, whole_csv = with_posterior(run_backtest(series, config), config), io.StringIO()
    write_backtest_csv(backtest_blocks(series, config), whole_csv)
    monkeypatch.setattr(backtest, "_BLOCK_ENTRIES", 7 * k * k)
    assert len(list(backtest_blocks(series, config))) == 43
    blocked, blocked_csv = with_posterior(run_backtest(series, config), config), io.StringIO()
    write_backtest_csv(backtest_blocks(series, config), blocked_csv)
    assert (blocked.dates, blocked.burn_in, blocked.floored_steps) == \
        (whole.dates, whole.burn_in, whole.floored_steps)
    for name in EXACT_COLUMNS + CLOSE_COLUMNS:
        np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name), err_msg=name)
    assert blocked_csv.getvalue() == whole_csv.getvalue()


@pytest.mark.parametrize("demean", [False, True], ids=["uninformative", "demeaned"])
@pytest.mark.parametrize("k", [2, 5])
def test_the_shrink_factor_is_the_general_minimiser(k, demean):
    # With kappa = C_t^{-1} and dC = C_t / (t + 1), kappa dC is a multiple of the
    # identity, so the paper's minimiser (id + kappa dC / b)^{-1} nu_hat is the uniform
    # multiple a nu_hat, and the engine's a column is that a.
    config = BacktestConfig(burn_in_days=100, demean_covariance=demean)
    [block] = backtest_blocks(random_series(k, 400, seed=90 + k), config)
    for t in range(block.burn_in, block.n, 37):     # nine days
        c, nu_hat, a = block.c_cum[t], block.nu_hat[t], block.a[t]
        shrunk = shrinkage.shrink_portfolio(nu_hat, CovMatrix(inverse_entries(CovMatrix(c))),
                                            CovMatrix(c / (t + 1)))
        assert shrunk.a == pytest.approx(a, rel=1e-10), t
        np.testing.assert_allclose(shrunk.rho, a * nu_hat, rtol=1e-10, err_msg=str(t))


def run_cli(*argv):
    assert cli.main(list(argv)) == 0


@pytest.mark.parametrize("case", ["k1_uninformative", "k3_anchored", "k1_truncated",
                                  "k30_blocks"])
def test_golden_backtest_csv(case, tmp_path):
    golden = GOLDEN / case
    run_cli("simulate", "--config", str(golden / "scenario.cfg"), "--out", str(tmp_path))
    run_cli("backtest", "--input", str(tmp_path / "simulated.csv"),
            "--config", str(golden / "backtest.cfg"), "--out", str(tmp_path))
    got_path, want_path = tmp_path / "backtest.csv", golden / "backtest.csv"
    assert got_path.read_text().splitlines()[0] == want_path.read_text().splitlines()[0]
    got_dates, _, got = read_backtest_csv(str(got_path), io.StringIO())
    want_dates, _, want = read_backtest_csv(str(want_path), io.StringIO())
    assert got_dates == want_dates
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=ATOL, err_msg=name)
