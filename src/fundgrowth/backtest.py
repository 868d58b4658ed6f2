"""Daily backtest of the filtered and shrunk growth-optimal portfolios.

The pipeline mirrors a long-sample equity study: dividend-adjusted daily fund
returns are turned into excess returns, the cumulative return vector ``R`` and
the cumulative squared-return matrix ``C`` are accumulated, and after a
burn-in long enough to make ``C`` positive definite (the uninformative-prior
limit) the per-day posterior ``nu_hat = C^{-1} R``, the uniform shrink factor
``a``, and log-wealth tracks for the market, the filtered portfolio, and its
shrunk version are produced, together with the achievable-growth process
``F``.

Every column is a running sum or a pointwise map of running sums, so the
backtest works on whole arrays, one block of rows at a time: ``R`` and ``C``
are cumulative sums carried from block to block, the posterior is one batched
solve per block, and the tracks are cumulative sums of daily log-growth.
Memory is bounded by the block, not by the series, at any number of funds.

Wealth compounds discretely through ``log(1 + pi' x)`` while ``F`` uses the
instantaneous form on the daily squared returns; the two agree only in the
continuous-time limit, and the gap is visible in the outputs rather than
hidden.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from . import filtering, shrinkage
from .errors import (
    ConfigError,
    EmptySeries,
    InsufficientBurnIn,
    MissingColumns,
    NonMonotoneDates,
    ParseError,
    SingularC,
)
from .marketsim import (ConfigLines, _parse_matrix, _parse_vector, parse_date, read_table,
                        table_lines, write_rows)
from .psd import PD_RTOL, CovMatrix, inverse_entries, is_definite

DEFAULT_BURN_IN = 7500   # trading days, about 30 years

# log1p argument floor: a daily move that would wipe the portfolio is clamped
# and counted instead of poisoning the whole track with -inf.
_WEALTH_FLOOR = 1e-12

# Rows per engine block: a budget of C entries (2 MB of float64), so that a
# block's (rows, K, K) stacks stay small at any K; a K = 1 series of up to
# 262,144 days runs as one block.
_BLOCK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class ReturnSeries:
    """Cleaned per-date fund returns and risk-free rates, strictly date-sorted."""

    dates: tuple
    fund_returns: np.ndarray
    risk_free: np.ndarray

    def __post_init__(self):
        rets = np.atleast_2d(np.asarray(self.fund_returns, dtype=float))
        rf = np.asarray(self.risk_free, dtype=float).reshape(-1)
        object.__setattr__(self, "fund_returns", rets)
        object.__setattr__(self, "risk_free", rf)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) == 0:
            raise EmptySeries("return series has no rows")
        if rets.shape[0] != len(self.dates) or rf.size != len(self.dates):
            raise ValueError("dates, fund_returns and risk_free lengths disagree")
        if not (np.isfinite(rets).all() and np.isfinite(rf).all()):
            raise ValueError("fund_returns and risk_free must be finite")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            raise NonMonotoneDates("dates must be strictly increasing")

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.fund_returns.shape[1]


@dataclass(frozen=True)
class IngestResult:
    series: ReturnSeries
    rows_read: int
    rows_dropped: int


def ingest_csv(path: str, drop_policy: str = "skip") -> IngestResult:
    """Parse a ``date,ret_1..ret_K,rf`` CSV into a cleaned return series.

    Malformed rows, including rows with a ``nan`` or ``inf`` cell, are dropped
    with a warning under ``drop_policy='skip'`` or raise ``ParseError`` under
    ``'error'``.  Missing risk-free cells are forward-filled (zero before the
    first observation); rows missing a fund return are dropped.  Rows come
    back date-sorted; duplicate dates raise ``NonMonotoneDates``.
    """
    if drop_policy not in ("skip", "error"):
        raise ConfigError(f"unknown drop_policy {drop_policy!r}")
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries(f"{path} is empty") from None
        header = [h.strip() for h in header]
        k = len(header) - 2
        expected = ["date"] + [f"ret_{j + 1}" for j in range(k)] + ["rf"]
        if k < 1 or header != expected:
            raise ParseError(1, f"header {header!r} does not match date,ret_1..ret_K,rf")

        rows: list[tuple[datetime.date, list[float], Optional[float]]] = []
        rows_read = 0
        dropped = 0
        for lineno, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            rows_read += 1
            try:
                if len(cells) != k + 2:
                    raise ValueError(f"expected {k + 2} cells, got {len(cells)}")
                day = parse_date(cells[0].strip())
                rets = [float(cell) for cell in cells[1:-1]]
                rf_cell = cells[-1].strip()
                rf = float(rf_cell) if rf_cell else None
                if not all(map(math.isfinite, rets + [0.0 if rf is None else rf])):
                    raise ValueError("non-finite return or risk-free rate")
            except ValueError as exc:
                if drop_policy == "error":
                    raise ParseError(lineno, str(exc)) from None
                dropped += 1
                continue
            rows.append((day, rets, rf))

    if not rows:
        raise EmptySeries(f"{path} contains no usable rows")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} malformed row(s)", stacklevel=2)

    rows.sort(key=lambda row: row[0])
    dates = [row[0] for row in rows]
    rets = np.array([row[1] for row in rows], dtype=float)
    rf = np.empty(len(rows))
    last = 0.0
    for i, row in enumerate(rows):
        if row[2] is not None:
            last = row[2]
        rf[i] = last
    series = ReturnSeries(dates=tuple(dates), fund_returns=rets, risk_free=rf)
    return IngestResult(series=series, rows_read=rows_read, rows_dropped=dropped)


@dataclass(frozen=True)
class BacktestConfig:
    """Knobs for the daily pipeline.

    ``prior='anchored'`` folds ``kappa0^{-1}`` and ``kappa0^{-1} nu0`` into
    the accumulators, allowing ``burn_in = 0``.
    """

    burn_in_days: int = DEFAULT_BURN_IN
    prior: str = "uninformative"
    nu0: Optional[np.ndarray] = None
    kappa0: Optional[np.ndarray] = None
    truncation_l: Optional[float] = None
    truncation_r: Optional[float] = None
    drop_policy: str = "skip"
    demean_covariance: bool = False
    force_a: Optional[float] = None
    force_nu_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.prior not in ("uninformative", "anchored"):
            raise ConfigError(f"unknown prior {self.prior!r}")
        if self.prior == "anchored" and (self.nu0 is None or self.kappa0 is None):
            raise ConfigError("anchored prior needs nu0 and kappa0")
        if self.burn_in_days < 0:
            raise ConfigError("burn_in_days must be nonnegative")
        if self.truncation is not None and not self.truncation[0] < self.truncation[1]:
            raise ConfigError(f"truncation interval {self.truncation} is empty")
        for name in ("nu0", "force_nu_hat"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ConfigError(f"{name} must be finite")
        if self.force_a is not None and not 0.0 <= self.force_a <= 1.0:
            raise ConfigError(f"force_a must lie in [0, 1], got {self.force_a}")

    @property
    def truncation(self) -> Optional[tuple[float, float]]:
        if self.truncation_l is None and self.truncation_r is None:
            return None
        lo = -math.inf if self.truncation_l is None else self.truncation_l
        hi = math.inf if self.truncation_r is None else self.truncation_r
        return (lo, hi)


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value in ("1", "true", "yes")


_CONFIG_PARSERS = {
    "burn_in_days": int, "prior": str, "nu0": _parse_vector,
    "kappa0": _parse_matrix, "truncation_l": float, "truncation_r": float,
    "drop_policy": str, "demean_covariance": _parse_bool, "force_a": float,
    "force_nu_hat": _parse_vector,
}


def parse_backtest_config(text: str) -> BacktestConfig:
    """Parse ``key = value`` lines into a config; unknown and repeated keys
    and unparsable values raise ``ConfigError``."""
    lines = ConfigLines(text, _CONFIG_PARSERS, "config")
    return BacktestConfig(**{
        key: lines.get(key, parse) for key, parse in _CONFIG_PARSERS.items() if key in lines
    })


@dataclass
class BacktestSeries:
    """Per-date record of the pipeline over consecutive rows of a series;
    estimate columns are NaN in burn-in.

    ``burn_in`` counts the leading burn-in rows and ``floored_steps`` the
    wealth steps clamped at the floor up to the last row.  ``truncation`` is
    the config's, which ``kappa`` needs for one fund.
    """

    dates: tuple
    excess: np.ndarray
    r_cum: np.ndarray
    c_cum: np.ndarray
    nu_hat: np.ndarray
    psi: np.ndarray
    a: np.ndarray
    log_wealth_market: np.ndarray
    log_wealth_nuhat: np.ndarray
    log_wealth_shrunk: np.ndarray
    f_growth: np.ndarray
    burn_in: int
    floored_steps: int
    truncation: Optional[tuple[float, float]] = None

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.excess.shape[1]

    @property
    def kappa(self) -> np.ndarray:
        """Posterior covariance per date: ``C^{-1}`` symmetrised, or for one fund
        the closed forms of ``_one_fund_posterior``."""
        b = self.burn_in
        kappa = np.full(self.c_cum.shape, math.nan)
        if self.k == 1:
            kappa[b:, 0, 0] = _one_fund_posterior(self.r_cum[b:, 0], self.c_cum[b:, 0, 0],
                                                  self.truncation)[1]
        else:
            inverse = np.linalg.inv(self.c_cum[b:])
            np.add(inverse, inverse.swapaxes(1, 2), out=kappa[b:])
            kappa[b:] *= 0.5
        return kappa

    @property
    def rho(self) -> np.ndarray:
        """The shrunk portfolio ``a * nu_hat`` per date."""
        return self.a[:, None] * self.nu_hat


# Columns of a BacktestSeries with one entry per row; run_backtest joins them.
_ROW_COLUMNS = ("excess", "r_cum", "c_cum", "nu_hat", "psi", "a", "log_wealth_market",
                "log_wealth_nuhat", "log_wealth_shrunk", "f_growth")


def _prior_anchor(config: BacktestConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting values of ``R`` and ``C``: ``kappa0^{-1} nu0`` and ``kappa0^{-1}``,
    or zeros under the uninformative prior."""
    if config.prior != "anchored":
        return np.zeros(k), np.zeros((k, k))
    nu0 = np.asarray(config.nu0, dtype=float).reshape(-1)
    if nu0.size != k or np.shape(config.kappa0) != (k, k):
        raise ConfigError(f"nu0 and kappa0 must be of size {k} and {k} x {k}, one per fund")
    try:
        c0 = inverse_entries(CovMatrix(config.kappa0))
    except (ValueError, SingularC) as exc:
        raise ConfigError(f"kappa0 must be positive definite: {exc}") from None
    return c0 @ nu0, 0.5 * (c0 + c0.T)


def _squared_returns(x: np.ndarray, start: int, x_sum: np.ndarray, demean: bool,
                     out: np.ndarray) -> np.ndarray:
    """Daily increments of ``C`` for rows ``start, start + 1, ...`` written into
    ``out``: ``x x'``, or with ``demean`` the running-mean (Welford) increment
    ``(s-1)/s d d'`` where ``d`` is day ``s``'s deviation from the mean of the
    days before it.  ``x_sum`` sums the returns before ``start``; returns the
    sum after the block (only ``demean`` needs it)."""
    if not demean:
        np.multiply(x[:, :, None], x[:, None, :], out=out)
        return x_sum
    days = np.arange(start + 1, start + x.shape[0] + 1, dtype=float)
    sums = np.cumsum(np.vstack([x_sum, x]), axis=0)
    prev_mean = np.zeros_like(x)
    np.divide(sums[:-1], (days - 1.0)[:, None], out=prev_mean, where=days[:, None] > 1.0)
    d = x - prev_mean
    np.multiply(d[:, :, None], d[:, None, :], out=out)
    out *= ((days - 1.0) / days)[:, None, None]
    return sums[-1]


def _one_fund_posterior(r: np.ndarray, c: np.ndarray, truncation) -> tuple[np.ndarray, np.ndarray]:
    """``nu_hat`` and ``kappa`` of one fund: the truncated closed forms, or ``R/C``
    and ``1/C``."""
    if truncation is not None:
        return filtering.truncated_moments(r, c, *truncation)
    return r / c, 1.0 / c


def _check_definite(c_post: np.ndarray, lam_b: float, first_day: int) -> None:
    """``SingularC`` unless ``psd.is_definite`` holds for every ``C_t`` of the block,
    whose first row is day ``first_day``; ``lam_b`` is ``lambda_min`` of ``C`` on
    the burn-in day ``b``.

    Every increment of ``C`` is positive semidefinite, so by Weyl's inequality
    (Horn & Johnson, Matrix Analysis, 2nd ed., 4.3) ``lambda_min(C_t) >=
    lambda_min(C_b)`` and ``lambda_max(C_t) <= tr C_t`` in exact arithmetic.  In
    floating point, with u = eps / 2: the running sum of ``t + 2`` terms is off
    the exact one by ``E`` with ``|E_ij| <= (t + 2) u sum_s |D_s,ij|``, and each
    term is rank one or the (definite) anchor, so Cauchy-Schwarz bounds that sum
    by ``sqrt(T_ii T_jj)``, ``T`` being the sum of the diagonals, and ``||E||_2 <=
    ||E||_F <= (t + 2) u tr C_t``; ``eigvalsh`` is backward stable, moving each
    eigenvalue by about ``K u ||C||_2 <= K u tr C``, once on day ``b`` and once
    on day ``t``.  The computed ``lambda_min(C_t)`` is thus at least ``lam_b -
    (t + K + 2) eps tr C_t`` and the computed ``lambda_max(C_t)`` at most about
    ``tr C_t``.  The rule therefore holds on every day where ``lam_b > (PD_RTOL
    + 4 (t + K + 2) eps) tr C_t``, the factor 4 being slack for the trace's own
    round-off and the eigensolver's constant; only the other days go to
    ``eigvalsh``, so no decision differs from running it on every day.
    """
    k = c_post.shape[1]
    days = np.arange(first_day, first_day + c_post.shape[0])
    margin = PD_RTOL + 4.0 * (days + k + 2) * np.finfo(float).eps
    unsure = lam_b <= margin * np.trace(c_post, axis1=1, axis2=2)
    if unsure.any():
        lam = np.linalg.eigvalsh(c_post[unsure])
        if not is_definite(lam[:, 0], lam[:, -1]).all():
            raise SingularC("cumulative covariance is not positive definite")


def _log_growth(change: np.ndarray) -> tuple[np.ndarray, int]:
    """Log-wealth steps ``log(1 + change)``, and the number clamped at the
    wealth floor."""
    floored = change <= -1.0 + _WEALTH_FLOOR
    steps = np.log1p(np.where(floored, 0.0, change))
    steps[floored] = math.log(_WEALTH_FLOOR)
    return steps, int(floored.sum())


def backtest_blocks(series: ReturnSeries,
                    config: Optional[BacktestConfig] = None) -> Iterator[BacktestSeries]:
    """Backtest a return series, one block of consecutive rows at a time.

    ``R``, ``C``, the held estimate, the wealth tracks, ``F`` and the floored
    step count carry from block to block; they are running sums, so the blocks
    hold the same bits as one pass over the series.  Raises
    ``InsufficientBurnIn`` unless ``C`` is positive definite on the burn-in day
    and ``SingularC`` if it stops being so afterwards.
    """
    config = config or BacktestConfig()
    n, k, b = series.n, series.k, config.burn_in_days
    if n <= b:
        raise InsufficientBurnIn(f"series has {n} row(s), burn-in needs more than {b}")
    if config.truncation is not None and k != 1:
        raise ConfigError("truncation requires a single fund")
    r, c = _prior_anchor(config, k)
    force_nu = config.force_nu_hat
    if force_nu is not None:
        force_nu = np.asarray(force_nu, dtype=float).reshape(-1)
        if force_nu.size != k:
            raise ConfigError(f"force_nu_hat has size {force_nu.size}, series has {k} fund(s)")

    # Carried from block to block; copies, so that no block's arrays stay alive
    # in them or change with what a consumer does to a block.
    x_sum = np.zeros(k)
    lam_b = math.nan
    held_nu, held_a = np.zeros((1, k)), 0.0    # the estimate of the day before the block
    levels = np.zeros(4)                      # market, nu_hat and shrunk log wealth, F
    floored_steps = 0
    rows = max(1, _BLOCK_ENTRIES // (k * k))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        x = series.fund_returns[start:stop] - series.risk_free[start:stop, None]
        # Row 0 of each running sum is the carried value; np.cumsum adds day by day.
        r_cum = np.cumsum(np.vstack([r, x]), axis=0)[1:]
        c_cum = np.empty((stop - start + 1, k, k))
        c_cum[0] = c
        x_sum = _squared_returns(x, start, x_sum, config.demean_covariance, out=c_cum[1:])
        c_cum = np.cumsum(c_cum, axis=0, out=c_cum)[1:]
        r, c = r_cum[-1].copy(), c_cum[-1].copy()

        p = min(max(b - start, 0), stop - start)     # the block's burn-in rows
        nu = np.full((stop - start, k), math.nan)
        psi = np.full(stop - start, math.nan)
        a = np.full(stop - start, math.nan)
        tracks = np.full((4, stop - start), math.nan)
        if p < stop - start:
            r_post, c_post = r_cum[p:], c_cum[p:]
            opening = start + p == b
            if opening:
                lam = np.linalg.eigvalsh(c_post[0])
                if not is_definite(lam[0], lam[-1]):
                    raise InsufficientBurnIn(
                        "cumulative covariance is not positive definite at burn-in end")
                lam_b = lam[0]
            _check_definite(c_post, lam_b, start + p)

            nu_post, psi_post, a_post = nu[p:], psi[p:], a[p:]
            if k == 1:
                nu_post[:, 0], kappa = _one_fund_posterior(r_post[:, 0], c_post[:, 0, 0],
                                                           config.truncation)
            else:
                nu_post[:] = np.linalg.solve(c_post, r_post[:, :, None])[:, :, 0]
            if force_nu is not None:
                nu_post[:] = force_nu
            if k == 1:
                psi_post[:] = shrinkage.psi_one_fund(nu_post[:, 0], kappa)
            else:
                # = (3/2)^3 R'C^{-1}R when nu = C^{-1}R
                psi_post[:] = 3.375 * np.einsum("ti,tij,tj->t", nu_post, c_post, nu_post)
            a_post[:] = (config.force_a if config.force_a is not None
                         else shrinkage.cardano_a(psi_post))

            # Day t's portfolio is the estimate of day t-1; the tracks start at 0 on day b.
            x_post = x[p:]
            growth = np.einsum("ti,ti->t", np.vstack([held_nu, nu_post[:-1]]), x_post)
            changes = np.stack([x_post.mean(axis=1), growth,
                                np.concatenate([[held_a], a_post[:-1]]) * growth,
                                0.5 * growth * growth])
            if opening:
                changes[:, 0] = 0.0
            for i in range(3):
                changes[i], floored = _log_growth(changes[i])
                floored_steps += floored
            tracks[:, p:] = np.cumsum(np.column_stack([levels, changes]), axis=1)[:, 1:]
            levels, held_nu, held_a = tracks[:, -1].copy(), nu[-1:].copy(), a[-1]

        yield BacktestSeries(
            dates=series.dates[start:stop],
            excess=x,
            r_cum=r_cum,
            c_cum=c_cum,
            nu_hat=nu,
            psi=psi,
            a=a,
            log_wealth_market=tracks[0],
            log_wealth_nuhat=tracks[1],
            log_wealth_shrunk=tracks[2],
            f_growth=tracks[3],
            burn_in=p,
            floored_steps=floored_steps,
            truncation=config.truncation,
        )


def run_backtest(series: ReturnSeries, config: Optional[BacktestConfig] = None) -> BacktestSeries:
    """Backtest a return series in memory: the blocks of ``backtest_blocks``, joined.

    The result holds ``(n, K, K)`` stacks of ``C``; ``fundgrowth backtest``
    streams the blocks to its output instead.
    """
    blocks = backtest_blocks(series, config)
    last = next(blocks)
    if last.n == series.n:      # already whole; joining would only copy it
        return last
    columns = {name: np.empty((series.n,) + getattr(last, name).shape[1:])
               for name in _ROW_COLUMNS}
    start = burn_in = 0
    for last in itertools.chain([last], blocks):
        for name, column in columns.items():
            column[start:start + last.n] = getattr(last, name)
        start, burn_in = start + last.n, burn_in + last.burn_in
    return BacktestSeries(dates=series.dates, **columns, burn_in=burn_in,
                          floored_steps=last.floored_steps, truncation=last.truncation)


# ---------------------------------------------------------------------------
# CSV output / input of backtest results
# ---------------------------------------------------------------------------

def output_columns(k: int) -> list[str]:
    """Column order of the output CSV; ``c_ij`` entries trail the core set."""
    cols = ["date"] + [f"nu_hat_{j + 1}" for j in range(k)]
    cols += ["a", "F", "logW_market", "logW_nuhat", "logW_shrunk"]
    cols += [f"c_{i + 1}{j + 1}" for i in range(k) for j in range(i, k)]
    return cols


def write_backtest_csv(blocks: Iterable[BacktestSeries],
                       out: IO[str]) -> tuple[int, BacktestSeries]:
    """Write the post-burn-in rows of each block as it comes; full-precision
    floats keep output stable.  Returns the row count and the last block."""
    blocks = iter(blocks)
    last = next(blocks)
    upper_i, upper_j = np.triu_indices(last.k)

    def lines() -> Iterator[list[str]]:
        nonlocal last
        for last in itertools.chain([last], blocks):
            b = last.burn_in
            yield from table_lines(last.dates[b:], np.column_stack([
                last.nu_hat[b:], last.a[b:], last.f_growth[b:], last.log_wealth_market[b:],
                last.log_wealth_nuhat[b:], last.log_wealth_shrunk[b:],
                last.c_cum[b:, upper_i, upper_j],
            ]))

    return write_rows(out, output_columns(last.k), lines()), last


def read_backtest_csv(path: str) -> dict:
    """Read a backtest output CSV into named columns.

    Returns a dict with one numpy array per column, ``k``, ``dates``, ``header``
    and the row texts ``lines``; raises ``MissingColumns`` when the required core
    columns are absent and ``ParseError`` (with the line) on a row that does not parse.
    """
    header, dates, values, lines = read_table(path)
    k = sum(1 for name in header if name.startswith("nu_hat_"))
    missing = set(output_columns(k)) - set(header) if k else {"nu_hat_*"}
    if missing:
        raise MissingColumns(f"{path} lacks required columns: {sorted(missing)}")
    return {**dict(zip(header[1:], values.T)), "k": k, "dates": tuple(dates),
            "header": header, "lines": lines}
