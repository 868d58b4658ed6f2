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
backtest works on whole arrays, one block of rows at a time.  Row 0 of a
block's arrays is the row before the block: the last row of the block before
it, or the prior anchor, a zero estimate and zero wealth.  ``R``, ``C`` and the
tracks (cumulative sums of daily log-growth) run on from it, day t's portfolio
is the row above it, and the posterior is one batched solve per block.  Memory
is bounded by the block, not by the series, at any number of funds.

Wealth compounds discretely through ``log(1 + pi' x)`` while ``F`` uses the
instantaneous form on the daily squared returns; the two agree only in the
continuous-time limit, and the gap is visible in the outputs rather than
hidden.

``a = cardano_a((3/2)^3 R'C^{-1}R)`` is the paper's general shrinkage minimiser
with ``kappa = C^{-1}`` and ``dC`` proportional to ``C``, exactly so under the
uninformative prior.  Under an anchored prior it counts the anchor as past data at
the covariance rate; on ``tests/golden/k3_anchored`` the minimiser is 2-10% of
``|nu_hat|`` away from ``a nu_hat``.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from . import shrinkage
from .errors import (ConfigError, EmptySeries, InsufficientBurnIn, MissingColumns,
                     NonMonotoneDates, ParseError, SingularC)
from .psd import PD_RTOL, CovMatrix, config_field, interval, inverse_entries, is_definite

DEFAULT_BURN_IN = 7500   # trading days, about 30 years

# log1p argument floor: a daily move that would wipe the portfolio is clamped
# and counted instead of poisoning the whole track with -inf.
_WEALTH_FLOOR = 1e-12

# Rows per engine block: a budget of C entries (2 MB of float64), so that a
# block's (rows, K, K) stacks stay small at any K; a K = 1 series of up to
# 262,144 days runs as one block.
_BLOCK_ENTRIES = 2 ** 18

# The last dates tuple that ReturnSeries found strictly increasing, held so that its
# id is not reused: a tuple of dates cannot change, so a loop that passes one calendar
# to every path checks it once, and any other tuple, an equal copy too, in full.
_increasing_dates = None


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
        global _increasing_dates
        if self.dates is not _increasing_dates:
            if not all(map(operator.lt, self.dates, self.dates[1:])):
                raise NonMonotoneDates("dates must be strictly increasing")
            _increasing_dates = self.dates

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.fund_returns.shape[1]


@dataclass(frozen=True)
class IngestResult:
    """A cleaned series with the counts of data rows read and dropped, and of kept
    rows on which some fund returned -100% or less."""

    series: ReturnSeries
    rows_read: int
    rows_dropped: int
    rows_wiped_out: int


def ingest_csv(path: str, drop_policy: str = "skip") -> IngestResult:
    """Parse a ``date,ret_1..ret_K,rf`` CSV into a cleaned return series.

    Rows are read by ``tableio.table_blocks`` once the header has been checked.
    Malformed rows, including rows with a ``nan`` or ``inf`` cell, are dropped
    with a warning under ``drop_policy='skip'``; under ``'error'`` the first of
    them raises ``ParseError``.  Blank risk-free cells are forward-filled (zero
    before the first observation); rows missing a fund return are dropped.  Rows
    come back date-sorted; duplicate dates raise ``NonMonotoneDates``.
    """
    if drop_policy not in ("skip", "error"):
        raise ConfigError(f"unknown drop_policy {drop_policy!r}")
    from .tableio import table_blocks
    dropped: list[ParseError] = []
    blocks = table_blocks(path, dropped, blank_last=True)
    header = [name.strip() for name in next(blocks)]
    k = len(header) - 2
    if k < 1 or header != ["date"] + [f"ret_{j + 1}" for j in range(k)] + ["rf"]:
        raise ParseError(1, f"header {header!r} does not match date,ret_1..ret_K,rf")
    read = []       # each block's dates, values, blank rf cells and non-finite rows
    for day, value, lines, lineno in blocks:
        blank = np.isnan(value[:, -1])      # a NaN rf is blank or a literal nan: its text tells
        blank[blank] = [not line.rpartition(",")[2].strip()
                        for line in itertools.compress(lines, blank.tolist())]
        value[blank, -1] = 0.0
        bad = ~np.isfinite(value).all(axis=1)
        first_bad = dropped[:1] + [ParseError(int(line), "non-finite return or risk-free rate")
                                   for line in lineno[bad][:1]]
        if drop_policy == "error" and first_bad:    # before the next block is read
            raise min(first_bad, key=operator.attrgetter("line"))
        read.append((day, value, blank, bad))
    dates, values, blank_rf, bad = zip(*read)
    values, blank_rf, bad = map(np.concatenate, (values, blank_rf, bad))
    rows = np.flatnonzero(~bad)
    if not rows.size:
        raise EmptySeries(f"{path} contains no usable rows")
    n_dropped = len(dropped) + int(bad.sum())
    if n_dropped:
        warnings.warn(f"{path}: dropped {n_dropped} malformed row(s)", stacklevel=2)

    # sorted by date, then each blank rf takes the last rate given before it (or 0)
    days = np.array([*itertools.chain(*dates)], dtype=object)
    rows = rows[np.argsort(days[rows], kind="stable")]
    last_rf = np.maximum.accumulate(np.where(blank_rf[rows], 0, np.arange(1, rows.size + 1)))
    series = ReturnSeries(dates=tuple(days[rows]), fund_returns=values[rows, :-1],
                          risk_free=np.concatenate([[0.0], values[rows, -1]])[last_rf])
    wiped_out = int(np.count_nonzero((series.fund_returns <= -1.0).any(axis=1)))
    return IngestResult(series, len(values) + len(dropped), n_dropped, wiped_out)


# The kind of each config key (see ``psd.config_field``), in field order.
_CONFIG_KINDS = {"burn_in_days": "count", "nu0": "vector", "kappa0": "matrix",
                 "truncation_l": "real", "truncation_r": "real", "drop_policy": "text",
                 "demean_covariance": "flag", "force_a": "real", "force_nu_hat": "vector"}


@dataclass(frozen=True)
class BacktestConfig:
    """Knobs for the daily pipeline; each feature is on when its value is set.

    ``nu0`` and ``kappa0``, set together, anchor the prior: ``kappa0^{-1}`` and
    ``kappa0^{-1} nu0`` are folded into the accumulators, allowing ``burn_in = 0``.
    """

    burn_in_days: int = DEFAULT_BURN_IN
    nu0: Optional[np.ndarray] = None
    kappa0: Optional[np.ndarray] = None
    truncation_l: Optional[float] = None
    truncation_r: Optional[float] = None
    drop_policy: str = "skip"
    demean_covariance: bool = False
    force_a: Optional[float] = None
    force_nu_hat: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.nu0 is None) != (self.kappa0 is None):
            raise ConfigError("anchored prior needs nu0 and kappa0")
        for name, kind in _CONFIG_KINDS.items():     # a key whose default is None may be unset
            if (value := getattr(self, name)) is not None or getattr(type(self), name) is not None:
                object.__setattr__(self, name, config_field(kind, name, value))
        if self.burn_in_days < 0:
            raise ConfigError("burn_in_days must be nonnegative")
        if self.drop_policy not in ("skip", "error"):
            raise ConfigError(f"unknown drop_policy {self.drop_policy!r}")
        if self.truncation is not None and not self.truncation[0] < self.truncation[1]:
            raise ConfigError(f"truncation interval {self.truncation} is empty")
        for name in ("nu0", "force_nu_hat"):
            if (value := getattr(self, name)) is not None and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite")
        if self.force_a is not None and not 0.0 <= self.force_a <= 1.0:
            raise ConfigError(f"force_a must lie in [0, 1], got {self.force_a}")

    @property
    def truncation(self) -> Optional[tuple[float, float]]:
        return interval(self.truncation_l, self.truncation_r)


def parse_backtest_config(text: str) -> BacktestConfig:
    """Parse ``key = value`` lines into a config; unknown and repeated keys
    and unparsable values raise ``ConfigError``."""
    from .tableio import read_config
    return BacktestConfig(**read_config(text, _CONFIG_KINDS, "config"))


@dataclass
class BacktestSeries:
    """Per-date record of the pipeline over consecutive rows of a series;
    estimate columns are NaN in burn-in.

    ``burn_in`` counts the leading burn-in rows and ``floored_steps`` the
    wealth steps clamped at the floor up to the last row.
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

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def k(self) -> int:
        return self.excess.shape[1]


# Columns of a BacktestSeries with one entry per row; run_backtest joins them.
_ROW_COLUMNS = ("excess", "r_cum", "c_cum", "nu_hat", "psi", "a", "log_wealth_market",
                "log_wealth_nuhat", "log_wealth_shrunk", "f_growth")


def _prior_anchor(config: BacktestConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting values of ``R`` and ``C``: ``kappa0^{-1} nu0`` and ``kappa0^{-1}``,
    or zeros under the uninformative prior."""
    if config.nu0 is None:
        return np.zeros(k), np.zeros((k, k))
    if config.nu0.size != k or config.kappa0.shape != (k, k):
        raise ConfigError(f"nu0 and kappa0 must be of size {k} and {k} x {k}, one per fund")
    try:
        c0 = inverse_entries(CovMatrix(config.kappa0))
    except (ValueError, SingularC) as exc:
        raise ConfigError(f"kappa0 must be positive definite: {exc}") from None
    return c0 @ config.nu0, 0.5 * (c0 + c0.T)


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
    """``nu_hat`` and ``kappa`` of one fund: the truncated moments, or ``R/C`` and
    ``1/C``."""
    if truncation is not None:
        from .filtering import truncated_moments
        return truncated_moments(r, c, *truncation)
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


def backtest_blocks(series: ReturnSeries,
                    config: Optional[BacktestConfig] = None) -> Iterator[BacktestSeries]:
    """Backtest a return series, one block of consecutive rows at a time.

    Each block starts from the row before it, so the blocks hold the same bits as
    one pass over the series.  A block's columns are views from row 1 and the next
    block starts from their last row: writing into a block changes the blocks after
    it.  Raises ``InsufficientBurnIn`` unless ``C`` is positive definite on the
    burn-in day and ``SingularC`` if it stops being so afterwards.
    """
    config = config or BacktestConfig()
    n, k, b = series.n, series.k, config.burn_in_days
    if n <= b:
        raise InsufficientBurnIn(f"series has {n} row(s), burn-in needs more than {b}")
    if config.truncation is not None and k != 1:
        raise ConfigError("truncation requires a single fund")
    r_cum, c_cum = (row[None] for row in _prior_anchor(config, k))
    force_nu = config.force_nu_hat
    if force_nu is not None and force_nu.size != k:
        raise ConfigError(f"force_nu_hat has size {force_nu.size}, series has {k} fund(s)")

    # with the prior anchor, the row before the first block
    nu, a, tracks = np.zeros((1, k)), np.zeros(1), np.zeros((4, 1))
    x_sum, lam_b, floored_steps = np.zeros(k), math.nan, 0
    rows = max(1, _BLOCK_ENTRIES // (k * k))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        m = stop - start
        x = series.fund_returns[start:stop] - series.risk_free[start:stop, None]
        before = r_cum[-1], c_cum[-1], nu[-1], a[-1], tracks[:, -1]
        r_cum, c_cum = np.empty((m + 1, k)), np.empty((m + 1, k, k))
        nu, a, tracks = (np.full(shape, math.nan) for shape in ((m + 1, k), m + 1, (4, m + 1)))
        psi = np.full(m, math.nan)
        r_cum[0], c_cum[0], nu[0], a[0], tracks[:, 0] = before
        r_cum[1:] = x
        x_sum = _squared_returns(x, start, x_sum, config.demean_covariance, out=c_cum[1:])
        np.cumsum(r_cum, axis=0, out=r_cum)
        np.cumsum(c_cum, axis=0, out=c_cum)

        p = min(max(b - start, 0), m)     # the block's burn-in rows
        if p < m:
            r_post, c_post = r_cum[p + 1:], c_cum[p + 1:]
            opening = start + p == b
            if opening:
                lam = np.linalg.eigvalsh(c_post[0])
                if not is_definite(lam[0], lam[-1]):
                    raise InsufficientBurnIn(
                        "cumulative covariance is not positive definite at burn-in end")
                lam_b = lam[0]
            _check_definite(c_post, lam_b, start + p)

            nu_post, psi_post, a_post = nu[p + 1:], psi[p:], a[p + 1:]
            if k == 1:     # under a pin too: psi needs kappa, and truncation may raise
                nu_post[:, 0], kappa = _one_fund_posterior(r_post[:, 0], c_post[:, 0, 0],
                                                           config.truncation)
                if force_nu is not None:
                    nu_post[:] = force_nu
                psi_post[:] = shrinkage.psi_one_fund(nu_post[:, 0], kappa)
            else:
                nu_post[:] = (force_nu if force_nu is not None
                              else np.linalg.solve(c_post, r_post[:, :, None])[:, :, 0])
                # = (3/2)^3 R'C^{-1}R when nu = C^{-1}R
                psi_post[:] = 3.375 * np.einsum("ti,tij,tj->t", nu_post, c_post, nu_post)
            a_post[:] = (config.force_a if config.force_a is not None
                         else shrinkage.cardano_a(psi_post))

            # Day t's portfolio is the row above it.  The tracks start at 0 on day b,
            # whose row above is a burn-in row, so the steps start on the day after.
            if opening:
                tracks[:, p + 1] = 0.0
            q = p + 1 + opening       # the first row with a step
            growth = np.einsum("ti,ti->t", nu[q - 1:-1], x[q - 1:])
            tracks[:, q:] = (x[q - 1:].mean(axis=1), growth, a[q - 1:-1] * growth,
                             0.5 * growth * growth)
            wealth = tracks[:3, q:]
            floored = wealth <= -1.0 + _WEALTH_FLOOR
            floored_steps += int(floored.sum())
            wealth[:] = np.log1p(np.where(floored, 0.0, wealth))
            wealth[floored] = math.log(_WEALTH_FLOOR)
            np.cumsum(tracks[:, q - 1:], axis=1, out=tracks[:, q - 1:])

        yield BacktestSeries(
            dates=series.dates[start:stop],
            excess=x,
            r_cum=r_cum[1:],
            c_cum=c_cum[1:],
            nu_hat=nu[1:],
            psi=psi,
            a=a[1:],
            log_wealth_market=tracks[0, 1:],
            log_wealth_nuhat=tracks[1, 1:],
            log_wealth_shrunk=tracks[2, 1:],
            f_growth=tracks[3, 1:],
            burn_in=p,
            floored_steps=floored_steps,
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
                          floored_steps=last.floored_steps)


# ---------------------------------------------------------------------------
# CSV output / input of backtest results
# ---------------------------------------------------------------------------

def output_columns(k: int) -> list[str]:
    """Column order of the output CSV; ``c_ij`` entries trail the core set."""
    cols = ["date"] + [f"nu_hat_{j + 1}" for j in range(k)]
    cols += ["a", "F", "logW_market", "logW_nuhat", "logW_shrunk"]
    cols += [f"c_{i + 1}{j + 1}" for i in range(k) for j in range(i, k)]
    return cols


def check_output_columns(k: int) -> None:
    """``ConfigError`` when two ``output_columns(k)`` share a name: the ``c_{i}{j}``
    names collide from K = 111 on (``c_1111`` is both (1, 111) and (11, 11))."""
    repeated = sorted(name for name, count in Counter(output_columns(k)).items() if count > 1)
    if repeated:
        raise ConfigError(f"{k} funds give repeated output column names {repeated}; "
                          f"backtest takes at most 110 funds")


def write_backtest_csv(blocks: Iterable[BacktestSeries],
                       out: IO[str]) -> tuple[int, BacktestSeries]:
    """Write the post-burn-in rows of each block as it comes; full-precision
    floats keep output stable.  Returns the row count and the last block."""
    from .tableio import write_table
    blocks = iter(blocks)
    last = next(blocks)
    upper_i, upper_j = np.triu_indices(last.k)

    def rows() -> Iterator[tuple]:
        nonlocal last
        for last in itertools.chain([last], blocks):
            b = last.burn_in
            yield last.dates[b:], np.column_stack([
                last.nu_hat[b:], last.a[b:], last.f_growth[b:], last.log_wealth_market[b:],
                last.log_wealth_nuhat[b:], last.log_wealth_shrunk[b:],
                last.c_cum[b:, upper_i, upper_j],
            ])

    return write_table(out, output_columns(last.k), rows()), last


def read_backtest_csv(path: str, panels: IO[str]) -> tuple[tuple, int, dict]:
    """Read a backtest output CSV, writing ``report``'s ``panels.csv`` to ``panels`` block by
    block: cells as written, each ``shrunk_j = a * nu_hat_j`` added.  Returns the dates, K
    and a dict of one float array per ``panels.csv`` column but the date, in its order (the
    ``c_`` names sorted).  ``MissingColumns`` is raised before any row is read when core
    columns are absent, ``ParseError`` (with the line) on a row that does not parse."""
    from .tableio import column_lines, table_blocks
    blocks = table_blocks(path)
    header = next(blocks)
    k = sum(1 for name in header if name.startswith("nu_hat_"))
    missing = set(output_columns(k)) - set(header) if k else {"nu_hat_*"}
    if missing:
        raise MissingColumns(f"{path} lacks required columns: {sorted(missing)}")
    nu_hat, shrunk = ([f"{name}_{j}" for j in range(1, k + 1)] for name in ("nu_hat", "shrunk"))
    names = ["date", *nu_hat, *shrunk, "a", "logW_market", "logW_nuhat", "logW_shrunk", "F",
             *sorted(name for name in header if name.startswith("c_"))]
    a, nu = header.index("a") - 1, [header.index(name) - 1 for name in nu_hat]
    panels.write(",".join(names) + "\n")
    dates, values = [], []
    for day, value, lines, _ in blocks:
        panels.write(column_lines(names, header, shrunk, lines, value[:, [a]] * value[:, nu]))
        dates += day
        values.append(value)
    table = dict(zip(header[1:], np.concatenate(values).T))
    values.clear()      # the blocks go before the shrunk columns are made
    table.update((name, table["a"] * table[nu_name]) for name, nu_name in zip(shrunk, nu_hat))
    return tuple(dates), k, {name: table[name] for name in names[1:]}
