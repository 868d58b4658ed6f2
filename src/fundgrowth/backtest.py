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
backtest works on whole arrays: ``R`` and ``C`` are cumulative sums, the
posterior is one batched inverse over the post-burn-in days, and the tracks
are cumulative sums of daily log-growth.

Wealth compounds discretely through ``log(1 + pi' x)`` while ``F`` uses the
instantaneous form on the daily squared returns; the two agree only in the
continuous-time limit, and the gap is visible in the outputs rather than
hidden.
"""

from __future__ import annotations

import csv
import datetime
import math
import warnings
from dataclasses import dataclass
from typing import IO, Optional

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
                        write_table)
from .psd import CovMatrix, inverse_entries, is_definite

DEFAULT_BURN_IN = 7500   # trading days, about 30 years

# log1p argument floor: a daily move that would wipe the portfolio is clamped
# and counted instead of poisoning the whole track with -inf.
_WEALTH_FLOOR = 1e-12


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
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
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
    """Per-date record of the pipeline; estimate columns are NaN in burn-in."""

    dates: tuple
    excess: np.ndarray
    r_cum: np.ndarray
    c_cum: np.ndarray
    nu_hat: np.ndarray
    kappa: np.ndarray
    psi: np.ndarray
    a: np.ndarray
    rho: np.ndarray
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


def _squared_returns(x: np.ndarray, demean: bool, out: np.ndarray) -> None:
    """Daily increments of ``C`` written into ``out``: ``x x'``, or with
    ``demean`` the running-mean (Welford) increment ``(s-1)/s d d'`` where
    ``d`` is day ``s``'s deviation from the mean of the days before it."""
    if not demean:
        np.multiply(x[:, :, None], x[:, None, :], out=out)
        return
    days = np.arange(1, x.shape[0] + 1, dtype=float)
    prev_mean = np.zeros_like(x)
    prev_mean[1:] = np.cumsum(x, axis=0)[:-1] / days[:-1, None]
    d = x - prev_mean
    np.multiply(d[:, :, None], d[:, None, :], out=out)
    out *= ((days - 1.0) / days)[:, None, None]


def _log_wealth(gross_change: np.ndarray) -> tuple[np.ndarray, int]:
    """Log-wealth track from 0 by ``log(1 + change)`` steps, and the number
    of steps clamped at the wealth floor."""
    floored = gross_change <= -1.0 + _WEALTH_FLOOR
    steps = np.log1p(np.where(floored, 0.0, gross_change))
    steps[floored] = math.log(_WEALTH_FLOOR)
    return np.cumsum(np.concatenate(([0.0], steps))), int(floored.sum())


def run_backtest(series: ReturnSeries, config: Optional[BacktestConfig] = None) -> BacktestSeries:
    """Backtest a return series, one whole column at a time.

    ``R`` and ``C`` are running sums from the prior anchor; every later
    column is a pointwise map of them or a running sum of daily terms.
    Raises ``InsufficientBurnIn`` unless ``C`` is positive definite on the
    burn-in day and ``SingularC`` if it stops being so afterwards.
    """
    config = config or BacktestConfig()
    n, k, b = series.n, series.k, config.burn_in_days
    if n <= b:
        raise InsufficientBurnIn(f"series has {n} row(s), burn-in needs more than {b}")
    if config.truncation is not None and k != 1:
        raise ConfigError("truncation requires a single fund")
    r0, c0 = _prior_anchor(config, k)
    force_nu = config.force_nu_hat
    if force_nu is not None:
        force_nu = np.asarray(force_nu, dtype=float).reshape(-1)
        if force_nu.size != k:
            raise ConfigError(f"force_nu_hat has size {force_nu.size}, series has {k} fund(s)")

    x = series.fund_returns - series.risk_free[:, None]
    # Row 0 of each running sum is the prior anchor; np.cumsum adds day by day.
    r_cum = np.cumsum(np.vstack([r0, x]), axis=0)[1:]
    c_cum = np.empty((n + 1, k, k))
    c_cum[0] = c0
    _squared_returns(x, config.demean_covariance, out=c_cum[1:])
    c_cum = np.cumsum(c_cum, axis=0, out=c_cum)[1:]

    r_post, c_post = r_cum[b:], c_cum[b:]
    lam = np.linalg.eigvalsh(c_post if k > 1 else c_post[:1])
    definite = is_definite(lam[:, 0], lam[:, -1])
    if not definite[0]:
        raise InsufficientBurnIn("cumulative covariance is not positive definite at burn-in end")
    if not definite.all():
        raise SingularC("cumulative covariance is not positive definite")

    nu = np.full((n, k), math.nan)
    kappa = np.full((n, k, k), math.nan)
    nu_post, kappa_post = nu[b:], kappa[b:]
    if config.truncation is not None:
        nu_post[:, 0], kappa_post[:, 0, 0] = filtering.truncated_moments(
            r_post[:, 0], c_post[:, 0, 0], *config.truncation
        )
    elif k == 1:
        nu_post[:, 0] = r_post[:, 0] / c_post[:, 0, 0]
        kappa_post[:, 0, 0] = 1.0 / c_post[:, 0, 0]
    else:
        inverse = np.linalg.inv(c_post)
        np.add(inverse, inverse.swapaxes(1, 2), out=kappa_post)
        kappa_post *= 0.5
        nu_post[:] = (kappa_post @ r_post[:, :, None])[:, :, 0]
    if force_nu is not None:
        nu_post[:] = force_nu

    psi = np.full(n, math.nan)
    if k == 1:
        psi[b:] = shrinkage.psi_one_fund(nu_post[:, 0], kappa_post[:, 0, 0])
    else:
        # = (3/2)^3 R'C^{-1}R when nu = C^{-1}R
        psi[b:] = 3.375 * np.einsum("ti,tij,tj->t", nu_post, c_post, nu_post)
    a = np.full(n, math.nan)
    a[b:] = config.force_a if config.force_a is not None else shrinkage.cardano_a(psi[b:])

    # Day t's portfolio is the estimate of day t-1; the tracks start at 0 on day b.
    x_next = x[b + 1:]
    growth = np.einsum("ti,ti->t", nu_post[:-1], x_next)
    tracks = []
    floored_steps = 0
    for change in (x_next.mean(axis=1), growth, a[b:-1] * growth):
        track = np.full(n, math.nan)
        track[b:], floored = _log_wealth(change)
        tracks.append(track)
        floored_steps += floored
    f_growth = np.full(n, math.nan)
    f_growth[b:] = np.cumsum(np.concatenate(([0.0], 0.5 * growth * growth)))

    return BacktestSeries(
        dates=series.dates,
        excess=x,
        r_cum=r_cum,
        c_cum=c_cum,
        nu_hat=nu,
        kappa=kappa,
        psi=psi,
        a=a,
        rho=a[:, None] * nu,
        log_wealth_market=tracks[0],
        log_wealth_nuhat=tracks[1],
        log_wealth_shrunk=tracks[2],
        f_growth=f_growth,
        burn_in=b,
        floored_steps=floored_steps,
    )


# ---------------------------------------------------------------------------
# CSV output / input of backtest results
# ---------------------------------------------------------------------------

def output_columns(k: int) -> list[str]:
    """Column order of the output CSV; ``c_ij`` entries trail the core set."""
    cols = ["date"] + [f"nu_hat_{j + 1}" for j in range(k)]
    cols += ["a", "F", "logW_market", "logW_nuhat", "logW_shrunk"]
    cols += [f"c_{i + 1}{j + 1}" for i in range(k) for j in range(i, k)]
    return cols


def write_backtest_csv(bt: BacktestSeries, out: IO[str]) -> int:
    """Write the post-burn-in rows; full-precision floats keep output stable."""
    b = bt.burn_in
    upper_i, upper_j = np.triu_indices(bt.k)
    values = np.column_stack([
        bt.nu_hat[b:], bt.a[b:], bt.f_growth[b:], bt.log_wealth_market[b:],
        bt.log_wealth_nuhat[b:], bt.log_wealth_shrunk[b:], bt.c_cum[b:, upper_i, upper_j],
    ])
    return write_table(out, output_columns(bt.k), bt.dates[b:], values)


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
