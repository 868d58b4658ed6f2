"""Synthetic market paths for Monte-Carlo verification.

Simulates discrete excess-return increments under full information: a drawn
(optionally truncated) Gaussian growth-optimal portfolio, a constant
covariance rate against an operational clock, and an optional fund structure
in which asset returns are spanned by a small number of funds plus drift-free
orthogonal noise.

Path generation is pure given (inputs, seed); sweeps may run concurrently
with per-path seeds derived as ``seed + path_index``.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import IO, Iterator, Optional

import numpy as np

from .errors import BadTruncation, ConfigError, EmptyGrid, RankDeficient
from .psd import CovMatrix, check_full_rank, config_field, interval, is_definite, sqrt_entries

# Trading-day step of the operational clock, used as the default everywhere.
DEFAULT_STEP = 1.0 / 252.0

# The date of a simulated path's first row.
_FIRST_DATE = datetime.date(1927, 7, 1)
_MAX_STEPS = (datetime.date.max - _FIRST_DATE).days + 1     # the last date is 9999-12-31

_REJECTION_CAP = 1_000_000
_REJECTION_BATCH = 256
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class FundSpec:
    """Fund structure of a market: loadings, exposures, residual noise.

    ``beta = c f (f' c f)^{-1}`` makes the residual returns
    ``dN = dR - beta dR_f`` instantaneously uncorrelated with the fund
    returns; ``residual_cov`` is the implied covariance rate of ``dN`` and
    annihilates ``f`` by construction.
    """

    f: np.ndarray
    beta: np.ndarray
    residual_cov: CovMatrix
    cov_rate: CovMatrix

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "beta", beta)
        if f.shape != beta.shape:
            raise ValueError("f and beta must share the assets x funds shape")
        c = self.cov_rate.entries
        tol = 1e-9 * max(1.0, float(np.abs(c).max()))
        if np.abs(beta @ (f.T @ c @ f) - c @ f).max() > tol:
            raise ValueError("beta does not satisfy beta (f'cf) = cf")
        if np.abs(self.residual_cov.entries @ f).max() > tol:
            raise ValueError("residual covariance does not annihilate the funds")

    @property
    def assets(self) -> int:
        return self.f.shape[0]

    @property
    def funds(self) -> int:
        return self.f.shape[1]


@dataclass(frozen=True)
class MarketPath:
    """One simulated path: its per-step excess-return increments, one row a step."""

    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    def realized_quadratic_covariation(self) -> np.ndarray:
        """Sum of the outer products of the increments."""
        return self.increments.T @ self.increments


def uniform_clock(steps: int, step: float = DEFAULT_STEP) -> np.ndarray:
    """Evenly spaced operational clock ``0, step, 2 step, ...`` (steps+1 points)."""
    if steps < 1:
        raise EmptyGrid("clock needs at least one step")
    if not 0.0 < step < math.inf:
        raise ValueError(f"clock step must be positive and finite, got {step}")
    return step * np.arange(steps + 1, dtype=float)


def ndtr(x):
    """Standard normal CDF, elementwise; ``erfc`` keeps full relative precision far below zero."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) * math.sqrt(0.5))


def draw_prior(scenario: SimScenario, seed: int) -> np.ndarray:
    """One draw from a checked scenario's prior: ``prior_mean`` (zeros if unset),
    ``prior_cov`` (identity) and ``truncation``; deterministic for a fixed seed.  A prior
    drawn in code needs a scenario, whose path covariance the draw does not use.

    The truncated variant rejects in batches up to a hard cap, then falls back
    to inverse-CDF sampling on the interval, clamped to its nearest interior double; an
    interval whose prior mass makes acceptance within the cap less likely than 1e-6 goes
    straight to the fallback, and one with no probability in double precision (no interior
    double, or a point prior outside it) raises ``BadTruncation`` before any draw.
    """
    rng = np.random.default_rng(seed)
    mean = np.zeros(scenario.dim) if scenario.prior_mean is None else scenario.prior_mean
    cov = CovMatrix(np.eye(scenario.dim)) if scenario.prior_cov is None else scenario.prior_cov
    if scenario.truncation is None:
        return mean + sqrt_entries(cov) @ rng.standard_normal(scenario.dim)

    lower, upper = scenario.truncation
    mu = float(mean[0])
    sd = math.sqrt(float(cov.entries[0, 0]))
    if sd == 0.0:
        if not lower < mu < upper:
            raise BadTruncation(f"interval ({lower}, {upper}) has no prior probability: "
                                f"the prior is the point {mu}")
        return np.array([mu])
    alpha, beta = (lower - mu) / sd, (upper - mu) / sd
    # Far above the mean ndtr saturates at 1.0, so a right-tail interval is mapped
    # through 1 - Phi; below zero ndtr keeps full relative precision.
    sign, lo, hi = (-1.0, -beta, -alpha) if alpha >= 0.0 else (1.0, alpha, beta)
    p_lo, p_hi = float(ndtr(lo)), float(ndtr(hi))
    inner = np.nextafter(lower, upper), np.nextafter(upper, lower)
    if not (p_lo < p_hi and inner[0] < upper):
        raise BadTruncation(f"interval ({lower}, {upper}) has no prior probability "
                            "in double precision")
    if (p_hi - p_lo) * _REJECTION_CAP >= 1e-6:
        for _ in range(0, _REJECTION_CAP, _REJECTION_BATCH):
            batch = mu + sd * rng.standard_normal(_REJECTION_BATCH)
            inside = np.flatnonzero((batch > lower) & (batch < upper))
            if inside.size:
                return np.array([batch[inside[0]]])
    from statistics import NormalDist     # imports fractions and decimal: only when drawn
    return np.clip([mu + sign * sd * NormalDist().inv_cdf(rng.uniform(p_lo, p_hi))], *inner)


def euler_step(nu: np.ndarray, c: CovMatrix, d_o, xi: np.ndarray) -> np.ndarray:
    """Increments ``c nu dO + c^{1/2} sqrt(dO) xi`` of one Euler step ``d_o`` (a float) or
    of one step a row (a vector), each positive and finite; leading axes of ``xi`` broadcast."""
    d_o = np.asarray(d_o, dtype=float)
    if not (d_o.min() > 0.0 and d_o.max() < math.inf):     # a NaN step fails the first
        raise ValueError("each step must be positive and finite: a clock must be strictly "
                         "increasing in finite steps")
    drift = np.multiply.outer(d_o, c.entries @ nu)
    return drift + np.sqrt(d_o)[..., None] * (xi @ sqrt_entries(c))


def simulate_path(nu: np.ndarray, c: CovMatrix, clock: np.ndarray, seed: int) -> MarketPath:
    """Euler step simulation of ``dR = c nu dO + c^{1/2} sqrt(dO) xi``."""
    nu = np.asarray(nu, dtype=float).reshape(-1)
    clock = np.asarray(clock, dtype=float)
    if clock.ndim != 1 or clock.size < 2:
        raise EmptyGrid("clock needs at least one step")
    d_o = np.diff(clock)
    if nu.size != c.dim:
        raise ValueError(f"nu has size {nu.size}, covariance has dim {c.dim}")
    if not np.isfinite(nu).all():
        raise ValueError("nu must be finite")
    xi = np.random.default_rng(seed).standard_normal((d_o.size, c.dim))
    return MarketPath(increments=euler_step(nu, c, d_o, xi))


def build_fund_model(c: CovMatrix, f: np.ndarray) -> FundSpec:
    """Fund structure implied by a covariance rate and full-rank loadings."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != c.dim or not 1 <= f.shape[1] <= f.shape[0]:
        raise ValueError(f"loadings shape {f.shape} incompatible with dim {c.dim}")
    check_full_rank(f, "fund loadings")
    gram = f.T @ c.entries @ f
    gw = np.linalg.eigvalsh(gram)
    if not is_definite(gw[0], gw[-1]):
        raise RankDeficient("fund covariance f'cf is numerically singular")
    beta = np.linalg.solve(gram, (c.entries @ f).T).T
    residual = c.entries - beta @ gram @ beta.T
    # When the funds span everything the residual is zero up to round-off,
    # which looks indefinite at its own scale; clean it at the scale of c.
    rw, rv = np.linalg.eigh(0.5 * (residual + residual.T))
    rw = np.where(rw > 1e-14 * float(np.abs(c.entries).max()), rw, 0.0)
    residual = (rv * rw) @ rv.T
    return FundSpec(f=f, beta=beta, residual_cov=CovMatrix(residual), cov_rate=c)


def residual_drift_check(spec: FundSpec, nu: np.ndarray, n_paths: int, seed: int,
                         d_o: float = DEFAULT_STEP) -> np.ndarray:
    """z-scores of the drift rates of the residual returns ``dN = dR - beta dR_f`` on
    paths whose growth-optimal portfolio is ``nu``.

    Each asset's drift estimate is divided by its standard error, and is 0 where
    that is 0.  With ``nu`` inside the fund span (``nu = f theta``) every residual
    drift is zero in expectation; a component outside it shows as drift.  The
    standard error needs ``n_paths >= 2``.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    if np.shape(nu) != (spec.assets,):
        raise ValueError(f"nu has shape {np.shape(nu)}, model has {spec.assets} assets")
    xi = np.random.default_rng(seed).standard_normal((n_paths, spec.assets))
    d_r = euler_step(nu, spec.cov_rate, d_o, xi)
    strip = np.eye(spec.assets) - spec.beta @ spec.f.T
    d_n = d_r @ strip.T
    drift = d_n.mean(axis=0) / d_o
    stderr = d_n.std(axis=0, ddof=1) / math.sqrt(n_paths) / d_o
    return drift / np.where(stderr > 0.0, stderr, np.inf)


# ---------------------------------------------------------------------------
# Scenario configs and CSV export
# ---------------------------------------------------------------------------

# The kind of each scenario key (see ``psd.config_field``), in field order.
_SCENARIO_KINDS = {"dim": "count", "cov": "cov", "cov_preset": "text", "prior_mean": "vector",
                   "prior_cov": "cov", "truncation_l": "real", "truncation_r": "real",
                   "nu": "vector", "dt": "real", "steps": "count", "seed": "count",
                   "f": "matrix", "theta": "vector", "drift_check_paths": "count"}


@dataclass(frozen=True)
class SimScenario:
    """A simulation scenario: its fields are the keys of the file ``parse_scenario``
    reads, and one built in code obeys the same rules, raising ``ConfigError``.

    ``dim`` is required and positive; exactly one of ``cov`` and ``cov_preset`` (then
    resolved into ``cov`` and unset) gives the covariance rate.  ``prior_mean`` (zeros if
    unset), ``prior_cov`` (identity) and ``truncation_l``/``truncation_r`` give the prior,
    which a scenario with ``nu`` or ``f`` does not draw from and so may not set.  ``nu``,
    the prior, and ``f`` with its ``theta`` must fit ``dim`` and be finite; a fund scenario
    has both, no ``nu`` and at most ``dim`` funds.  ``steps`` is at most ``_MAX_STEPS``, one
    dated row each, and ``dt * steps`` is finite.  Only a fund scenario sets
    ``drift_check_paths``: 0 (off), at least 2, or 100,000 if unset.  Each field takes a
    value of its kind in ``_SCENARIO_KINDS`` (``psd.config_field``); arrays may be lists.
    """

    dim: Optional[int] = None
    cov: Optional[CovMatrix] = None
    cov_preset: Optional[str] = None
    prior_mean: Optional[np.ndarray] = None
    prior_cov: Optional[CovMatrix] = None
    truncation_l: Optional[float] = None
    truncation_r: Optional[float] = None
    nu: Optional[np.ndarray] = None
    dt: float = DEFAULT_STEP
    steps: int = 252
    seed: int = 0
    f: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None
    drift_check_paths: Optional[int] = None

    def __post_init__(self):
        dim = self.dim
        if dim is None:
            raise ConfigError("scenario must declare 'dim'")
        for name, kind in _SCENARIO_KINDS.items():     # a key whose default is None may be unset
            if (value := getattr(self, name)) is not None or getattr(type(self), name) is not None:
                object.__setattr__(self, name, config_field(kind, name, value))
        if dim < 1:
            raise ConfigError(f"dim must be positive, got {dim}")
        prior_keys = [k for k in ("prior_mean", "prior_cov", "truncation_l", "truncation_r")
                      if getattr(self, k) is not None]
        fixed = [k for k in ("nu", "f") if getattr(self, k) is not None]
        if prior_keys and fixed:
            raise ConfigError(f"{', '.join(prior_keys)} set beside {fixed[0]}: "
                              "the portfolio is not drawn from the prior")
        if self.drift_check_paths is not None and self.f is None:
            raise ConfigError("drift_check_paths set without f: only a fund scenario "
                              "runs the residual drift check")
        if self.drift_check_paths is None and self.f is not None:
            object.__setattr__(self, "drift_check_paths", 100_000)
        if (self.cov is None) == (self.cov_preset is None):
            raise ConfigError("scenario must declare exactly one of 'cov' and 'cov_preset'")
        if self.cov is None:
            if self.cov_preset not in _COV_PRESETS:
                raise ConfigError(f"unknown cov_preset {self.cov_preset!r}")
            object.__setattr__(self, "cov", CovMatrix(np.eye(dim) * _COV_PRESETS[self.cov_preset]))
            object.__setattr__(self, "cov_preset", None)     # so dataclasses.replace rebuilds it
        if self.prior_cov is not None and self.prior_cov.dim != dim:
            raise ConfigError(f"prior_cov has dim {self.prior_cov.dim}, scenario declares {dim}")
        _sized("prior_mean", self.prior_mean, (dim,))
        if self.truncation is not None and dim != 1:
            raise BadTruncation("truncation interval requires dimension one")
        if self.truncation is not None and not self.truncation[0] < self.truncation[1]:
            raise BadTruncation("empty truncation interval ({}, {})".format(*self.truncation))
        if self.cov.dim != dim:
            raise ConfigError(f"cov has dim {self.cov.dim}, scenario declares {dim}")
        _sized("nu", self.nu, (dim,))
        if (self.f is None) != (self.theta is None):
            raise ConfigError("a fund scenario declares both 'f' and 'theta'")
        if self.f is not None:
            if self.nu is not None:
                raise ConfigError("a fund scenario's nu is f theta: it declares no 'nu'")
            if self.f.ndim != 2 and self.f.size:     # a file's "f = ;" is 1-D, sized below
                raise ConfigError(f"f: expected numbers as a dim x K matrix, got {self.f.tolist()}")
            _sized("f", self.f, (dim, min(self.f.shape[-1], dim)))
            _sized("theta", self.theta, (self.f.shape[1],))
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt * self.steps < math.inf:
            raise ConfigError(f"dt * steps must be finite, got {self.dt} * {self.steps}")
        if self.steps > _MAX_STEPS:
            raise ConfigError(f"steps must be at most {_MAX_STEPS}, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.f is not None and (self.drift_check_paths < 0 or self.drift_check_paths == 1):
            raise ConfigError("drift_check_paths must be 0 (off) or at least 2, "
                              f"got {self.drift_check_paths}")

    @property
    def truncation(self) -> Optional[tuple[float, float]]:
        """``(truncation_l, truncation_r)``, an unset end infinite; None if neither is set."""
        return interval(self.truncation_l, self.truncation_r)


def _sized(name: str, value: Optional[np.ndarray], shape: tuple) -> None:
    """``ConfigError`` unless ``value`` is None or a finite array of ``shape``."""
    if value is not None and (value.shape != shape or not np.isfinite(value).all()):
        raise ConfigError(f"{name} must be {' x '.join(map(str, shape))} finite value(s)")


# The variance rate of each asset under each ``cov_preset``; with the default
# trading-day step, ``us_one_fund`` gives 18% annualised volatility.
_COV_PRESETS = {"identity": 1.0, "us_one_fund": 0.18 ** 2}


def parse_scenario(text: str) -> SimScenario:
    """Parse a plain ``key = value`` scenario description; ``SimScenario`` checks it.

    Vectors are comma-separated, matrices use ``;`` between rows, ``#`` starts a
    comment.  Unknown and repeated keys and unparsable values raise ``ConfigError``.
    """
    from .tableio import read_config
    return SimScenario(**read_config(text, _SCENARIO_KINDS, "scenario"))


def run_scenario(scenario: SimScenario, seed: int) -> MarketPath:
    """Simulate one path for a scenario from ``seed``, drawing ``nu`` from the prior
    if unset; ``ConfigError`` if ``nu`` or an increment is not finite."""
    nu = scenario.nu
    if scenario.f is not None:
        with np.errstate(over="ignore", invalid="ignore"):     # refused below
            nu = scenario.f @ scenario.theta
    elif nu is None:
        nu = draw_prior(scenario, seed)
    clock = uniform_clock(scenario.steps, scenario.dt)
    # Path noise uses an offset stream so it never aliases the prior draw.
    with np.errstate(over="ignore", invalid="ignore"):     # refused just below
        path = simulate_path(nu, scenario.cov, clock, seed + 1) if np.isfinite(nu).all() else None
    if path is None or not np.isfinite(path.increments).all():
        raise ConfigError("the simulated path overflows double precision: "
                          "the scenario's cov, nu or dt is too large")
    return path


def write_path_csv(path: MarketPath, out: IO[str], fund: Optional[FundSpec] = None) -> int:
    """Write a path in the backtest input schema ``date,ret_1..ret_K,rf``, one
    calendar day per step from ``_FIRST_DATE``.

    Fund scenarios export the fund returns ``f' dR``; otherwise each asset is
    exported as its own column.  Simulated returns are already excess returns,
    so ``rf`` is written as zero.  Returns the number of data rows written.
    """
    from .tableio import block_rows, write_table
    # one product for the whole path: BLAS may round a row of a smaller product otherwise
    rets = path.increments if fund is None else path.increments @ fund.f
    header = ["date"] + [f"ret_{j + 1}" for j in range(rets.shape[1])] + ["rf"]

    def blocks() -> Iterator[tuple]:     # dates and rows are made a block at a time
        for start in range(0, len(rets), size := block_rows(len(header))):
            block, first = rets[start:start + size], _FIRST_DATE.toordinal() + start
            yield (list(map(datetime.date.fromordinal, range(first, first + len(block)))),
                   np.column_stack([block, np.zeros(len(block))]))

    return write_table(out, header, blocks())
