"""Reference implementation of ``run_backtest``: the per-day loop.

This is the streaming engine the library used before the backtest became a
whole-series array computation.  It is kept as the oracle of the
differential tests, its arithmetic unchanged (only its result is now a plain
namespace): every output of ``fundgrowth.backtest.run_backtest`` must match
``run_oracle`` on the same series and config.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from fundgrowth import filtering, shrinkage
from fundgrowth.backtest import BacktestConfig, ReturnSeries
from fundgrowth.errors import ConfigError, InsufficientBurnIn
from fundgrowth.psd import CovMatrix

_WEALTH_FLOOR = 1e-12


class BacktestEngine:
    """Streaming accumulator; feeding rows one at a time or in chunks is
    equivalent to a single pass."""

    def __init__(self, k: int, config: BacktestConfig):
        self.k = k
        self.config = config
        if config.truncation is not None and k != 1:
            raise ConfigError("truncation requires a single fund")
        if config.nu0 is not None:
            kappa0 = CovMatrix(config.kappa0)
            w = kappa0.eigenvalues
            if w[-1] <= 1e-12 * w[0] or w[0] <= 0.0:
                raise ConfigError("kappa0 must be positive definite")
            c0 = (kappa0.eigenvectors / w) @ kappa0.eigenvectors.T
            r0 = c0 @ np.asarray(config.nu0, dtype=float).reshape(-1)
            if r0.size != k:
                raise ConfigError(f"nu0 has size {r0.size}, series has {k} fund(s)")
        else:
            c0 = np.zeros((k, k))
            r0 = np.zeros(k)
        self._r = r0
        self._c = 0.5 * (c0 + c0.T)
        self._mean = np.zeros(k)
        self._t = 0
        self.floored_steps = 0
        self._force_nu = (
            None if config.force_nu_hat is None
            else np.asarray(config.force_nu_hat, dtype=float).reshape(-1)
        )
        self._nan_vec = np.full(k, math.nan)
        self._nan_mat = np.full((k, k), math.nan)
        self._nan_vec.setflags(write=False)
        self._nan_mat.setflags(write=False)

        self._dates: list = []
        self._excess: list = []
        self._r_rows: list = []
        self._c_rows: list = []
        self._nu_rows: list = []
        self._kap_rows: list = []
        self._psi: list = []
        self._a: list = []
        self._lw_m: list = []
        self._lw_n: list = []
        self._lw_s: list = []
        self._f: list = []

        self._prev_nu: Optional[np.ndarray] = None
        self._prev_a = math.nan
        self._cur_m = self._cur_n = self._cur_s = self._cur_f = math.nan

    # -- accumulation ------------------------------------------------------

    def _accumulate(self, x: np.ndarray) -> None:
        self._r = self._r + x
        if self.config.demean_covariance:
            n = self._t + 1
            delta = x - self._mean
            self._mean = self._mean + delta / n
            self._c = self._c + delta[:, None] * (x - self._mean)
        else:
            self._c = self._c + x[:, None] * x

    def _posterior(self):
        cfg = self.config
        if cfg.truncation is not None:
            nu, kap = filtering.truncated_posterior_1d(
                float(self._r[0]), float(self._c[0, 0]), *cfg.truncation
            )
        elif self.k == 1:
            c = float(self._c[0, 0])
            nu = np.array([float(self._r[0]) / c])
            kap = np.array([[1.0 / c]])
        else:
            nu, kap = filtering.gaussian_posterior(self._r, CovMatrix(0.5 * (self._c + self._c.T)))
        if self._force_nu is not None:
            nu = self._force_nu
        if self.k == 1:
            psi = shrinkage.psi_one_fund(float(nu[0]), float(kap[0, 0]))
        else:
            psi = 3.375 * float(nu @ self._c @ nu)  # = (3/2)^3 R'C^{-1}R when nu = C^{-1}R
        a = cfg.force_a if cfg.force_a is not None else shrinkage.cardano_a(psi)
        return nu, kap, psi, a

    def step(self, day, returns: Sequence[float], rf: float) -> None:
        x = np.asarray(returns, dtype=float).reshape(-1) - rf
        self._accumulate(x)
        t = self._t
        burn_in = self.config.burn_in_days

        if t < burn_in:
            nu = kap = None
            psi = a = math.nan
        else:
            if t == burn_in:
                w = np.linalg.eigvalsh(0.5 * (self._c + self._c.T))
                if w[0] <= 1e-12 * max(w[-1], 0.0) or w[-1] <= 0.0:
                    raise InsufficientBurnIn(
                        "cumulative covariance is not positive definite at burn-in end"
                    )
                self._cur_m = self._cur_n = self._cur_s = self._cur_f = 0.0
            else:
                prev_nu, prev_a = self._prev_nu, self._prev_a
                market = float(x.mean())  # equal weight across the K funds
                growth = float(prev_nu @ x)
                self._cur_m += self._log1p_floor(market)
                self._cur_n += self._log1p_floor(growth)
                self._cur_s += self._log1p_floor(prev_a * growth)
                self._cur_f += 0.5 * growth * growth
            nu, kap, psi, a = self._posterior()
            self._prev_nu, self._prev_a = nu, a

        self._dates.append(day)
        self._excess.append(x)
        # _accumulate rebinds (never mutates) _r and _c, so rows can share.
        self._r_rows.append(self._r)
        self._c_rows.append(self._c)
        self._nu_rows.append(self._nan_vec if nu is None else np.asarray(nu, dtype=float))
        self._kap_rows.append(self._nan_mat if kap is None else np.asarray(kap, dtype=float))
        self._psi.append(psi)
        self._a.append(a)
        self._lw_m.append(self._cur_m)
        self._lw_n.append(self._cur_n)
        self._lw_s.append(self._cur_s)
        self._f.append(self._cur_f)
        self._t += 1

    def _log1p_floor(self, gross_change: float) -> float:
        if gross_change <= -1.0 + _WEALTH_FLOOR:
            self.floored_steps += 1
            return math.log(_WEALTH_FLOOR)
        return math.log1p(gross_change)

    def extend(self, series: ReturnSeries) -> "BacktestEngine":
        if series.k != self.k:
            raise ValueError(f"series has {series.k} fund(s), engine expects {self.k}")
        for i in range(series.n):
            self.step(series.dates[i], series.fund_returns[i], float(series.risk_free[i]))
        return self

    def result(self) -> SimpleNamespace:
        if self._t <= self.config.burn_in_days:
            raise InsufficientBurnIn(
                f"series has {self._t} row(s), burn-in needs more than "
                f"{self.config.burn_in_days}"
            )
        a = np.array(self._a)
        nu = np.array(self._nu_rows)
        return SimpleNamespace(
            dates=tuple(self._dates),
            excess=np.array(self._excess),
            r_cum=np.array(self._r_rows),
            c_cum=np.array(self._c_rows),
            nu_hat=nu,
            kappa=np.array(self._kap_rows),
            psi=np.array(self._psi),
            a=a,
            rho=a[:, None] * nu,
            log_wealth_market=np.array(self._lw_m),
            log_wealth_nuhat=np.array(self._lw_n),
            log_wealth_shrunk=np.array(self._lw_s),
            f_growth=np.array(self._f),
            burn_in=self.config.burn_in_days,
            floored_steps=self.floored_steps,
        )


def run_oracle(series: ReturnSeries, config: Optional[BacktestConfig] = None) -> SimpleNamespace:
    """Backtest ``series`` one day at a time; the result has the attributes of a
    ``BacktestSeries``, with ``kappa`` and ``rho`` stored."""
    config = config or BacktestConfig()
    if series.n <= config.burn_in_days:
        raise InsufficientBurnIn(
            f"series has {series.n} row(s), burn-in needs more than {config.burn_in_days}"
        )
    return BacktestEngine(series.k, config).extend(series).result()
