"""Columns of a backtest that only the tests read, derived from a ``BacktestSeries``:
the posterior covariance ``kappa`` and the shrunk portfolio ``rho`` per date."""

import math
from types import SimpleNamespace

import numpy as np

from fundgrowth.backtest import _one_fund_posterior


def kappa(bt, truncation=None):
    """Posterior covariance per date, NaN in burn-in: ``C^{-1}`` symmetrised, or
    for one fund the variance of ``_one_fund_posterior`` under the config's
    ``truncation``."""
    b = bt.burn_in
    out = np.full(bt.c_cum.shape, math.nan)
    if bt.k == 1:
        out[b:, 0, 0] = _one_fund_posterior(bt.r_cum[b:, 0], bt.c_cum[b:, 0, 0], truncation)[1]
    else:
        inverse = np.linalg.inv(bt.c_cum[b:])
        np.add(inverse, inverse.swapaxes(1, 2), out=out[b:])
        out[b:] *= 0.5
    return out


def with_posterior(bt, config):
    """The fields of ``bt`` as a namespace, with ``kappa`` and ``rho = a * nu_hat``."""
    return SimpleNamespace(**vars(bt), kappa=kappa(bt, config.truncation),
                           rho=bt.a[:, None] * bt.nu_hat)
