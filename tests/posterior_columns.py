"""Columns of a backtest that only the tests read, derived from a ``BacktestSeries``:
the posterior covariance ``kappa`` and the shrunk portfolio ``rho`` per date; the
uniform-case parameter ``psi_constant_cov`` of a posterior under a constant covariance rate;
and ``quad_truncated_moments``, the quadrature oracle of a truncated one-fund posterior."""

import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from fundgrowth.filtering import truncated_moments
from fundgrowth.psd import CovMatrix, inverse_entries


def kappa(bt, truncation=None):
    """Posterior covariance per date, NaN in burn-in: ``C^{-1}`` symmetrised, or
    for one fund ``1/C``, or the variance of ``truncated_moments`` under the config's
    ``truncation``."""
    b = bt.burn_in
    out = np.full(bt.c_cum.shape, math.nan)
    if bt.k == 1:
        r, c = bt.r_cum[b:, 0], bt.c_cum[b:, 0, 0]
        out[b:, 0, 0] = 1.0 / c if truncation is None else truncated_moments(r, c, *truncation)[1]
    else:
        inverse = np.linalg.inv(bt.c_cum[b:])
        np.add(inverse, inverse.swapaxes(1, 2), out=out[b:])
        out[b:] *= 0.5
    return out


def with_posterior(bt, config):
    """The fields of ``bt`` as a namespace, with ``kappa`` and ``rho = a * nu_hat``."""
    return SimpleNamespace(**vars(bt), kappa=kappa(bt, config.truncation),
                           rho=bt.a[:, None] * bt.nu_hat)


def psi_constant_cov(r_cum: np.ndarray, c_cum: CovMatrix) -> float:
    """Uniform-case parameter under a constant covariance rate: ``(3/2)^3 R'C^{-1}R``."""
    r_cum = np.asarray(r_cum, dtype=float).reshape(-1)
    kappa = inverse_entries(c_cum)
    return 3.375 * float(r_cum @ kappa @ r_cum)


def quad_truncated_moments(r, c, lo, hi):
    """Mean and variance of the density ``exp(x r - c x^2 / 2)`` on ``(lo, hi)``, by
    scipy's adaptive quadrature, independent of ``truncated_moments``."""
    peak = min(max(r / c, lo), hi)

    def density(x):
        return math.exp(x * r - 0.5 * c * x * x - (peak * r - 0.5 * c * peak * peak))

    z, _ = quad(density, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    m1, _ = quad(lambda x: x * density(x), lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    m2, _ = quad(lambda x: x * x * density(x), lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    mean = m1 / z
    return mean, m2 / z - mean * mean
