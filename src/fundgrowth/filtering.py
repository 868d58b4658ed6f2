"""Posterior law of the growth-optimal portfolio under partial information.

Under a Gaussian prior the conditional law of the growth-optimal portfolio
given the observed returns is Gaussian with mean ``C^{-1} R`` and covariance
``C^{-1}``, where ``R`` and ``C`` are the cumulative return vector and
integrated covariance including their prior anchors.  In one dimension the
prior may be truncated to an interval, with closed-form moments.

The module also provides the growth functionals built from those two
moments: the achievable growth increment, the expected growth given up to
estimation uncertainty (``tr(kappa dC) / 2``), its restriction to a smaller
investment universe, and the conditional variance of a portfolio's growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DegenerateInterval, SingularC
from .psd import CovMatrix, inverse_entries, subspace_pinv

MatrixLike = Union[CovMatrix, np.ndarray]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])


def ndtr(x):
    """Standard normal CDF, elementwise; ``erfc`` keeps full relative precision far below zero."""
    return 0.5 * _erfc(-np.asarray(x, dtype=float) * math.sqrt(0.5))


def _as_cov(m: MatrixLike) -> CovMatrix:
    return m if isinstance(m, CovMatrix) else CovMatrix(m)


@dataclass(frozen=True)
class PosteriorState:
    """Posterior mean and covariance together with the statistics behind them.

    ``r_cum`` and ``c_cum`` include the prior anchors ``kappa0^{-1} nu0`` and
    ``kappa0^{-1}`` when an informative prior is used; with zero anchors the
    state realises the uninformative-prior limit once ``c_cum`` is positive
    definite.  Instances are immutable.
    """

    r_cum: np.ndarray
    c_cum: CovMatrix
    nu_hat: np.ndarray
    kappa: CovMatrix
    truncation: Optional[tuple[float, float]] = None

    @property
    def dim(self) -> int:
        return self.r_cum.size


def gaussian_posterior(r_cum: np.ndarray, c_cum: MatrixLike) -> PosteriorState:
    """Gaussian posterior: mean ``C^{-1} R``, covariance ``C^{-1}``; raises
    ``SingularC`` unless ``C`` is positive definite."""
    r_cum = np.asarray(r_cum, dtype=float).reshape(-1)
    c_cum = _as_cov(c_cum)
    if r_cum.size != c_cum.dim:
        raise ValueError(f"R has size {r_cum.size}, C has dim {c_cum.dim}")
    kappa = inverse_entries(c_cum)
    return PosteriorState(
        r_cum=r_cum,
        c_cum=c_cum,
        nu_hat=kappa @ r_cum,
        kappa=CovMatrix(kappa),
    )


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI      # zero at +-infinity


def _x_phi(x: np.ndarray) -> np.ndarray:
    # x * pdf(x), with the correct zero limit at +-infinity.
    x = np.where(np.isfinite(x), x, 0.0)
    return x * _phi(x)


def truncated_moments(r_cum, c_cum, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance under a prior truncated to ``(lower, upper)``.

    The conditional law is a truncated normal; mean and variance follow the
    usual closed forms in the standardised endpoints
    ``lower*sqrt(C) - R/sqrt(C)`` and ``upper*sqrt(C) - R/sqrt(C)``, taken in the
    lower tail: an interval above the mean is mirrored.
    ``r_cum`` and ``c_cum`` may be arrays of one-dimensional statistics (one
    per day, say); the moments are computed elementwise.  Raises
    ``DegenerateInterval`` when an interval carries no mass.
    """
    r_cum = np.asarray(r_cum, dtype=float)
    c_cum = np.asarray(c_cum, dtype=float)
    if not np.all(c_cum > 0.0):
        raise SingularC("cumulative covariance must be positive")
    if not lower < upper:
        raise ValueError(f"empty interval ({lower}, {upper})")
    root_c = np.sqrt(c_cum)
    lo = lower * root_c - r_cum / root_c
    hi = upper * root_c - r_cum / root_c
    # Above the mean ndtr saturates at 1.0, so an interval there is mirrored to (-hi, -lo),
    # where ndtr keeps full relative precision; the mirror flips the mean, not the variance.
    mirror = lo > 0.0
    lo, hi = np.where(mirror, -hi, lo), np.where(mirror, -lo, hi)
    mass = ndtr(hi) - ndtr(lo)
    if np.any(mass < 1e-300):
        raise DegenerateInterval(f"interval ({lower}, {upper}) carries no posterior mass")
    ratio = (_phi(lo) - _phi(hi)) / mass
    nu_hat = r_cum / c_cum + np.where(mirror, -ratio, ratio) / root_c
    kappa = (1.0 + (_x_phi(lo) - _x_phi(hi)) / mass - ratio ** 2) / c_cum
    return nu_hat, kappa


def truncated_posterior_1d(r_cum: float, c_cum: float, lower: float, upper: float) -> PosteriorState:
    """One-dimensional posterior under a prior truncated to ``(lower, upper)``.

    See ``truncated_moments`` for the closed form and its errors.
    """
    nu_hat, kappa = truncated_moments(r_cum, c_cum, lower, upper)
    return PosteriorState(
        r_cum=np.array([float(r_cum)]),
        c_cum=CovMatrix([[float(c_cum)]]),
        nu_hat=np.array([float(nu_hat)]),
        kappa=CovMatrix([[float(kappa)]]),
        truncation=(lower, upper),
    )


def f_growth_increment(nu_hat: np.ndarray, d_c: MatrixLike) -> float:
    """Achievable growth increment ``nu_hat' dC nu_hat / 2`` under observation."""
    nu_hat = np.asarray(nu_hat, dtype=float).reshape(-1)
    d_c = _as_cov(d_c)
    return 0.5 * float(nu_hat @ d_c.entries @ nu_hat)


def growth_loss(kappa: MatrixLike, d_c: MatrixLike) -> float:
    """Expected growth given up to estimation uncertainty: ``tr(kappa dC) / 2``.

    With ``kappa = C^{-1}`` this equals half the increment of
    ``log det(C)``.
    """
    kappa = _as_cov(kappa)
    d_c = _as_cov(d_c)
    if kappa.dim != d_c.dim:
        raise ValueError("kappa and dC dims disagree")
    return 0.5 * float(np.trace(kappa.entries @ d_c.entries))


def restricted_growth_loss(kappa: MatrixLike, d_c: MatrixLike, f) -> float:
    """Growth loss when investment is restricted to the span of the fund frame ``f``:
    ``tr(pinv dC kappa dC) / 2``, ``pinv = subspace_pinv(dC, f)``.

    Never exceeds the unrestricted loss, and is monotone in the span:
    smaller investment universes lose less growth to estimation.
    """
    kappa = _as_cov(kappa)
    d_c = _as_cov(d_c)
    pinv = subspace_pinv(d_c, f)
    return 0.5 * float(np.trace(pinv @ d_c.entries @ kappa.entries @ d_c.entries))


def portfolio_growth_variance(pi: np.ndarray, kappa: MatrixLike, d_c: MatrixLike) -> float:
    """Conditional variance of a portfolio's growth: ``pi' dC kappa dC pi``."""
    pi = np.asarray(pi, dtype=float).reshape(-1)
    kappa = _as_cov(kappa)
    d_c = _as_cov(d_c)
    v = d_c.entries @ pi
    return float(v @ kappa.entries @ v)
