"""Posterior law of the growth-optimal portfolio under partial information.

Under a Gaussian prior the conditional law of the growth-optimal portfolio
given the observed returns is Gaussian with mean ``C^{-1} R`` and covariance
``C^{-1}``, where ``R`` and ``C`` are the cumulative return vector and
integrated covariance including their prior anchors.  In one dimension the
prior may be truncated to an interval, with moments by quadrature about the peak.

The module also provides the growth functionals built from those two
moments: the achievable growth increment, the expected growth given up to
estimation uncertainty (``tr(kappa dC) / 2``), its restriction to a smaller
investment universe, and the conditional variance of a portfolio's growth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DegenerateInterval, SingularC
from .psd import CovMatrix, inverse_entries, subspace_pinv

MatrixLike = Union[CovMatrix, np.ndarray]


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


@functools.cache
def _nodes() -> tuple[np.ndarray, np.ndarray]:     # on (-1, 1), with their weights
    from numpy.polynomial.legendre import leggauss
    return leggauss(48)


def truncated_moments(r_cum, c_cum, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance under a prior truncated to ``(lower, upper)``.

    The law is ``N(R/C, 1/C)`` on the interval.  Its moments are sums over 48 Gauss-Legendre
    nodes at offsets ``t`` from its peak ``m`` (``R/C`` clipped to the interval), where the
    density relative to the peak, ``exp(-t (C t / 2 + C m - R))``, is above ``e^-40``.
    Nothing is standardised, so neither a narrow interval nor a far tail cancels.  An
    interval above the mean is mirrored, so a law and its reflection give opposite means
    bit for bit; the mean is kept strictly inside the interval.  ``r_cum`` and ``c_cum`` may
    be arrays of one-dimensional statistics (one per day, say), taken elementwise.  Raises
    ``DegenerateInterval`` where the variance is not positive: below the double range.
    """
    r_cum, c_cum = np.asarray(r_cum, dtype=float), np.asarray(c_cum, dtype=float)
    if not np.all(c_cum > 0.0):
        raise SingularC("cumulative covariance must be positive")
    if not lower < upper:
        raise ValueError(f"empty interval ({lower}, {upper})")
    with np.errstate(over="ignore", invalid="ignore"):     # R/C may overflow; NaN is refused
        mirror = lower > r_cum / c_cum
        lo, hi = np.where(mirror, -upper, lower), np.where(mirror, -lower, upper)
        r_cum = np.where(mirror, -r_cum, r_cum)
        peak = np.clip(r_cum / c_cum, lo, hi)
        slope = c_cum * peak - r_cum     # about 0 at an inner peak; t * slope >= 0 on (lo, hi)
        # the exponent is -40 at the offset that solves C t^2 / 2 + |slope| t = 40
        reach = 80.0 / (np.abs(slope) + np.hypot(slope, math.sqrt(80.0) * np.sqrt(c_cum)))
        a, b = np.maximum(lo - peak, -reach), np.minimum(hi - peak, reach)
        mid, half, half_c = 0.5 * (a + b), 0.5 * (b - a), 0.5 * c_cum
        s0 = s1 = s2 = 0.0
        for x, w in zip(*_nodes()):
            t = mid + half * x
            e = w * np.exp(-t * (half_c * t + slope))
            s0, s1, s2 = s0 + e, s1 + t * e, s2 + t * t * e
        shift, kappa = s1 / s0, s2 / s0 - (s1 / s0) ** 2
    if not np.all(kappa > 0.0):
        raise DegenerateInterval(f"interval ({lower}, {upper}) leaves no posterior variance")
    nu_hat = np.where(mirror, -(peak + shift), peak + shift)
    return np.clip(nu_hat, np.nextafter(lower, upper), np.nextafter(upper, lower)), kappa


def truncated_posterior_1d(r_cum: float, c_cum: float, lower: float, upper: float) -> PosteriorState:
    """One-dimensional posterior under a prior truncated to ``(lower, upper)``: see
    ``truncated_moments``."""
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
