"""Shrinkage of the filtered growth-optimal portfolio.

The filtered portfolio maximises expected log-growth given the observations, but realised
growth scatters widely around it when the posterior covariance is large.  The shrunk portfolio
minimises the mean squared deviation of realised growth from the achievable optimum,

    objective(pi) = ||dC^{1/2} (pi - nu_hat)||^4 / 4 + ||kappa^{1/2} dC pi||^2,

whose unique minimiser is ``(id + kappa dC / b)^{-1} nu_hat``, the scalar ``b`` (the growth
given up locally) the root of a fixed-point equation that Newton's method solves.  With a single
fund, or Bayesian updating under a constant covariance rate, it is a uniform multiplier ``a`` of
the filtered portfolio, the root of a cubic in closed form.  All functions are pure and safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergence, SingularC
from .psd import CovMatrix, is_definite

# Residual target |f(b) - b| <= RESIDUAL_TOL * b.
RESIDUAL_TOL = 1e-12
MAX_ITERATIONS = 200
# ||h z|| below this relative level counts as z in ker(h): no shrinkage.
_DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of ``sum_i (s_i/(s_i+b))^2 w_i / 2 = b``."""

    b: float
    iterations: int
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class ShrinkResult:
    """Shrunk portfolio and the scalars describing the trade it makes.

    ``b`` is the expected growth given up relative to the filtered portfolio, ``e_sq`` the
    minimised squared tracking error, ``psi`` the uniform-case parameter, and ``a`` the uniform
    multiplier (set when the problem is uniform: one fund, or curvature proportional to identity).
    """

    rho: np.ndarray
    b: float
    a: Optional[float]
    psi: float
    e_sq: float
    iterations: int
    residual: float
    degenerate: bool


def solve_b(h: CovMatrix, z: np.ndarray) -> FixedPointResult:
    """Solve the scalar fixed point for the growth give-up ``b``.

    In the eigenbasis of ``h`` (eigenvalues ``s_i``, weights ``w_i`` of ``z``) ``b`` is the
    root of ``g(b) = f(b) - b``, ``f(b) = sum_i q_i / 2``, ``q_i = (sqrt(w_i) s_i / (s_i + b))^2``
    (a form that does not underflow where ``q_i`` is representable).  ``g`` is convex and
    strictly decreasing, so Newton's method from below the root, ``b += g / (1 + sum_i q_i /
    (s_i + b))``, rises to it without passing it: each tangent of a convex function lies below
    it.  The ``s_i`` are nonincreasing and ``s^2 / (s + b)^2`` rises with ``s``, so ``f(b) >=
    W_j s_j^2 / (2 (s_j + b)^2)``, ``W_j = sum_{i<=j} w_i``, for each positive ``s_j``.  Newton
    starts at the largest finite root of these bounds, ``cardano_a``'s cubic at ``psi_j = 27 W_j
    / (8 s_j)``: ``(2 sqrt(s_j) v_j / sqrt(3))^2`` with ``v_j = _cubic_v(sqrt(W_j), sqrt(s_j) /
    1.5^1.5)``, ``sqrt(s_j)`` taken first (``s_j / 3`` rounds a subnormal ``s_j``); or at 0.
    It stops at ``|g| <= RESIDUAL_TOL * b``; near the root the divisor is at most 3, so
    rounding stops short of that only if the step underflows: ``NoConvergence``.  ``z`` must be
    finite; if ``h z = 0`` the problem is degenerate and ``b = 0``; otherwise the ``w_i`` must
    not overflow (``ValueError``).
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != h.dim:
        raise ValueError(f"z has size {z.size}, h has dim {h.dim}")
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    z_max = float(np.abs(z).max())
    unit = z / z_max if z_max > 0.0 else z      # h z itself may overflow; hypot does not
    if math.hypot(*h.entries @ unit) <= _DEGENERATE_RTOL * h.eigenvalues[0] * math.hypot(*unit):
        return FixedPointResult(b=0.0, iterations=0, residual=0.0, degenerate=True)

    mask = h.eigenvalues > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        s, root_w = h.eigenvalues[mask], np.abs(h.eigenvectors.T @ z)[mask]
        w_cum = np.cumsum(root_w ** 2)
        if not np.isfinite(w_cum[-1]):
            raise ValueError("z is too large: its squared eigen-coordinates overflow")
        root_s = np.sqrt(s)
        v = _cubic_v(np.sqrt(w_cum), root_s / 1.5 ** 1.5)
        starts = (2.0 / math.sqrt(3.0) * root_s * v) ** 2
    b = float(np.max(starts, where=np.isfinite(starts), initial=0.0))
    for iteration in range(1, MAX_ITERATIONS + 1):
        d = s + b
        q = (root_w * (s / d)) ** 2
        g = 0.5 * float(q.sum()) - b
        if abs(g) <= RESIDUAL_TOL * b:
            return FixedPointResult(b, iteration, abs(g), False)
        step = g / (1.0 + float(np.sum(q / d)))
        if not b + step > b:
            break
        b += step
    raise NoConvergence(f"fixed point not reached after {iteration} iterations")


def shrink_portfolio(nu_hat: np.ndarray, kappa: CovMatrix, d_c: CovMatrix) -> ShrinkResult:
    """Portfolio minimising mean squared deviation from the achievable growth.

    Requires ``d_c`` positive definite and ``kappa`` PSD.  The returned
    ``rho`` satisfies ``rho = (id + kappa dC / b)^{-1} nu_hat`` and gives up
    ``b = ||dC^{1/2}(rho - nu_hat)||^2 / 2`` of growth; in the degenerate
    case ``kappa dC nu_hat = 0`` no shrinkage happens and ``rho = nu_hat``.
    """
    nu_hat = np.asarray(nu_hat, dtype=float).reshape(-1)
    w = d_c.eigenvalues
    if not is_definite(w[-1], w[0]):
        raise SingularC("dC must be positive definite")
    if kappa.dim != d_c.dim or nu_hat.size != d_c.dim:
        raise ValueError("nu_hat, kappa and dC dims disagree")

    root = (d_c.eigenvectors * np.sqrt(w)) @ d_c.eigenvectors.T
    inv_root = (d_c.eigenvectors / np.sqrt(w)) @ d_c.eigenvectors.T
    h = CovMatrix(root @ kappa.entries @ root)
    with np.errstate(invalid="ignore", over="ignore"):
        z = root @ nu_hat                   # solve_b refuses a z that is not finite
    fp = solve_b(h, z)

    d_f = 0.5 * float(z @ z)
    d_v_sq = float(z @ h.entries @ z)
    psi = 13.5 * d_f * d_f / d_v_sq if d_v_sq > 0.0 else math.inf

    if fp.degenerate:
        return ShrinkResult(
            rho=nu_hat.copy(), b=0.0, a=1.0, psi=psi, e_sq=0.0,
            iterations=fp.iterations, residual=fp.residual, degenerate=True,
        )

    s = h.eigenvalues
    coords = h.eigenvectors.T @ z
    y = h.eigenvectors @ (coords * (fp.b / (s + fp.b)))
    rho = inv_root @ y

    e_sq = fp.b ** 2 + float(y @ h.entries @ y)
    spread = float(s[0] - s[-1])
    uniform = h.dim == 1 or spread <= 1e-12 * s[0]
    a = fp.b / (fp.b + float(s.mean())) if uniform else None
    return ShrinkResult(
        rho=rho, b=fp.b, a=a, psi=psi, e_sq=e_sq,
        iterations=fp.iterations, residual=fp.residual, degenerate=False,
    )


def _cubic_v(num, den):
    """``sinh(asinh(num / den) / 3)`` elementwise: the real root ``v`` of ``4 v^3 + 3 v = num /
    den``, which neither cancels nor overflows; where ``num / den`` overflows, asinh is taken
    as ``log(2 num) - log(den)``."""
    with np.errstate(over="ignore", divide="ignore"):
        x = num / den
        return np.sinh(np.where(np.isinf(x), np.log(2.0 * num) - np.log(den), np.arcsinh(x)) / 3.0)


def cardano_a(psi):
    """Uniform shrink factor: the root ``a`` in ``[0, 1)`` of ``a = (4 psi / 27) (1 - a)^3``, the
    stationarity condition of the uniform tracking objective, as ``1 / (1 + 0.75 / v^2)`` with
    ``v = _cubic_v(sqrt(psi), 1)``, the form of ``solve_b``'s start: within a few ulp of the
    root from ``psi = 1e-300`` up, and 0 below about 4e-308, where ``1 / a`` overflows.  An
    array ``psi`` is evaluated elementwise; a scalar returns a ``float``."""
    psi = np.asarray(psi, dtype=float)
    if np.any(psi < 0.0):
        raise ValueError("psi must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        a = 1.0 / (1.0 + 0.75 / _cubic_v(np.sqrt(psi), 1.0) ** 2)
    return float(a) if a.ndim == 0 else a


def psi_one_fund(nu_hat, kappa):
    """Uniform-case parameter with a single fund: ``(3/2)^3 nu_hat^2 / kappa``.

    Under Bayesian updating ``nu_hat^2 / kappa = R^2 / C``, so the value
    depends only on integrated quantities, never on the covariance rate.
    Arrays of per-day values are evaluated elementwise.
    """
    if np.any(np.asarray(kappa) <= 0.0):
        raise ValueError("kappa must be positive")
    return 3.375 * nu_hat * nu_hat / kappa

