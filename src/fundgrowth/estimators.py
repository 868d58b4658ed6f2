"""Local frequentist estimation of the fund exposures of growth optimality.

Within a short window of observations the drift of the fund combination
``x' dR`` is estimated by the raw window sum, and the exposure vector follows
from the observable cross-covariance.  Two quality functionals are provided:
the mean squared error of the exposure estimate and the expected distance
from growth optimality of the implied portfolio.  Both are minimised by
estimating through the funds themselves, and the minimal distance depends on
nothing but the number of funds: it equals ``K / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularCrossCovariance
from .psd import CovMatrix, is_definite, is_full_rank, sqrt_entries


@dataclass(frozen=True)
class LocalWindow:
    """A window of return increments plus the observable covariance rate.

    ``combination`` is the assets x funds matrix the estimator reads returns
    through; ``d_o`` is the operational-clock length of the window.
    """

    increments: np.ndarray
    cov_rate: CovMatrix
    d_o: float
    combination: np.ndarray

    def __post_init__(self):
        incr = np.atleast_2d(np.asarray(self.increments, dtype=float))
        comb = _frame(self.combination)
        object.__setattr__(self, "increments", incr)
        object.__setattr__(self, "combination", comb)
        if incr.shape[0] < 1:
            raise ValueError("window needs at least one increment")
        if incr.shape[1] != self.cov_rate.dim or comb.shape[0] != self.cov_rate.dim:
            raise ValueError("increments, combination and cov_rate dims disagree")
        if self.d_o <= 0.0:
            raise ValueError("window length d_o must be positive")
        w = self.cov_rate.eigenvalues
        if not is_definite(w[-1], w[0]):
            raise ValueError("cov_rate must have full rank")


def _frame(m) -> np.ndarray:
    """``m`` as a float array; a vector is a one-column frame."""
    m = np.asarray(m, dtype=float)
    return m[:, None] if m.ndim == 1 else m


def _cross_cov(x: np.ndarray, c: CovMatrix, y: np.ndarray, d_o: float) -> np.ndarray:
    return x.T @ c.entries @ y * d_o


def _check_rank(m: np.ndarray) -> None:
    if not is_full_rank(m):
        raise SingularCrossCovariance("cross-covariance with the funds is singular")


def _checked_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _check_rank(m)
    return np.linalg.solve(m, rhs)


def estimate_theta(window: LocalWindow, f: np.ndarray) -> np.ndarray:
    """Exposure estimate ``(x'cf dO)^{-1} x' sum(dR)`` from one window.

    Unbiased when the increments carry drift ``c f theta dO``; invariant under
    replacing the combination ``x`` by ``x g`` for invertible ``g``.
    """
    f = _frame(f)
    x = window.combination
    d_a_hat = x.T @ window.increments.sum(axis=0)
    m = _cross_cov(x, window.cov_rate, f, window.d_o)
    return _checked_solve(m, d_a_hat)


def frobenius_objective(c: CovMatrix, eta: np.ndarray, f: np.ndarray, x: np.ndarray,
                        d_o: float = 1.0) -> float:
    """Squared Frobenius norm of ``c_xx^{1/2} c_fx^{-1} eta`` (dO-scaled).

    The estimation-quality functionals below are instances of this quantity;
    over all combinations ``x`` it is minimised at ``x = f``.
    """
    f, x = _frame(f), _frame(x)
    eta = np.asarray(eta, dtype=float)
    c_fx = _cross_cov(f, c, x, d_o)
    c_xx = _cross_cov(x, c, x, d_o)
    b = _checked_solve(c_fx, eta)
    root = sqrt_entries(CovMatrix(0.5 * (c_xx + c_xx.T)))
    return float(np.sum((root @ b) ** 2))


def mse(x: np.ndarray, f: np.ndarray, c: CovMatrix, d_o: float) -> float:
    """Mean squared error of the exposure estimate built from combination ``x``."""
    f = _frame(f)
    return frobenius_objective(c, np.eye(f.shape[1]), f, x, d_o)


def dis(x: np.ndarray, f: np.ndarray, c: CovMatrix, d_o: float) -> float:
    """Expected distance from growth optimality of the estimated portfolio.

    At ``x = f`` the value collapses to ``K / 2`` identically, independent of
    the covariance rate, the loadings, and the window length; that case is
    short-circuited so no spurious round-off appears, once ``c_ff`` has passed
    the rank and definiteness checks every other ``x`` meets.
    """
    f, x = _frame(f), _frame(x)
    c_ff = _cross_cov(f, c, f, d_o)
    _check_rank(c_ff)
    eta = sqrt_entries(CovMatrix(0.5 * (c_ff + c_ff.T)))
    if x.shape == f.shape and np.array_equal(x, f):
        return 0.5 * f.shape[1]
    return 0.5 * frobenius_objective(c, eta, f, x, d_o)


@dataclass(frozen=True)
class McDistance:
    """Monte-Carlo estimate of the distance from growth optimality."""

    mean: float
    stderr: float


def mc_distance_from_growth(
    f: np.ndarray,
    c: CovMatrix,
    theta: np.ndarray,
    d_o: float,
    n_windows: int,
    seed: int,
) -> McDistance:
    """Simulate windows, estimate through the funds, average the growth gap.

    Each window is one ``marketsim.euler_step`` with ``nu = f theta``; the
    realised gap is half the squared ``dC``-norm of the estimation error of
    the portfolio, whose expectation is ``K / 2`` for every market.  The
    standard error needs ``n_windows >= 2``.
    """
    if n_windows < 2:
        raise ValueError(f"n_windows must be at least 2, got {n_windows}")
    from .marketsim import euler_step     # imported here: verify loads no marketsim
    f = _frame(f)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    xi = np.random.default_rng(seed).standard_normal((n_windows, c.dim))
    d_r = euler_step(f @ theta, c, d_o, xi)        # first: it refuses a bad window length
    c_ff = _cross_cov(f, c, f, d_o)
    theta_hat = _checked_solve(c_ff, f.T @ d_r.T).T        # one row per window
    dev = (theta_hat - theta) @ f.T                        # nu_hat - nu
    vals = 0.5 * d_o * np.einsum("ij,ij->i", dev @ c.entries, dev)
    return McDistance(mean=float(vals.mean()),
                      stderr=float(vals.std(ddof=1) / math.sqrt(n_windows)))
