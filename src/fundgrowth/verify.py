"""Randomised property sweeps behind the ``verify`` CLI subcommand.

``CHECKS`` is the one table of checks: each name maps to a generator of the
violations of one of the library's structural identities or inequalities on
seeded random instances, its default instance count and its tolerance.
``run_checks`` reports the worst violation of each against its tolerance.
The sweep seeds derive from the CLI seed as ``seed + 1000 * check_index``
(table order), so runs are reproducible and checks are independent of each
other.

``sabotage`` deliberately inflates one check's violation so the harness can
prove it fails loudly; it exists for tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from . import estimators, filtering, shrinkage
from .psd import CovMatrix, check_lemma_error_reduction, sqrt_entries


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


# Monte-Carlo draws per growth_loss_identity instance
_GROWTH_DRAWS = 200_000


def _random_psd(rng: np.random.Generator, dim: int, definite: bool = True) -> CovMatrix:
    a = rng.standard_normal((dim, dim))
    m = a @ a.T / dim
    if definite:
        m = m + 0.1 * np.eye(dim)
    return CovMatrix(m)


def _random_universe(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A frame of 1 to ``dim`` funds: the identity at full rank, else a Gaussian frame."""
    rank = int(rng.integers(1, dim + 1))
    return np.eye(dim) if rank >= dim else rng.standard_normal((dim, rank))


def _random_frame(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """Well-conditioned random frame: orthonormal columns with spread scales.

    Raw Gaussian frames can be nearly rank-deficient, which inflates the
    float error of the tested functionals far beyond the asserted slacks;
    bounding the conditioning keeps the sweep about the inequality itself.
    """
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * rng.uniform(0.5, 2.0, size=k)


# Each check yields one or more violations per instance; a violation above the
# check's tolerance in ``CHECKS``, a NaN one or a missing one fails it.
Violations = Iterator[float]


def check_frobenius_min(rng: np.random.Generator, instances: int) -> Violations:
    """The estimation objective over fund combinations is minimised at the funds.

    ``k < dim`` keeps the sweep away from the square case, where every
    invertible combination reproduces the funds exactly and the comparison
    degenerates to round-off; ``eta`` is unit-normalised for the same reason.
    """
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        c = _random_psd(rng, dim)
        eta = rng.standard_normal((k, k))
        eta /= np.linalg.norm(eta)
        f = _random_frame(rng, dim, k)
        x = rng.standard_normal((dim, k))
        yield (estimators.frobenius_objective(c, eta, f, f)
               - estimators.frobenius_objective(c, eta, f, x))


def check_error_reduction(rng: np.random.Generator, instances: int) -> Violations:
    """``c subspace_pinv(c, f) c`` never exceeds ``c`` in the PSD order."""
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        c = _random_psd(rng, dim)
        f = _random_universe(rng, dim)
        yield -check_lemma_error_reduction(c, f) / c.trace


def _bisect_fixed_point(h: np.ndarray, z: np.ndarray) -> float:
    """Independent oracle: bisection on f(b) - b with dense solves."""
    dim = z.size
    eye = np.eye(dim)
    hz = h @ z

    def f(b: float) -> float:
        y = np.linalg.solve(h + b * eye, hz)
        return 0.5 * float(y @ y)

    lo, hi = 0.0, 0.5 * float(z @ z)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_shrink_fixed_point(rng: np.random.Generator, instances: int) -> Violations:
    """Solver ``b`` agrees with plain bisection and respects its bounds."""
    for _ in range(instances):
        dim = int(rng.integers(1, 6))
        h = _random_psd(rng, dim, definite=bool(rng.integers(0, 2)))
        z = rng.standard_normal(dim) * float(rng.uniform(0.2, 3.0))
        result = shrinkage.solve_b(h, z)
        yield abs(result.b - _bisect_fixed_point(h.entries, z))
        if result.b >= 0.5 * float(z @ z) + 1e-12 and not result.degenerate:
            yield abs(result.b)


def check_shrink_identity(rng: np.random.Generator, instances: int) -> Violations:
    """Variance split: ``dC_{nn}`` = ``dC_{rr}`` + twice tracking error over give-up."""
    for _ in range(instances):
        dim = int(rng.integers(1, 6))
        d_c = _random_psd(rng, dim)
        kappa = _random_psd(rng, dim, definite=False)
        nu_hat = rng.standard_normal(dim)
        res = shrinkage.shrink_portfolio(nu_hat, kappa, d_c)
        if res.degenerate:      # no shrinkage happens: rho is nu_hat
            yield float(np.abs(res.rho - nu_hat).max())
        else:
            lhs = float(nu_hat @ d_c.entries @ nu_hat)
            rhs = float(res.rho @ d_c.entries @ res.rho) + 2.0 * res.e_sq / res.b
            yield abs(lhs - rhs) / max(1.0, lhs)


def check_mse_min(rng: np.random.Generator, instances: int) -> Violations:
    """Mean squared error of the exposure estimate is minimised at the funds."""
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        c = _random_psd(rng, dim)
        f = _random_frame(rng, dim, k)
        x = rng.standard_normal((dim, k))
        d_o = float(rng.uniform(0.01, 2.0))
        yield estimators.mse(f, f, c, d_o) - estimators.mse(x, f, c, d_o)


def check_dis_fund_law(rng: np.random.Generator, instances: int) -> Violations:
    """Distance from growth optimality: K/2 through the funds, larger elsewhere.  The
    funds enter as an invertible mix ``f g`` of themselves, which ``dis`` does not
    short-circuit and whose value it does not change."""
    for _ in range(instances):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(dim, 4) + 1))
        c = _random_psd(rng, dim)
        f = _random_frame(rng, dim, k)
        d_o = float(rng.uniform(0.001, 2.0))
        g = _random_frame(rng, k, k)
        yield abs(estimators.dis(f @ g, f, c, d_o) - 0.5 * k)
        x = _random_frame(rng, dim, k)
        yield 0.5 * k - estimators.dis(x, f, c, d_o)


def check_growth_loss_identity(rng: np.random.Generator, instances: int) -> Violations:
    """Monte-Carlo expected growth gap matches ``tr(kappa dC)/2``; unit is SEs."""
    for _ in range(instances):
        dim = int(rng.integers(1, 5))
        d_c = _random_psd(rng, dim)
        kappa = _random_psd(rng, dim, definite=False)
        nu_hat = rng.standard_normal(dim)
        draws = nu_hat + rng.standard_normal((_GROWTH_DRAWS, dim)) @ sqrt_entries(kappa)
        growth = 0.5 * np.einsum("ij,ij->i", draws @ d_c.entries, draws)
        gap = growth - filtering.f_growth_increment(nu_hat, d_c)
        stderr = float(gap.std(ddof=1)) / math.sqrt(_GROWTH_DRAWS)
        diff = abs(float(gap.mean()) - filtering.growth_loss(kappa, d_c))
        yield diff / stderr if stderr > 0.0 else 0.0


def check_cardano(rng: np.random.Generator, instances: int) -> Violations:
    """Closed-form uniform factor ``a`` within a few ulp of its cubic's root, at ``psi = 0`` and
    ``instances - 1`` log-spaced values from 1e-8 to 1e8: the least ``n`` for which ``a -/+ n
    ulp(a)`` brackets the root of ``g(x) = x - (4 psi / 27)(1 - x)^3``, evaluated exactly, and
    inf past 2^64 ulp or where ``a`` falls as ``psi`` rises."""
    del rng  # deterministic grid
    prev = -1.0
    for psi in np.concatenate(([0.0], np.logspace(-8.0, 8.0, instances - 1))):
        a = shrinkage.cardano_a(float(psi))
        if not prev <= a < math.inf:            # falls, or is not a number
            yield math.inf
        else:   # g rises: search n on the side of a where g changes sign, doubling, then halving
            x, u, c = Fraction(a), Fraction(math.ulp(a)), 4 * Fraction(float(psi)) / 27
            side = 1 if x <= c * (1 - x) ** 3 else -1
            lo, hi = -1, 2 ** 64                # the least n lies in (lo, hi], or past 2^64
            while hi - lo > 1:
                n = 2 * lo + 2 if hi == 2 ** 64 else (lo + hi) // 2
                y = x + side * n * u
                lo, hi = (lo, n) if side * (y - c * (1 - y) ** 3) >= 0 else (n, hi)
            yield hi if hi < 2 ** 64 else math.inf
        prev = a


# name: (violations, default instance count, tolerance), in sweep-seed order
CHECKS: dict[str, tuple[Callable[[np.random.Generator, int], Violations], int, float]] = {
    "frobenius_min": (check_frobenius_min, 300, 1e-9),
    "mse_min": (check_mse_min, 300, 1e-9),
    "error_reduction": (check_error_reduction, 500, 1e-9),
    "shrink_fixed_point": (check_shrink_fixed_point, 200, 1e-10),
    "shrink_identity": (check_shrink_identity, 200, 1e-9),
    "dis_fund_law": (check_dis_fund_law, 200, 1e-9),
    "growth_loss_identity": (check_growth_loss_identity, 6, 4.0),
    "cardano": (check_cardano, 51, 8.0),
}


def run_checks(
    names: Optional[list[str]] = None,
    seed: int = 0,
    instances: Optional[int] = None,
    sabotage: Optional[str] = None,
) -> list[CheckResult]:
    """One ``CheckResult`` per check in ``names`` (default: all of ``CHECKS``), each
    on ``instances`` instances (default: the check's own count)."""
    selected = list(CHECKS) if not names else names
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    results = []
    for name in selected:
        check, default_instances, tolerance = CHECKS[name]
        count = default_instances if instances is None else instances
        rng = np.random.default_rng(seed + 1000 * list(CHECKS).index(name))
        found = np.fromiter(check(rng, count), dtype=float)
        # NaN, which fails, if a violation is NaN or the check skipped an instance
        worst = float(found.max(initial=0.0)) if found.size >= count else math.nan
        if sabotage == name:
            worst = worst + 10.0 * tolerance + 1.0
        results.append(CheckResult(name, count, worst, tolerance))
    return results
