"""Randomised property sweeps behind the ``verify`` CLI subcommand.

Each check draws seeded random instances, evaluates one of the library's
structural identities or inequalities, and reports the worst violation seen
against a fixed tolerance.  The sweep seeds derive from the CLI seed as
``seed + 1000 * check_index`` (registry order), so runs are reproducible and
checks are independent of each other.

``sabotage`` deliberately inflates one check's violation so the harness can
prove it fails loudly; it exists for tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import estimators, filtering, shrinkage
from .psd import (CovMatrix, Projection, check_lemma_error_reduction, projection_from_frame,
                  sqrt_entries)


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def _random_psd(rng: np.random.Generator, dim: int, definite: bool = True) -> CovMatrix:
    a = rng.standard_normal((dim, dim))
    m = a @ a.T / dim
    if definite:
        m = m + 0.1 * np.eye(dim)
    return CovMatrix(m)


def _random_projection(rng: np.random.Generator, dim: int,
                       rank: Optional[int] = None) -> Projection:
    rank = rank if rank is not None else int(rng.integers(1, dim + 1))
    if rank >= dim:
        return Projection.identity(dim)
    return projection_from_frame(rng.standard_normal((dim, rank)))


def _random_frame(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """Well-conditioned random frame: orthonormal columns with spread scales.

    Raw Gaussian frames can be nearly rank-deficient, which inflates the
    float error of the tested functionals far beyond the asserted slacks;
    bounding the conditioning keeps the sweep about the inequality itself.
    """
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * rng.uniform(0.5, 2.0, size=k)


def check_frobenius_min(rng: np.random.Generator, instances: int) -> CheckResult:
    """The estimation objective over fund combinations is minimised at the funds.

    ``k < dim`` keeps the sweep away from the square case, where every
    invertible combination reproduces the funds exactly and the comparison
    degenerates to round-off; ``eta`` is unit-normalised for the same reason.
    """
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        c = _random_psd(rng, dim)
        eta = rng.standard_normal((k, k))
        eta /= np.linalg.norm(eta)
        f = _random_frame(rng, dim, k)
        x = rng.standard_normal((dim, k))
        at_f = estimators.frobenius_objective(c, eta, f, f)
        at_x = estimators.frobenius_objective(c, eta, f, x)
        worst = max(worst, at_f - at_x)
    return CheckResult("frobenius_min", instances, worst, 1e-9)


def check_error_reduction(rng: np.random.Generator, instances: int) -> CheckResult:
    """``c (p c p)^+ c`` never exceeds ``c`` in the PSD order."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        c = _random_psd(rng, dim)
        p = _random_projection(rng, dim)
        smallest = check_lemma_error_reduction(c, p)
        worst = max(worst, -smallest / c.trace)
    return CheckResult("error_reduction", instances, worst, 1e-9)


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


def check_shrink_fixed_point(rng: np.random.Generator, instances: int) -> CheckResult:
    """Solver ``b`` agrees with plain bisection and respects its bounds."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(1, 6))
        h = _random_psd(rng, dim, definite=bool(rng.integers(0, 2)))
        z = rng.standard_normal(dim) * float(rng.uniform(0.2, 3.0))
        result = shrinkage.solve_b(h, z)
        oracle = _bisect_fixed_point(h.entries, z)
        worst = max(worst, abs(result.b - oracle))
        if result.b >= 0.5 * float(z @ z) + 1e-12 and not result.degenerate:
            worst = max(worst, abs(result.b))
    return CheckResult("shrink_fixed_point", instances, worst, 1e-10)


def check_shrink_identity(rng: np.random.Generator, instances: int) -> CheckResult:
    """Variance split: ``dC_{nn}`` = ``dC_{rr}`` + twice tracking error over give-up."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(1, 6))
        d_c = _random_psd(rng, dim)
        kappa = _random_psd(rng, dim, definite=False)
        nu_hat = rng.standard_normal(dim)
        res = shrinkage.shrink_portfolio(nu_hat, kappa, d_c)
        if res.degenerate:
            continue
        lhs = float(nu_hat @ d_c.entries @ nu_hat)
        rhs = float(res.rho @ d_c.entries @ res.rho) + 2.0 * res.e_sq / res.b
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    return CheckResult("shrink_identity", instances, worst, 1e-9)


def check_mse_min(rng: np.random.Generator, instances: int) -> CheckResult:
    """Mean squared error of the exposure estimate is minimised at the funds."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        c = _random_psd(rng, dim)
        f = _random_frame(rng, dim, k)
        x = rng.standard_normal((dim, k))
        d_o = float(rng.uniform(0.01, 2.0))
        worst = max(worst, estimators.mse(f, f, c, d_o) - estimators.mse(x, f, c, d_o))
    return CheckResult("mse_min", instances, worst, 1e-9)


def check_dis_fund_law(rng: np.random.Generator, instances: int) -> CheckResult:
    """Distance from growth optimality: exactly K/2 at the funds, larger elsewhere."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(dim, 4) + 1))
        c = _random_psd(rng, dim)
        f = _random_frame(rng, dim, k)
        d_o = float(rng.uniform(0.001, 2.0))
        worst = max(worst, abs(estimators.dis(f, f, c, d_o) - 0.5 * k))
        x = _random_frame(rng, dim, k)
        worst = max(worst, 0.5 * k - estimators.dis(x, f, c, d_o))
    return CheckResult("dis_fund_law", instances, worst, 1e-9)


def check_growth_loss_identity(rng: np.random.Generator, instances: int,
                               n_draws: int = 200_000) -> CheckResult:
    """Monte-Carlo expected growth gap matches ``tr(kappa dC)/2``; unit is SEs."""
    worst = 0.0
    for _ in range(instances):
        dim = int(rng.integers(1, 5))
        d_c = _random_psd(rng, dim)
        kappa = _random_psd(rng, dim, definite=False)
        nu_hat = rng.standard_normal(dim)
        draws = nu_hat + rng.standard_normal((n_draws, dim)) @ sqrt_entries(kappa)
        growth = 0.5 * np.einsum("ij,ij->i", draws @ d_c.entries, draws)
        gap = growth - filtering.f_growth_increment(nu_hat, d_c)
        stderr = float(gap.std(ddof=1)) / math.sqrt(n_draws)
        diff = abs(float(gap.mean()) - filtering.growth_loss(kappa, d_c))
        worst = max(worst, diff / stderr if stderr > 0.0 else 0.0)
    return CheckResult("growth_loss_identity", instances, worst, 4.0)


def check_cardano(rng: np.random.Generator, instances: int) -> CheckResult:
    """Closed-form uniform factor satisfies its cubic across 16 decades."""
    del rng  # deterministic grid
    grid = np.concatenate(([0.0], np.logspace(-8.0, 8.0, max(instances, 2))))
    worst = abs(shrinkage.cardano_a(0.0))
    prev = -1.0
    for psi in grid:
        a = shrinkage.cardano_a(float(psi))
        residual = abs(-4.0 * (2.0 * psi / 27.0) * (1.0 - a) ** 3 + 2.0 * a)
        worst = max(worst, residual)
        if a < prev:            # monotonicity in psi
            worst = max(worst, prev - a + 1.0)
        prev = a
    return CheckResult("cardano", len(grid), worst, 1e-10)


CHECKS: dict[str, Callable[[np.random.Generator, int], CheckResult]] = {
    "frobenius_min": check_frobenius_min,
    "mse_min": check_mse_min,
    "error_reduction": check_error_reduction,
    "shrink_fixed_point": check_shrink_fixed_point,
    "shrink_identity": check_shrink_identity,
    "dis_fund_law": check_dis_fund_law,
    "growth_loss_identity": check_growth_loss_identity,
    "cardano": check_cardano,
}

DEFAULT_INSTANCES = {
    "frobenius_min": 300,
    "mse_min": 300,
    "error_reduction": 500,
    "shrink_fixed_point": 200,
    "shrink_identity": 200,
    "dis_fund_law": 200,
    "growth_loss_identity": 6,
    "cardano": 50,
}


def run_checks(
    names: Optional[list[str]] = None,
    seed: int = 0,
    instances: Optional[int] = None,
    sabotage: Optional[str] = None,
) -> list[CheckResult]:
    selected = list(CHECKS) if not names else names
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    results = []
    for name in selected:
        index = list(CHECKS).index(name)
        rng = np.random.default_rng(seed + 1000 * index)
        count = instances if instances is not None else DEFAULT_INSTANCES[name]
        result = CHECKS[name](rng, count)
        if sabotage == name:
            result = CheckResult(
                name=result.name,
                instances=result.instances,
                max_violation=result.max_violation + 10.0 * result.tolerance + 1.0,
                tolerance=result.tolerance,
            )
        results.append(result)
    return results
