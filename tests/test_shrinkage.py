import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from fundgrowth.psd import CovMatrix
from fundgrowth.shrinkage import (
    RESIDUAL_TOL,
    cardano_a,
    psi_one_fund,
    shrink_portfolio,
    solve_b,
)
from posterior_columns import psi_constant_cov


def random_cov(rng, dim, definite=True):
    a = rng.standard_normal((dim, dim))
    m = a @ a.T / dim
    if definite:
        m = m + 0.1 * np.eye(dim)
    return CovMatrix(m)


def bisect_b(h_entries, z):
    """Independent bisection oracle on f(b) - b with dense solves."""
    eye = np.eye(z.size)
    hz = h_entries @ z

    def f(b):
        y = np.linalg.solve(h_entries + b * eye, hz)
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


def wide_spectra(seed, count=2000):
    """``(h, z)`` with eigenvalues ``10^U(-15, 15)``, about a quarter of them 0, in a random
    basis (dim 1-8), and ``z`` scaled by ``10^U(-12, 12)``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(1, 9))
        s = 10.0 ** rng.uniform(-15.0, 15.0, dim) * (rng.uniform(size=dim) >= 0.25)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        m = (basis * s) @ basis.T
        z = rng.standard_normal(dim) * 10.0 ** rng.uniform(-12.0, 12.0)
        yield CovMatrix(0.5 * (m + m.T)), z


def fixed_point_gap(h, z, b):
    """``g(b) = f(b) - b`` from the stored (clamped) eigenvalues of ``h``."""
    w = (h.eigenvectors.T @ z) ** 2
    return 0.5 * math.fsum(w * (h.eigenvalues / (h.eigenvalues + b)) ** 2) - b


def tracking_objective(pi, nu_hat, kappa, d_c):
    bias = d_c @ (pi - nu_hat)
    var_vec = d_c @ pi
    return 0.25 * float((pi - nu_hat) @ bias) ** 2 + float(var_vec @ kappa @ var_vec)


class TestSolveB:
    def test_kernel_is_degenerate(self):
        h = CovMatrix(np.diag([1.0, 0.0]))
        z = np.array([0.0, 2.0])      # z in ker(h)
        result = solve_b(h, z)
        assert result.degenerate and result.b == 0.0

    def test_one_dim_cubic(self):
        # h = 1, z = sqrt(2): b (1 + b)^2 = 1
        result = solve_b(CovMatrix([[1.0]]), np.array([math.sqrt(2.0)]))
        oracle = bisect_b(np.array([[1.0]]), np.array([math.sqrt(2.0)]))
        assert not result.degenerate
        assert result.b == pytest.approx(oracle, abs=1e-12)
        assert result.b == pytest.approx(0.465571, abs=1e-6)
        assert result.residual <= RESIDUAL_TOL * result.b

    def test_one_dim_closed_form_at_a_tiny_give_up(self):
        # h = 1: a = b / (1 + b) solves a = (z^2 / 2) (1 - a)^3, Cardano's cubic at
        # psi = 27 z^2 / 8.  b is near 1e-7, so an absolute residual of 1e-12 would leave
        # a about 2e-7 off; Cardano's formula itself cancels to about 3e-10 here
        result = solve_b(CovMatrix([[1.0]]), np.array([math.sqrt(2e-7)]))
        assert result.b / (1.0 + result.b) == pytest.approx(cardano_a(27.0 * 2e-7 / 8.0),
                                                           rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("lam", [1e-12, 1e-6, 1.0, 1e6])
    def test_b_scales_with_h(self, lam):
        # f_lam(lam b) = lam f(b) for h -> lam h, z -> sqrt(lam) z, so b scales by lam
        rng = np.random.default_rng(39)
        h, z = random_cov(rng, 3, definite=False), rng.standard_normal(3)
        scaled = solve_b(CovMatrix(lam * h.entries), math.sqrt(lam) * z)
        assert scaled.b == pytest.approx(lam * solve_b(h, z).b, rel=1e-12, abs=0.0)
        assert scaled.residual <= RESIDUAL_TOL * scaled.b

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_is_refused(self, bad):
        # neither 200 iterations on NaN nor an infinite z called degenerate (no shrinkage)
        with pytest.raises(ValueError, match="z must be finite"):
            solve_b(CovMatrix([[1.0]]), np.array([bad]))

    def test_nan_nu_hat_is_refused(self):
        with pytest.raises(ValueError, match="z must be finite"):
            shrink_portfolio(np.array([math.nan, 1.0]), CovMatrix(np.eye(2)), CovMatrix(np.eye(2)))

    def test_infinite_nu_hat_is_refused_without_a_warning(self):
        # the suite makes a RuntimeWarning an error: the inf * 0 of root @ nu_hat must not warn
        with pytest.raises(ValueError, match="z must be finite"):
            shrink_portfolio(np.array([math.inf, 1.0]), CovMatrix(np.eye(2)), CovMatrix(np.eye(2)))

    def test_overflowing_z_is_refused(self):
        # the squared eigen-coordinate 1e400 overflows; it is not a degenerate problem
        with pytest.raises(ValueError, match="overflow"):
            solve_b(CovMatrix([[1.0]]), np.array([1e200]))

    def test_an_h_z_beyond_a_plain_norm_is_solved(self):
        # ||h z|| = 1e310 overflows np.linalg.norm; b is w/2 = 5e19 to 1e-20 relative
        result = solve_b(CovMatrix([[1e300]]), np.array([1e10]))
        assert not result.degenerate
        assert result.b == pytest.approx(5e19, rel=1e-12)

    def test_a_huge_z_is_solved_from_the_lower_bound(self):
        # b (1 + b)^2 = |z|^2 / 2: its root is (|z|^2 / 2)^(1/3) to 1e-66 relative at
        # |z| = 1e100; from 0, Newton rises about 3/2 a step (194 steps to reach it at 1e50)
        result = solve_b(CovMatrix([[1.0]]), [1e100])
        assert abs(0.5e200 / (1.0 + result.b) ** 2 - result.b) <= RESIDUAL_TOL * result.b
        assert result.b == pytest.approx((1e200 / 2) ** (1 / 3), rel=1e-12)
        assert solve_b(CovMatrix([[1.0]]), [1e50]).iterations <= 3

    def test_a_start_that_is_not_finite_falls_back_to_zero(self, monkeypatch):
        # in one dimension the lower bound is the root; with no finite start Newton rises from 0
        want = solve_b(CovMatrix([[1.0]]), [3.0])
        sinh = np.sinh
        monkeypatch.setattr(np, "sinh", lambda x: math.inf * sinh(x))
        got = solve_b(CovMatrix([[1.0]]), [3.0])
        assert got.residual <= RESIDUAL_TOL * got.b
        assert got.b == pytest.approx(want.b, rel=1e-11)
        assert got.iterations > want.iterations

    def test_weight_on_the_larger_eigenvalue_starts_near_the_root(self):
        # the least eigenvalue's bound, with all the weight, is about 1e-4 here, the root about
        # 7.9e3; the larger eigenvalue's bound, with its own weight 1e12, is the root to 1e-20
        assert solve_b(CovMatrix(np.diag([1e-12, 1.0])), [1e6, 1e6]).iterations <= 3
        result = solve_b(CovMatrix(np.diag([1e-300, 1.0])), [1e150, 1e150])
        assert result.b == pytest.approx(7.937e99, rel=1e-4)

    def test_a_tiny_eigenvalue_is_solved_without_a_warning(self):
        # (s / d)^2 = (1e-300 / 7.9e-101)^2 underflows, w s^2 / d^2 = 1.6e-100 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_b(CovMatrix([[1e-300]]), [1e150])
        assert result.b == pytest.approx(7.937e-101, rel=1e-4)
        assert result.residual <= RESIDUAL_TOL * result.b

    def test_a_subnormal_eigenvalue_is_solved_without_a_warning(self):
        # sqrt(W) / sqrt(s / 3.375) = 1.8e314 overflows, so asinh is a difference of logs; and
        # s / 3 on the subnormal s = 1e-320 would round the start past the root
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_b(CovMatrix([[1e-320]]), [1e154])
        assert result.b == pytest.approx(1.70996e-111, rel=1e-5)
        assert result.residual <= RESIDUAL_TOL * result.b

    def test_matches_bisection_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            h = random_cov(rng, dim, definite=bool(rng.integers(0, 2)))
            z = rng.standard_normal(dim) * float(rng.uniform(0.2, 3.0))
            result = solve_b(h, z)
            if result.degenerate:
                continue
            assert result.b == pytest.approx(bisect_b(h.entries, z), abs=1e-10)
            assert result.b < 0.5 * float(z @ z)

    def test_wide_spectra_sweep_brackets_the_root(self):
        # g is strictly decreasing, so a b with g > 0 just below it and g < 0 just above it
        # is the root to 1e-9; the eigenvalues span 30 decades, so a start from the least one
        # alone lies far below the root
        solved = 0
        for h, z in wide_spectra(11):
            result = solve_b(h, z)
            if result.degenerate:
                continue
            b = result.b
            assert abs(fixed_point_gap(h, z, b)) <= 2.0 * RESIDUAL_TOL * b
            below, above = (fixed_point_gap(h, z, b * (1.0 + e)) for e in (-1e-9, 1e-9))
            assert below > 0.0 > above
            solved += 1
        assert solved > 1800

    def test_wide_spectra_sweep_takes_few_iterations(self):
        # each eigenvalue bounds the root from below with the weight at or above it, so the
        # start is near the root however wide the spectrum (from the least alone: up to 64)
        iterations = [solve_b(h, z).iterations for h, z in wide_spectra(11)]
        assert max(iterations) <= 8

    def test_map_is_decreasing_and_convex(self):
        rng = np.random.default_rng(32)
        h = random_cov(rng, 4)
        z = rng.standard_normal(4)
        s = h.eigenvalues
        w = (h.eigenvectors.T @ z) ** 2

        def f(b):
            return 0.5 * float(np.sum(w * (s / (s + b)) ** 2))

        grid = np.linspace(0.0, 2.0, 41)
        values = np.array([f(b) for b in grid])
        assert np.all(np.diff(values) < 0.0)
        assert np.all(np.diff(values, 2) > -1e-14)


class TestShrinkPortfolio:
    def test_no_uncertainty_keeps_portfolio(self):
        rng = np.random.default_rng(33)
        d_c = random_cov(rng, 3)
        nu_hat = rng.standard_normal(3)
        result = shrink_portfolio(nu_hat, CovMatrix(np.zeros((3, 3))), d_c)
        np.testing.assert_allclose(result.rho, nu_hat, atol=1e-14)
        assert result.b == 0.0 and result.e_sq == 0.0 and result.degenerate

    def test_matches_direct_minimisation_multistart(self):
        rng = np.random.default_rng(34)
        d_c = random_cov(rng, 3)
        kappa = random_cov(rng, 3, definite=False)
        nu_hat = rng.standard_normal(3)
        result = shrink_portfolio(nu_hat, kappa, d_c)
        best = None
        for _ in range(20):
            start = nu_hat + rng.standard_normal(3)
            opt = minimize(
                tracking_objective, start, args=(nu_hat, kappa.entries, d_c.entries),
                method="BFGS", options={"gtol": 1e-12, "maxiter": 500},
            )
            if best is None or opt.fun < best.fun:
                best = opt
        np.testing.assert_allclose(result.rho, best.x, atol=1e-6)
        assert result.e_sq == pytest.approx(best.fun, rel=1e-8, abs=1e-12)

    def test_variance_split_identity(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            d_c = random_cov(rng, dim)
            kappa = random_cov(rng, dim, definite=False)
            nu_hat = rng.standard_normal(dim)
            result = shrink_portfolio(nu_hat, kappa, d_c)
            if result.degenerate:
                continue
            lhs = float(nu_hat @ d_c.entries @ nu_hat)
            rhs = float(result.rho @ d_c.entries @ result.rho) + 2.0 * result.e_sq / result.b
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, lhs))
            # shrinking always reduces the portfolio variance
            assert float(result.rho @ d_c.entries @ result.rho) <= lhs + 1e-12
            assert result.b <= 0.5 * lhs + 1e-12

    def test_objective_optimality_against_probes(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            d_c = random_cov(rng, dim)
            kappa = random_cov(rng, dim, definite=False)
            nu_hat = rng.standard_normal(dim)
            result = shrink_portfolio(nu_hat, kappa, d_c)
            at_rho = tracking_objective(result.rho, nu_hat, kappa.entries, d_c.entries)
            assert at_rho <= tracking_objective(nu_hat, nu_hat, kappa.entries, d_c.entries) + 1e-10
            for a in rng.uniform(0.0, 1.0, size=50):
                probe = tracking_objective(a * nu_hat, nu_hat, kappa.entries, d_c.entries)
                assert at_rho <= probe + 1e-10
            directions = rng.standard_normal((100, dim))
            directions /= np.linalg.norm(directions, axis=1)[:, None]
            for direction in directions:
                probe = tracking_objective(
                    result.rho + 1e-3 * direction, nu_hat, kappa.entries, d_c.entries
                )
                assert at_rho <= probe + 1e-10

    def test_uniform_factor_for_single_fund(self):
        result = shrink_portfolio(np.array([2.0]), CovMatrix([[0.5]]), CovMatrix([[0.04]]))
        assert result.a is not None
        np.testing.assert_allclose(result.rho, result.a * 2.0, atol=1e-10)


    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-13])
    def test_uniform_curvature_is_judged_at_its_own_scale(self, scale):
        eye = CovMatrix(np.eye(2))
        skewed = shrink_portfolio(np.ones(2), CovMatrix(np.diag([1.0, 2.0]) * scale), eye)
        assert skewed.a is None                 # 2:1 curvature is not uniform at any scale
        spherical = shrink_portfolio(np.ones(2), CovMatrix(np.eye(2) * scale), eye)
        assert spherical.a == pytest.approx(cardano_a(spherical.psi), rel=1e-10)


class TestCardano:
    def test_zero_is_exact(self):
        assert cardano_a(0.0) == 0.0

    def test_balanced_case(self):
        # growth increment equals tracking dispersion: 2 (1 - a)^3 = a
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 2.0 * (1.0 - mid) ** 3 > mid:
                lo = mid
            else:
                hi = mid
        assert cardano_a(13.5) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert cardano_a(13.5) == pytest.approx(0.410245, abs=1e-6)

    def test_huge_argument(self):
        a = cardano_a(1e8)
        assert 0.99 < a < 1.0
        residual = -4.0 * (2.0 * 1e8 / 27.0) * (1.0 - a) ** 3 + 2.0 * a
        assert abs(residual) / (2.0 * a) < 1e-6
        # the closed form stays finite; the value saturates to 1.0 in floats
        assert 0.0 < cardano_a(1e305) <= 1.0

    def test_cubic_residual_and_monotonicity(self):
        prev = -1.0
        for psi in np.logspace(-8.0, 8.0, 50):
            a = cardano_a(float(psi))
            residual = -4.0 * (2.0 * psi / 27.0) * (1.0 - a) ** 3 + 2.0 * a
            assert abs(residual) <= 1e-10
            assert a > prev
            prev = a

    def test_array_argument_is_elementwise(self):
        psi = np.array([0.0, 1e-12, 1e-9, 13.5, 1e8, 1e305, np.inf])
        a = cardano_a(psi)
        assert isinstance(a, np.ndarray) and a.shape == psi.shape
        assert all(isinstance(cardano_a(float(p)), float) for p in psi)
        np.testing.assert_array_equal(a, [cardano_a(float(p)) for p in psi])
        with pytest.raises(ValueError):
            cardano_a(np.array([1.0, -1e-3]))

    def test_tiny_argument_is_four_psi_over_27(self):
        for psi in (1e-12, 1e-10, 1e-9):
            a = cardano_a(psi)
            assert a == pytest.approx(4.0 * psi / 27.0, rel=1e-6)
            residual = -4.0 * (2.0 * psi / 27.0) * (1.0 - a) ** 3 + 2.0 * a
            assert abs(residual) <= 1e-10

    def test_a_subnormal_root_gives_no_warning(self):
        # below psi = 4e-308 the root 4 psi / 27 is subnormal and 1 / a overflows to a = 0
        assert cardano_a(1e-307) == pytest.approx(4e-307 / 27, rel=1e-14)
        for psi in (1e-308, 1e-315, 5e-324):
            assert 0.0 <= cardano_a(psi) <= 4.0 * psi / 27.0

    def test_the_root_lies_within_8_ulp(self):
        # g(x) = x - (4 psi / 27)(1 - x)^3 rises on [0, 1], so the exact root lies within
        # 8 ulp of a when g, evaluated exactly, changes sign between a -/+ 8 ulp.  The
        # relative residual |g(a)| / a cannot show this: where a rounds to 1.0 it is about 1.
        # a doubles the error of v = sinh(asinh(sqrt(psi)) / 3): on 40,000 psi it came within
        # 5 ulp with numpy's AVX-512 sinh and arcsinh, and within 7 with the C library's
        def g(x, psi):
            x = Fraction(float(x))
            return x - 4 * Fraction(psi) / 27 * (1 - x) ** 3

        def ulps(x, toward):
            for _ in range(8):
                x = np.nextafter(x, toward)
            return x

        psi = 10.0 ** np.random.default_rng(0).uniform(-300.0, 300.0, 2000)
        bad = [(p, a) for p, a in zip(psi.tolist(), cardano_a(psi).tolist())
               if not g(ulps(a, -math.inf), p) < 0 < g(ulps(a, math.inf), p)]
        assert not bad, bad[:5]


class TestUniformParameters:
    def test_psi_one_fund_values(self):
        assert psi_one_fund(0.0, 1.0) == 0.0
        assert psi_one_fund(2.0, 1.0) == pytest.approx(13.5, abs=1e-12)

    def test_psi_one_fund_bayesian_uses_integrated_quantities(self):
        # nu_hat = R/C and kappa = 1/C give psi = (3/2)^3 R^2/C, free of dC
        r_cum, c_cum = 2.0, 4.0
        psi = psi_one_fund(r_cum / c_cum, 1.0 / c_cum)
        assert psi == pytest.approx(3.375, abs=1e-12)

    def test_psi_constant_cov_zero_returns(self):
        assert psi_constant_cov(np.zeros(3), CovMatrix(np.eye(3))) == 0.0
        assert cardano_a(0.0) == 0.0

    def test_uniform_matches_full_shrink(self):
        # constant covariance rate + Bayesian posterior: the full minimiser
        # is the closed-form uniform multiple of the filtered portfolio
        rng = np.random.default_rng(37)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            c = random_cov(rng, dim)
            o_now, d_o = float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.001, 0.1))
            r_cum = rng.standard_normal(dim)
            c_cum = CovMatrix(c.entries * o_now)
            kappa = CovMatrix(np.linalg.inv(c_cum.entries))
            nu_hat = kappa.entries @ r_cum
            a = cardano_a(psi_constant_cov(r_cum, c_cum))
            result = shrink_portfolio(nu_hat, kappa, CovMatrix(c.entries * d_o))
            np.testing.assert_allclose(a * nu_hat, result.rho, atol=1e-8)

    def test_spherical_curvature_relations(self):
        # h = s id: b/s = a/(1-a) and a solves (||z||^2/s)(1-a)^3 = 2a
        rng = np.random.default_rng(38)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            s = float(rng.uniform(0.1, 3.0))
            z = rng.standard_normal(dim) * float(rng.uniform(0.5, 2.0))
            result = solve_b(CovMatrix(s * np.eye(dim)), z)
            psi = 3.375 * float(z @ z) / s
            a = cardano_a(psi)
            assert result.b / s == pytest.approx(a / (1.0 - a), rel=1e-9)
            cubic = -(float(z @ z) / s) * (1.0 - a) ** 3 + 2.0 * a
            assert abs(cubic) <= 1e-9
