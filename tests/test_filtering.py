import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning, quad

from fundgrowth.errors import DegenerateInterval, SingularC, SingularOnSubspace
from fundgrowth.filtering import (
    f_growth_increment,
    gaussian_posterior,
    growth_loss,
    portfolio_growth_variance,
    restricted_growth_loss,
    truncated_moments,
    truncated_posterior_1d,
)
from fundgrowth.marketsim import ndtr, simulate_path, uniform_clock
from fundgrowth.psd import CovMatrix, inverse_entries, sqrt_entries
from fundgrowth.verify import _random_psd as random_cov
from posterior_columns import quad_truncated_moments


class TestGaussianPosterior:
    def test_centered(self):
        nu_hat, kappa = gaussian_posterior(np.zeros(3), CovMatrix(np.eye(3)))
        np.testing.assert_allclose(nu_hat, 0.0, atol=1e-15)
        np.testing.assert_allclose(kappa, np.eye(3), atol=1e-12)

    def test_one_dim_arithmetic(self):
        nu_hat, kappa = gaussian_posterior([2.0], [[4.0]])
        assert nu_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert kappa[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularC):
            gaussian_posterior([1.0, 0.0], np.diag([1.0, 0.0]))

    def test_matches_importance_weighted_oracle(self):
        # posterior density is exp(x'R - x'Cx/2); weight prior draws by the
        # data part exp(x'dR - x'dCx/2) and compare weighted moments
        rng = np.random.default_rng(21)
        for _ in range(3):
            kappa0 = random_cov(rng, 2)
            nu0 = rng.standard_normal(2)
            c0 = np.linalg.inv(kappa0.entries)
            r0 = c0 @ nu0
            a = rng.standard_normal((2, 2)) * 0.7
            d_c = a @ a.T
            nu_data = nu0 + rng.standard_normal(2) * 0.5
            d_r = d_c @ nu_data
            nu_hat, _ = gaussian_posterior(r0 + d_r, CovMatrix(c0 + d_c))

            n, batches = 400_000, 40
            draws = nu0 + rng.standard_normal((n, 2)) @ sqrt_entries(kappa0)
            log_w = draws @ d_r - 0.5 * np.einsum("ij,ij->i", draws @ d_c, draws)
            w = np.exp(log_w - log_w.max())
            mean_batches = []
            for chunk_w, chunk_x in zip(np.array_split(w, batches), np.array_split(draws, batches)):
                mean_batches.append(chunk_w @ chunk_x / chunk_w.sum())
            mean_batches = np.array(mean_batches)
            stderr = mean_batches.std(axis=0, ddof=1) / math.sqrt(batches)
            assert np.all(np.abs(mean_batches.mean(axis=0) - nu_hat) <= 4.0 * stderr)


class TestNdtr:
    def test_matches_scipy(self):
        # the far left tail is where a 1 + erf form fails; relative precision
        # holds down to the smallest normal double, near x = -37.5
        x = np.concatenate([np.linspace(-37.5, 38.0, 75_501), [-np.inf, np.inf]])
        np.testing.assert_allclose(ndtr(x), special.ndtr(x), rtol=1e-13, atol=0.0)
        tiny = np.finfo(float).tiny
        assert special.ndtr(-37.5) > tiny
        # below it both are subnormal (scipy's flushes to zero near -37.68)
        x = np.linspace(-38.0, -37.5, 501)
        np.testing.assert_allclose(ndtr(x), special.ndtr(x), rtol=0.0, atol=tiny)


class TestTruncatedPosterior:
    def test_infinite_interval_reduces_to_gaussian(self):
        nu_hat, kappa = truncated_posterior_1d(2.0, 4.0, -math.inf, math.inf)
        assert nu_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert kappa[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_half_line_closed_form(self):
        nu_hat, kappa = truncated_posterior_1d(0.0, 1.0, 0.0, math.inf)
        assert nu_hat[0] == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)
        assert kappa[0, 0] == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)

    def test_symmetric_interval_keeps_mean(self):
        nu_hat, _ = truncated_posterior_1d(2.0, 4.0, 0.5 - 0.3, 0.5 + 0.3)
        assert nu_hat[0] == pytest.approx(0.5, abs=1e-12)

    def test_array_moments_are_elementwise(self):
        r, c = np.array([-1.0, 0.5, 3.0]), np.array([0.5, 2.0, 4.0])
        nu_hat, kappa = truncated_moments(r, c, 0.0, math.inf)
        for i in range(3):
            nu_one, kappa_one = truncated_posterior_1d(float(r[i]), float(c[i]), 0.0, math.inf)
            assert nu_hat[i] == nu_one[0]
            assert kappa[i] == kappa_one[0, 0]

    @pytest.mark.parametrize("upper", [0.5, math.inf])
    def test_an_upper_tail_interval_is_mirrored(self, upper):
        # standardised lower ends 5 to 37 lie where ndtr has saturated at 1.0; the mirrored
        # interval (-upper, 0) of -R is the same law reflected, so its moments agree
        r, c = -np.arange(5.0, 38.0), np.full(33, 1.0)
        nu_hat, kappa = truncated_moments(r, c, 0.0, upper)
        assert np.all((0.0 < nu_hat) & (nu_hat < upper))
        assert np.all((0.0 < kappa) & (kappa < 1.0))
        mirrored_nu, mirrored_kappa = truncated_moments(-r, c, -upper, 0.0)
        np.testing.assert_array_equal(mirrored_nu, -nu_hat)
        np.testing.assert_array_equal(mirrored_kappa, kappa)

    def test_only_an_interval_without_variance_is_refused(self):
        # (40, 41) lies 40 sd above the mean, a well-defined law; a width of 1e-300 leaves a
        # variance below the double range, and 1e-160 a subnormal one
        nu_hat, kappa = truncated_posterior_1d(0.0, 1.0, 40.0, 41.0)
        assert 40.0 < nu_hat[0] < 41.0
        assert nu_hat[0] == pytest.approx(40.024969, abs=1e-6)
        assert kappa[0, 0] == pytest.approx(6.2267e-4, rel=1e-4)
        assert truncated_moments(0.0, 1.0, 0.0, 1e-160)[1] > 0.0
        with pytest.raises(DegenerateInterval, match=r"\(0.0, 1e-300\)"):
            truncated_moments(0.0, 1.0, 0.0, 1e-300)

    def test_a_mean_that_rounds_to_an_end_is_kept_inside(self):
        # the end 2^33 lies 1024 sd (2^-27) below R/C, so the mean is 7e-12 below the end,
        # less than half its ulp (2^-19), and the variance is 2^-74 (1 - 6 / 1024^2)
        nu_hat, kappa = truncated_moments(2.0 ** 87 + 2.0 ** 37, 2.0 ** 54, -math.inf, 2.0 ** 33)
        assert nu_hat == np.nextafter(2.0 ** 33, 0.0)
        assert kappa == pytest.approx(2.0 ** -74 * (1.0 - 6.0 / 1024 ** 2), rel=1e-10)

    def test_a_mean_past_the_double_range_still_has_moments(self):
        # R/C = 1e320 overflows, but the density on (0, 1e-8) only tilts by e^(1e-8)
        nu_hat, kappa = truncated_moments(1.0, 1e-320, 0.0, 1e-8)
        assert nu_hat == pytest.approx(5e-9 + 1e-16 / 12.0, rel=1e-12)
        assert kappa == pytest.approx(1e-16 / 12.0, rel=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            c = float(rng.uniform(0.5, 5.0))
            r = float(rng.uniform(-2.0, 2.0)) * c
            lo = float(rng.uniform(-3.0, 0.5))
            hi = lo + float(rng.uniform(0.2, 3.0))
            nu_hat, kappa = truncated_posterior_1d(r, c, lo, hi)
            mean, var = quad_truncated_moments(r, c, lo, hi)
            assert nu_hat[0] == pytest.approx(mean, abs=1e-8)
            assert kappa[0, 0] == pytest.approx(var, abs=1e-8)
            assert lo < nu_hat[0] < hi
            assert 0.0 < kappa[0, 0] <= 1.0 / c + 1e-12


class TestPosteriorArrays:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_gaussian_posterior_is_the_inverse_and_its_product_with_r(self, k):
        rng = np.random.default_rng(40 + k)
        c, r = random_cov(rng, k), rng.standard_normal(k)
        nu_hat, kappa = gaussian_posterior(r, c)
        inverse = inverse_entries(c)
        assert nu_hat.shape == (k,) and kappa.shape == (k, k)
        np.testing.assert_array_equal(nu_hat, inverse @ r)
        np.testing.assert_array_equal(kappa, 0.5 * inverse + 0.5 * inverse.T)

    @pytest.mark.parametrize("lower, upper", [(0.0, math.inf), (2.0, 2.0 + 1e-9), (40.0, 41.0)])
    def test_truncated_posterior_1d_is_truncated_moments(self, lower, upper):
        nu_hat, kappa = truncated_posterior_1d(0.5, 2.0, lower, upper)
        mean, var = truncated_moments(0.5, 2.0, lower, upper)
        assert nu_hat.shape == (1,) and kappa.shape == (1, 1)
        assert (nu_hat[0], kappa[0, 0]) == (float(mean), float(var))


def peak_quad_moments(r, c, lo, hi):
    """Mean and variance of ``N(r/c, 1/c)`` on ``(lo, hi)`` by ``quad`` of its density over
    its peak, in posterior standard deviations ``y`` from the peak and within 40 of it, or
    None where ``quad`` warns or estimates an error above 1e-11 of a moment."""
    sd, mean = 1.0 / math.sqrt(c), r / c
    peak = min(max(mean, lo), hi)
    slope = (peak - mean) / sd
    ends = max((lo - peak) / sd, -40.0), min((hi - peak) / sd, 40.0)
    moments = []
    for k in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                value, error = quad(lambda y: y ** k * math.exp(-0.5 * y * (y + 2.0 * slope)),
                                    *ends, epsabs=0.0, epsrel=1e-12, limit=500,
                                    points=[0.0] if ends[0] < 0.0 < ends[1] else None)
            except IntegrationWarning:
                return None
        if not error <= 1e-11 * abs(value):
            return None
        moments.append(value)
    shift = moments[1] / moments[0]
    return peak + sd * shift, sd * sd * (moments[2] / moments[0] - shift * shift)


def random_intervals(rng, n):
    """``n`` laws ``(r, c)`` with intervals whose standardised ends lie within 1e3 of the
    mean: a third of width 1e-15 to 1e3 sd, a third above an end, a third below one."""
    for i in range(n):
        c = 10.0 ** rng.uniform(-2.0, 2.0)
        r = c * float(rng.uniform(-3.0, 3.0))
        sd = 1.0 / math.sqrt(c)
        end = r / c + sd * float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        if i % 3 == 0:
            yield r, c, end, end + sd * 10.0 ** rng.uniform(-15.0, 3.0)
        else:
            yield (r, c, end, math.inf) if i % 3 == 1 else (r, c, -math.inf, end)


def test_truncated_moments_over_the_double_range():
    # the mean lies strictly inside wherever a double does, Popoviciu's inequality bounds
    # the variance, and where quad is reliable both moments agree with it to 1e-10
    checked = 0
    for r, c, lo, hi in random_intervals(np.random.default_rng(37), 600):
        if not lo < hi:
            continue
        nu_hat, kappa = map(float, truncated_moments(r, c, lo, hi))
        case = (r, c, lo, hi, nu_hat, kappa)
        if np.nextafter(lo, hi) < hi:
            assert lo < nu_hat < hi, case
        assert 0.0 < kappa <= 0.25 * (hi - lo) ** 2, case
        oracle = peak_quad_moments(r, c, lo, hi)
        if oracle is not None:
            assert nu_hat == pytest.approx(oracle[0], rel=1e-10, abs=1e-10 * math.sqrt(kappa)), case
            assert kappa == pytest.approx(oracle[1], rel=1e-10), case
            checked += 1
    assert checked >= 450


def test_deep_tails_follow_their_asymptotics():
    # on (a, inf) at R = 0, C = 1 the mean is a + 1/a - 2/a^3 + O(a^-5) and the variance
    # 1/a^2 - 6/a^4 + 50/a^6 - ...: from a = 1000 on the series' first terms hold to 1e-10
    a = 10.0 ** np.random.default_rng(38).uniform(3.0, 8.0, 200)
    for lower in a:
        nu_hat, kappa = truncated_moments(0.0, 1.0, lower, math.inf)
        assert nu_hat == pytest.approx(lower + 1.0 / lower - 2.0 / lower ** 3, rel=1e-10)
        assert kappa == pytest.approx(1.0 / lower ** 2 - 6.0 / lower ** 4, rel=1e-10)
        mirrored = truncated_moments(0.0, 1.0, -math.inf, -lower)
        assert (mirrored[0], mirrored[1]) == (-nu_hat, kappa)


class TestGrowthFunctionals:
    def test_zero_portfolio(self):
        assert f_growth_increment(np.zeros(2), np.eye(2)) == 0.0

    def test_arithmetic(self):
        assert f_growth_increment([2.0], [[0.01]]) == pytest.approx(0.02, abs=1e-15)

    def test_half_squared_sharpe(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d_c = random_cov(rng, 3)
            nu = rng.standard_normal(3)
            d_a = d_c.entries @ nu
            d_f = f_growth_increment(nu, d_c)
            sharpe_form = 0.5 * float(nu @ d_a) ** 2 / float(nu @ d_c.entries @ nu)
            assert d_f == pytest.approx(sharpe_form, rel=1e-12)

    def test_growth_loss_zero_uncertainty(self):
        assert growth_loss(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_growth_loss_is_logdet_increment(self):
        # with kappa = C^{-1} the loss is half the log-det increment, up to
        # a second-order term in the step size: halving the step divides the
        # mismatch by about four
        c = np.array([[1.0, 0.3], [0.3, 2.0]])
        t = 5.0
        mismatches = []
        for delta in (0.5, 0.25):
            big_c = c * t
            kappa = np.linalg.inv(big_c)
            loss = growth_loss(kappa, c * delta)
            logdet = 0.5 * (
                np.linalg.slogdet(c * (t + delta))[1] - np.linalg.slogdet(big_c)[1]
            )
            mismatches.append(abs(loss - logdet))
        ratio = mismatches[0] / mismatches[1]
        assert 3.5 <= ratio <= 4.5


class TestRestrictedGrowthLoss:
    def test_identity_projection_is_unrestricted(self):
        rng = np.random.default_rng(25)
        d_c = random_cov(rng, 4)
        kappa = random_cov(rng, 4, definite=False)
        full = growth_loss(kappa, d_c)
        restricted = restricted_growth_loss(kappa, d_c, np.eye(4))
        assert restricted == pytest.approx(full, rel=1e-10)

    def test_matches_the_frame_formula(self):
        """The loss is ``tr((f' dC f)^-1 f' dC kappa dC f) / 2``, solved directly, for any
        basis ``f`` whose singular values lie in [0.5, 2] (see ``test_psd``'s twin)."""
        rng = np.random.default_rng(32)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            d_c = random_cov(rng, dim)
            kappa = random_cov(rng, dim, definite=False)
            k = int(rng.integers(1, dim + 1))
            u, v = (np.linalg.qr(rng.standard_normal((n, k)))[0] for n in (dim, k))
            f = (u * rng.uniform(0.5, 2.0, k)) @ v      # singular values in [0.5, 2]
            dc_f = d_c.entries @ f
            expected = 0.5 * np.trace(np.linalg.solve(f.T @ dc_f, dc_f.T @ kappa.entries @ dc_f))
            got = restricted_growth_loss(kappa, d_c, f)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_an_invertible_mix_of_the_frame_is_the_same_universe(self):
        # a restricted universe is given by its funds' span, not by the funds
        rng = np.random.default_rng(33)
        for _ in range(300):
            dim = int(rng.integers(2, 8))
            d_c = random_cov(rng, dim)
            kappa = random_cov(rng, dim, definite=False)
            k = int(rng.integers(1, dim + 1))
            f, g = ((np.linalg.qr(rng.standard_normal((n, k)))[0] * rng.uniform(0.5, 2.0, k))
                    for n in (dim, k))
            loss = restricted_growth_loss(kappa, d_c, f)
            assert restricted_growth_loss(kappa, d_c, f @ g) == pytest.approx(loss, rel=1e-10)

    def test_degenerate_restriction_rejected(self):
        d_c = CovMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SingularOnSubspace):
            restricted_growth_loss(np.eye(2), d_c, [[0.0], [1.0]])


class TestPortfolioGrowthVariance:
    def test_zero_portfolio(self):
        assert portfolio_growth_variance(np.zeros(2), np.eye(2), np.eye(2)) == 0.0

    def test_arithmetic(self):
        value = portfolio_growth_variance([3.0, 4.0], np.eye(2), np.eye(2))
        assert value == pytest.approx(25.0, abs=1e-12)

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(28)
        d_c = random_cov(rng, 3)
        kappa = random_cov(rng, 3, definite=False)
        pi = rng.standard_normal(3)
        n = 400_000
        draws = rng.standard_normal((n, 3)) @ sqrt_entries(kappa)
        gaps = draws @ (d_c.entries @ pi)      # G-growth minus F-growth of pi
        sample_var = float(gaps.var(ddof=1))
        closed = portfolio_growth_variance(pi, kappa, d_c)
        stderr = sample_var * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - closed) <= 4.0 * stderr


class TestPosteriorUpdate:
    def test_estimates_consistent_on_long_paths(self):
        # posterior error should shrink like 1/sqrt(t): the median error at
        # 10^4 steps falls below half the median error at 10^3 steps.  The
        # step and the portfolio are kept small enough that the per-step
        # drift^2 term (a pure discretisation artefact) stays negligible.
        rng = np.random.default_rng(30)
        c = random_cov(rng, 2)
        errors_short, errors_long = [], []
        for i in range(60):
            nu = 0.3 * rng.standard_normal(2)
            path = simulate_path(nu, c, uniform_clock(10_000, step=0.01), seed=100 + i)
            incr = path.increments
            for n_steps, bucket in ((1_000, errors_short), (10_000, errors_long)):
                chunk = incr[:n_steps]
                c_cum = 0.01 * np.eye(2) + chunk.T @ chunk   # weak anchor
                r_cum = chunk.sum(axis=0)                    # zero prior mean
                nu_hat, _ = gaussian_posterior(r_cum, CovMatrix(c_cum))
                bucket.append(float(np.linalg.norm(nu_hat - nu)))
        assert np.median(errors_long) < 0.5 * np.median(errors_short)
