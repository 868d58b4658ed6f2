import math

import numpy as np
import pytest

from fundgrowth.errors import SingularCrossCovariance
from fundgrowth.estimators import (
    LocalWindow,
    dis,
    estimate_theta,
    frobenius_objective,
    mc_distance_from_growth,
    mse,
)
from fundgrowth.psd import CovMatrix, sqrt_entries


def random_cov(rng, dim):
    a = rng.standard_normal((dim, dim))
    return CovMatrix(a @ a.T / dim + 0.1 * np.eye(dim))


def well_conditioned_frame(rng, dim, k):
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * rng.uniform(0.5, 2.0, size=k)


class TestEstimateTheta:
    def test_noiseless_window_is_exact(self):
        rng = np.random.default_rng(0)
        c = random_cov(rng, 4)
        f = rng.standard_normal((4, 2))
        theta = np.array([0.8, -0.4])
        d_o = 1.0 / 252.0
        increments = (c.entries @ f @ theta * d_o)[None, :]
        window = LocalWindow(increments=increments, cov_rate=c, d_o=d_o, combination=f)
        np.testing.assert_allclose(estimate_theta(window, f), theta, atol=1e-12)

    def test_scalar_arithmetic(self):
        window = LocalWindow(
            increments=np.array([[0.07]]),
            cov_rate=CovMatrix([[1.0]]),
            d_o=1.0,
            combination=np.array([1.0]),
        )
        assert estimate_theta(window, np.array([1.0]))[0] == pytest.approx(0.07, abs=1e-15)

    def test_unbiased_over_windows(self):
        rng = np.random.default_rng(1)
        c = random_cov(rng, 4)
        f = rng.standard_normal((4, 2))
        theta = np.array([0.5, -0.2])
        d_o = 1.0 / 252.0
        root = sqrt_entries(c)
        n = 100_000
        xi = rng.standard_normal((n, 4))
        d_r = d_o * (c.entries @ f @ theta) + math.sqrt(d_o) * xi @ root
        gram = f.T @ c.entries @ f * d_o
        estimates = np.linalg.solve(gram, f.T @ d_r.T).T
        stderr = estimates.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(estimates.mean(axis=0) - theta) <= 4.0 * stderr)

    def test_equivariant_in_combination(self):
        rng = np.random.default_rng(2)
        c = random_cov(rng, 5)
        f = rng.standard_normal((5, 2))
        increments = rng.standard_normal((3, 5)) * 0.01
        g = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        w1 = LocalWindow(increments=increments, cov_rate=c, d_o=0.01, combination=f)
        w2 = LocalWindow(increments=increments, cov_rate=c, d_o=0.01, combination=f @ g)
        np.testing.assert_allclose(
            estimate_theta(w1, f), estimate_theta(w2, f), atol=1e-10
        )

    def test_singular_cross_covariance(self):
        c = CovMatrix(np.eye(2))
        x = np.array([[1.0], [0.0]])
        f = np.array([[0.0], [1.0]])    # x' c f = 0
        window = LocalWindow(increments=np.zeros((1, 2)), cov_rate=c, d_o=1.0, combination=x)
        with pytest.raises(SingularCrossCovariance):
            estimate_theta(window, f)

    def test_cross_covariance_below_the_rank_rule(self):
        # singular values 1 and 1e-11: dependent by psd.RANK_RTOL = 1e-10
        window = LocalWindow(increments=np.ones((1, 2)), cov_rate=CovMatrix(np.eye(2)), d_o=1.0,
                             combination=np.eye(2))
        with pytest.raises(SingularCrossCovariance):
            estimate_theta(window, np.diag([1.0, 1e-11]))


class TestMse:
    def test_diagonal_fund_covariance(self):
        # f' c f dO = diag(2, 4) -> mse(f) = 1/2 + 1/4
        c = CovMatrix(np.diag([2.0, 4.0]))
        f = np.eye(2)
        assert mse(f, f, c, 1.0) == pytest.approx(0.75, abs=1e-12)

    def test_reparametrisation_invariance(self):
        rng = np.random.default_rng(3)
        c = random_cov(rng, 4)
        f = rng.standard_normal((4, 2))
        g = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
        assert mse(f @ g, f, c, 0.5) == pytest.approx(mse(f, f, c, 0.5), rel=1e-9)

    def test_minimised_at_funds(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c = random_cov(rng, 4)
            f = well_conditioned_frame(rng, 4, 2)
            x = rng.standard_normal((4, 2))
            assert mse(x, f, c, 1.0) >= mse(f, f, c, 1.0) - 1e-9


class TestDis:
    def test_single_fund_value(self):
        rng = np.random.default_rng(5)
        c = random_cov(rng, 3)
        f = rng.standard_normal((3, 1))
        assert dis(f, f, c, 0.3) == 0.5

    def test_three_fund_value(self):
        rng = np.random.default_rng(6)
        c = random_cov(rng, 5)
        f = rng.standard_normal((5, 3))
        assert dis(f, f, c, 7.0) == 1.5

    def test_optimality_sweep(self):
        rng = np.random.default_rng(7)
        c = random_cov(rng, 5)
        f = well_conditioned_frame(rng, 5, 2)
        for _ in range(500):
            x = rng.standard_normal((5, 2))
            assert dis(x, f, c, 1.0) >= 1.0 - 1e-9

    def test_an_invertible_mix_of_the_funds_is_half_the_fund_count(self):
        # the formula itself, not the x = f short-circuit
        rng = np.random.default_rng(9)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(dim, 4) + 1))
            c = random_cov(rng, dim)
            f = well_conditioned_frame(rng, dim, k)
            g = well_conditioned_frame(rng, k, k)
            d_o = float(rng.uniform(0.001, 2.0))
            assert abs(dis(f @ g, f, c, d_o) - 0.5 * k) <= 1e-12

    def test_dependent_funds_are_refused_at_the_funds(self):
        rng = np.random.default_rng(10)
        c = random_cov(rng, 3)
        f = np.repeat(rng.standard_normal((3, 1)), 2, axis=1)
        for x in (f, f @ np.array([[2.0, 1.0], [0.5, 1.5]])):
            with pytest.raises(SingularCrossCovariance):
                dis(x, f, c, 1.0)
        with pytest.raises(SingularCrossCovariance):
            mse(f, f, c, 1.0)

    def test_more_funds_than_assets_are_refused_at_the_funds(self):
        f = np.random.default_rng(11).standard_normal((2, 3))
        with pytest.raises(SingularCrossCovariance):
            dis(f, f, CovMatrix(np.eye(2)), 1.0)

    def test_a_negative_window_is_refused_at_the_funds(self):
        rng = np.random.default_rng(12)
        c = random_cov(rng, 3)
        f = well_conditioned_frame(rng, 3, 2)
        for x in (f, f @ np.array([[2.0, 1.0], [0.5, 1.5]])):
            with pytest.raises(ValueError, match="not positive semidefinite"):
                dis(x, f, c, -1.0)


class TestFrobeniusObjective:
    def test_minimised_at_funds(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            dim = int(rng.integers(2, 7))
            k = int(rng.integers(1, dim))
            c = random_cov(rng, dim)
            eta = rng.standard_normal((k, k))
            eta /= np.linalg.norm(eta)
            f = well_conditioned_frame(rng, dim, k)
            x = rng.standard_normal((dim, k))
            assert (
                frobenius_objective(c, eta, f, x)
                >= frobenius_objective(c, eta, f, f) - 1e-9
            )


class TestMcDistance:
    @pytest.mark.parametrize("n_windows", [1, 0])
    def test_needs_two_windows(self, n_windows):
        with pytest.raises(ValueError, match="n_windows must be at least 2"):
            mc_distance_from_growth(f=np.array([1.0]), c=CovMatrix([[1.0]]),
                                    theta=np.array([0.4]), d_o=1.0, n_windows=n_windows, seed=11)

    def test_single_fund_half(self):
        result = mc_distance_from_growth(
            f=np.array([1.0]), c=CovMatrix([[1.0]]), theta=np.array([0.4]),
            d_o=1.0, n_windows=100_000, seed=11,
        )
        assert abs(result.mean - 0.5) <= 4.0 * result.stderr

    def test_two_funds_one(self):
        rng = np.random.default_rng(12)
        c = random_cov(rng, 6)
        f = rng.standard_normal((6, 2))
        result = mc_distance_from_growth(
            f=f, c=c, theta=np.array([0.5, -0.2]), d_o=1.0 / 252.0,
            n_windows=100_000, seed=13,
        )
        assert abs(result.mean - 1.0) <= 4.0 * result.stderr

    def test_independent_of_window_length(self):
        rng = np.random.default_rng(14)
        c = random_cov(rng, 3)
        f = rng.standard_normal((3, 1))
        for d_o in (0.001, 0.5, 3.0):
            result = mc_distance_from_growth(
                f=f, c=c, theta=np.array([1.0]), d_o=d_o, n_windows=50_000, seed=15
            )
            assert abs(result.mean - 0.5) <= 4.0 * result.stderr
