"""Acceptance criteria, one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines with measured values).
"""

import datetime
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize

from fundgrowth import cli
from fundgrowth.backtest import BacktestConfig, ReturnSeries, run_backtest
from fundgrowth.estimators import dis, frobenius_objective, mc_distance_from_growth
from fundgrowth.filtering import (
    f_growth_increment,
    gaussian_posterior,
    growth_loss,
    restricted_growth_loss,
    truncated_posterior_1d,
)
from fundgrowth.marketsim import build_fund_model, residual_drift_check
from fundgrowth.psd import CovMatrix, check_lemma_error_reduction, sqrt_entries
from fundgrowth.shrinkage import cardano_a, shrink_portfolio
from posterior_columns import psi_constant_cov

DAILY_STEP = 1.0 / 252.0
US_LIKE_DAILY_VAR = 0.18 ** 2 / 252.0      # 18% annualised volatility
US_LIKE_NU = 0.4 / 0.18                    # Sharpe ratio 0.4


def random_cov(rng, dim, definite=True):
    a = rng.standard_normal((dim, dim))
    m = a @ a.T / dim
    if definite:
        m = m + 0.1 * np.eye(dim)
    return CovMatrix(m)


def well_conditioned_frame(rng, dim, k):
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q * rng.uniform(0.5, 2.0, size=k)


def report(number, message):
    print(f"ACCEPTANCE {number:02d} PASS — {message}")


def test_criterion_01_distance_from_growth_is_half_the_fund_count():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(dim, 4) + 1))
        c = random_cov(rng, dim)
        f = rng.standard_normal((dim, k))
        d_o = float(rng.uniform(0.001, 3.0))
        assert dis(f, f, c, d_o) == 0.5 * k

    one_fund = mc_distance_from_growth(
        f=np.array([1.0]), c=CovMatrix([[1.0]]), theta=np.array([0.4]),
        d_o=1.0, n_windows=100_000, seed=102,
    )
    assert abs(one_fund.mean - 0.5) <= 4.0 * one_fund.stderr

    c6 = random_cov(rng, 6)
    two_fund = mc_distance_from_growth(
        f=rng.standard_normal((6, 2)), c=c6, theta=np.array([0.5, -0.2]),
        d_o=DAILY_STEP, n_windows=100_000, seed=103,
    )
    assert abs(two_fund.mean - 1.0) <= 4.0 * two_fund.stderr

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(1, f"dis(f)=K/2 exactly on 200 draws; MC {one_fund.mean:.4f}/{two_fund.mean:.4f} "
              f"within 4 SE ({elapsed:.1f}s)")


def test_criterion_02_prior_history_loss_number():
    c = 0.0324
    o_start = 10.0
    value = growth_loss([[1.0 / (c * o_start)]], [[c * 1.0]])
    assert value == pytest.approx(0.05, abs=1e-12)
    report(2, f"single-asset loss with ten units of history = {value:.12f}")


def test_criterion_03_growth_loss_identity_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(301)
    n_draws = 1_000_000
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        d_c = random_cov(rng, dim)
        kappa = random_cov(rng, dim, definite=False)
        nu_hat = rng.standard_normal(dim)
        draws = nu_hat + rng.standard_normal((n_draws, dim)) @ sqrt_entries(kappa)
        growth = 0.5 * np.einsum("ij,ij->i", draws @ d_c.entries, draws)
        gap = growth - f_growth_increment(nu_hat, d_c)
        stderr = float(gap.std(ddof=1)) / math.sqrt(n_draws)
        assert abs(float(gap.mean()) - growth_loss(kappa, d_c)) <= 4.0 * stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, f"100 instances, 1e6 draws each, all within 4 SE ({elapsed:.1f}s)")


def test_criterion_04_restriction_inequality_and_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(401)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        d_c = random_cov(rng, dim)
        kappa = random_cov(rng, dim, definite=False)
        rank = int(rng.integers(1, dim + 1))
        f = np.eye(dim) if rank == dim else rng.standard_normal((dim, rank))
        assert restricted_growth_loss(kappa, d_c, f) <= growth_loss(kappa, d_c) + 1e-9

        if dim >= 3:
            frame = rng.standard_normal((dim, int(rng.integers(2, dim))))
            assert (
                restricted_growth_loss(kappa, d_c, frame[:, :-1])
                <= restricted_growth_loss(kappa, d_c, frame) + 1e-9
            )

        c = random_cov(rng, dim)
        assert check_lemma_error_reduction(c, f) >= -1e-9 * c.trace
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"1000 instances: restriction never increases the loss ({elapsed:.1f}s)")


def test_criterion_05_estimation_objective_minimised_at_funds():
    rng = np.random.default_rng(501)
    for _ in range(1000):
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
    report(5, "1000 instances: objective(x) >= objective(f) - 1e-9")


def _bisect_fixed_point(h_entries, z):
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


def _tracking_objective_and_grad(pi, nu_hat, d_c, kdk):
    diff = pi - nu_hat
    bias_vec = d_c @ diff
    q = float(diff @ bias_vec)
    value = 0.25 * q * q + float(pi @ kdk @ pi)
    grad = q * bias_vec + 2.0 * kdk @ pi
    return value, grad


def test_criterion_06_shrinkage_solver_against_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(601)
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        d_c = random_cov(rng, dim)
        kappa = random_cov(rng, dim)
        nu_hat = rng.standard_normal(dim) * float(rng.uniform(0.3, 2.0))

        root = sqrt_entries(d_c)
        h = root @ kappa.entries @ root
        z = root @ nu_hat
        result = shrink_portfolio(nu_hat, kappa, d_c)
        assert not result.degenerate
        assert result.b == pytest.approx(_bisect_fixed_point(h, z), abs=1e-10)
        assert result.b < 0.5 * float(z @ z)

        kdk = d_c.entries @ kappa.entries @ d_c.entries
        opt = minimize(
            _tracking_objective_and_grad, nu_hat, args=(nu_hat, d_c.entries, kdk),
            jac=True, method="BFGS", options={"gtol": 1e-12, "maxiter": 1000},
        )
        assert np.abs(result.rho - opt.x).max() <= 1e-6

        lhs = float(nu_hat @ d_c.entries @ nu_hat)
        rhs = float(result.rho @ d_c.entries @ result.rho) + 2.0 * result.e_sq / result.b
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"1000 instances: b vs bisection 1e-10, rho vs BFGS 1e-6 ({elapsed:.1f}s)")


def test_criterion_07_cardano_closed_form():
    assert cardano_a(0.0) == 0.0
    for psi in np.logspace(-8.0, 8.0, 50):
        a = cardano_a(float(psi))
        residual = -4.0 * (2.0 * psi / 27.0) * (1.0 - a) ** 3 + 2.0 * a
        assert abs(residual) <= 1e-10

    rng = np.random.default_rng(701)
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        c = random_cov(rng, dim)
        o_now = float(rng.uniform(2.0, 20.0))
        d_o = float(rng.uniform(0.001, 0.1))
        r_cum = rng.standard_normal(dim)
        c_cum = CovMatrix(c.entries * o_now)
        kappa = CovMatrix(np.linalg.inv(c_cum.entries))
        nu_hat = kappa.entries @ r_cum
        uniform = cardano_a(psi_constant_cov(r_cum, c_cum)) * nu_hat
        full = shrink_portfolio(nu_hat, kappa, CovMatrix(c.entries * d_o)).rho
        assert np.abs(uniform - full).max() <= 1e-8
    report(7, "cubic residual <= 1e-10 over 16 decades; uniform == full shrink to 1e-8")


def _quad_truncated_moments(r, c, lo, hi):
    peak = min(max(r / c, lo), hi)

    def density(x):
        return math.exp(x * r - 0.5 * c * x * x - (peak * r - 0.5 * c * peak * peak))

    z, _ = quad(density, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    m1, _ = quad(lambda x: x * density(x), lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    m2, _ = quad(lambda x: x * x * density(x), lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    mean = m1 / z
    return mean, m2 / z - mean * mean


def test_criterion_08_posterior_against_independent_oracles():
    rng = np.random.default_rng(801)
    n_draws, batches = 1_000_000, 50
    for _ in range(20):
        kappa0 = random_cov(rng, 2)
        nu0 = rng.standard_normal(2)
        c0 = np.linalg.inv(kappa0.entries)
        r0 = c0 @ nu0
        a = rng.standard_normal((2, 2)) * 0.6
        d_c = a @ a.T
        d_r = d_c @ (nu0 + 0.5 * rng.standard_normal(2))
        nu_hat, kappa = gaussian_posterior(r0 + d_r, CovMatrix(c0 + d_c))

        draws = nu0 + rng.standard_normal((n_draws, 2)) @ sqrt_entries(kappa0)
        log_w = draws @ d_r - 0.5 * np.einsum("ij,ij->i", draws @ d_c, draws)
        weights = np.exp(log_w - log_w.max())

        means, covs = [], []
        for w_chunk, x_chunk in zip(np.array_split(weights, batches),
                                    np.array_split(draws, batches)):
            total = w_chunk.sum()
            mean = w_chunk @ x_chunk / total
            centered = x_chunk - mean
            covs.append((w_chunk[:, None] * centered).T @ centered / total)
            means.append(mean)
        means, covs = np.array(means), np.array(covs)

        mean_se = means.std(axis=0, ddof=1) / math.sqrt(batches)
        cov_se = covs.std(axis=0, ddof=1) / math.sqrt(batches)
        assert np.all(np.abs(means.mean(axis=0) - nu_hat) <= 4.0 * mean_se)
        assert np.all(np.abs(covs.mean(axis=0) - kappa) <= 4.0 * cov_se)

    for _ in range(50):
        c = float(rng.uniform(0.5, 5.0))
        r = float(rng.uniform(-2.0, 2.0)) * c
        lo = float(rng.uniform(-3.0, 0.5))
        hi = lo + float(rng.uniform(0.2, 3.0))
        nu_hat, kappa = truncated_posterior_1d(r, c, lo, hi)
        mean, var = _quad_truncated_moments(r, c, lo, hi)
        assert nu_hat[0] == pytest.approx(mean, abs=1e-8)
        assert kappa[0, 0] == pytest.approx(var, abs=1e-8)
    report(8, "20 weighted-MC posteriors within 4 SE; 50 truncated moments to 1e-8")


def test_criterion_09_fund_span_characterisation_by_simulation():
    rng = np.random.default_rng(901)
    c = random_cov(rng, 5)
    f = rng.standard_normal((5, 2))
    spec = build_fund_model(c, f)
    theta = np.array([0.7, -1.2])

    in_span = residual_drift_check(spec, spec.f @ theta, n_paths=100_000, seed=902)
    assert np.all(np.abs(in_span) <= 4.0)

    cf = c.entries @ f
    offset = rng.standard_normal(5)
    offset -= cf @ np.linalg.solve(cf.T @ cf, cf.T @ offset)
    offset /= np.linalg.norm(offset)          # orthogonal component of size 1.0
    out_span = residual_drift_check(spec, spec.f @ theta + offset, n_paths=100_000, seed=903)
    assert np.abs(out_span).max() > 4.0
    report(9, f"in-span max |z| = {np.abs(in_span).max():.2f}; "
              f"out-of-span max |z| = {np.abs(out_span).max():.1f}")


def test_criterion_10_shrunk_track_tames_variance_on_calibrated_paths(tmp_path):
    start = time.perf_counter()
    burn_in, post = 7500, 756
    n_steps = burn_in + post
    n_paths = 1000
    drift = US_LIKE_DAILY_VAR * US_LIKE_NU
    vol = math.sqrt(US_LIKE_DAILY_VAR)

    dates = tuple(
        datetime.date(1927, 7, 1) + datetime.timedelta(days=i) for i in range(n_steps)
    )
    zeros = np.zeros(n_steps)
    config = BacktestConfig(burn_in_days=burn_in)

    lower_variance = 0
    lower_tracking_error = 0
    for i in range(n_paths):
        rng = np.random.default_rng(31_000 + i)
        x = drift + vol * rng.standard_normal(n_steps)
        series = ReturnSeries(dates=dates, fund_returns=x[:, None], risk_free=zeros)
        bt = run_backtest(series, config)

        a_post = bt.a[burn_in:]
        assert np.all((a_post >= 0.0) & (a_post <= 1.0))

        d_nuhat = np.diff(bt.log_wealth_nuhat[burn_in:])
        d_shrunk = np.diff(bt.log_wealth_shrunk[burn_in:])
        d_f = np.diff(bt.f_growth[burn_in:])
        lower_variance += d_shrunk.var() < d_nuhat.var()
        lower_tracking_error += (
            np.mean((d_shrunk - d_f) ** 2) < np.mean((d_nuhat - d_f) ** 2)
        )

    assert lower_variance >= 0.95 * n_paths
    assert lower_tracking_error >= 0.90 * n_paths
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    # structural end-to-end: user-style CSV through the full figure pipeline
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "dim = 1\ncov = 0.0324\nnu = 2.2222\nsteps = 420\nseed = 23\n"
    )
    assert cli.main(["simulate", "--config", str(scenario), "--out", str(tmp_path)]) == 0
    bt_cfg = tmp_path / "bt.cfg"
    bt_cfg.write_text("burn_in_days = 120\n")
    assert cli.main(["backtest", "--input", str(tmp_path / "simulated.csv"),
                     "--config", str(bt_cfg), "--out", str(tmp_path)]) == 0
    assert cli.main(["report", "--input", str(tmp_path / "backtest.csv"),
                     "--out", str(tmp_path)]) == 0
    for name in ("portfolio", "shrink_factor", "wealth", "quadratic_variation"):
        ET.parse(tmp_path / f"{name}.svg")

    report(10, f"variance lower on {lower_variance}/1000 paths, tracking error lower on "
               f"{lower_tracking_error}/1000; four-panel pipeline intact ({elapsed:.1f}s)")
