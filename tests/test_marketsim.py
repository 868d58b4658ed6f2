import dataclasses
import datetime
import io
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

from fundgrowth import tableio
from fundgrowth.errors import BadTruncation, ConfigError, EmptyGrid, RankDeficient
from fundgrowth.filtering import ndtr
from fundgrowth.marketsim import (
    DEFAULT_STEP,
    SimScenario,
    build_fund_model,
    draw_prior,
    euler_step,
    parse_scenario,
    residual_drift_check,
    run_scenario,
    simulate_path,
    uniform_clock,
    write_path_csv,
)
from fundgrowth.psd import CovMatrix


def random_cov(rng, dim):
    a = rng.standard_normal((dim, dim))
    return CovMatrix(a @ a.T / dim + 0.1 * np.eye(dim))


def prior(mean, cov, truncation=None):
    """A scenario that draws from the prior ``(mean, cov)``, truncated to ``truncation``."""
    lower, upper = truncation or (None, None)
    return SimScenario(dim=len(mean), cov_preset="identity", prior_mean=mean, prior_cov=cov,
                       truncation_l=lower, truncation_r=upper)


class TestDrawPrior:
    def test_degenerate_prior_returns_mean(self):
        spec = prior([0.5], CovMatrix([[0.0]]))
        for seed in range(5):
            assert draw_prior(spec, seed)[0] == 0.5

    @pytest.mark.parametrize("mean, truncation", [(0.0, (1.0, 2.0)), (3.0, (1.0, 2.0)),
                                                  (1.0, (1.0, 2.0)), (0.0, (-np.inf, 0.0))])
    def test_a_point_prior_outside_the_interval_is_refused(self, mean, truncation):
        # a point prior has probability only at its mean, and the interval is open
        with pytest.raises(BadTruncation, match="no prior probability"):
            draw_prior(prior([mean], CovMatrix([[0.0]]), truncation), 0)

    def test_a_point_prior_inside_the_interval_is_returned(self):
        assert draw_prior(prior([1.5], CovMatrix([[0.0]]), (1.0, 2.0)), 0)[0] == 1.5

    def test_deterministic_per_seed(self):
        spec = prior([0.1, -0.3], random_cov(np.random.default_rng(0), 2))
        np.testing.assert_array_equal(draw_prior(spec, 42), draw_prior(spec, 42))
        assert not np.array_equal(draw_prior(spec, 42), draw_prior(spec, 43))

    def test_sample_mean_clt_bound(self):
        spec = prior([0.3], CovMatrix([[0.04]]))
        draws = np.array([draw_prior(spec, 1000 + i)[0] for i in range(100_000)])
        assert abs(draws.mean() - 0.3) <= 3.0 * 0.2 / math.sqrt(100_000)

    def test_truncated_draw_in_interval(self):
        spec = prior([0.0], CovMatrix([[1.0]]), (1.5, 2.5))
        for seed in range(50):
            value = draw_prior(spec, seed)[0]
            assert 1.5 < value < 2.5

    def test_truncated_far_tail_uses_fallback(self):
        # essentially zero acceptance probability: inverse-CDF path must kick in
        spec = prior([0.0], CovMatrix([[1.0]]), (9.0, 9.5))
        value = draw_prior(spec, 7)[0]
        assert 9.0 < value < 9.5

    @pytest.mark.parametrize("lower, upper", [(0.5, 0.5 + 1e-15), (-1.0, -1.0 + 1e-14)])
    def test_a_narrow_interval_draws_strictly_inside(self, lower, upper):
        # the inverse-CDF draw of so narrow an interval can round onto or past an end
        spec = prior([0.0], CovMatrix([[1.0]]), (lower, upper))
        draws = np.array([draw_prior(spec, seed)[0] for seed in range(1000)])
        assert ((draws > lower) & (draws < upper)).all(), draws[(draws <= lower) | (draws >= upper)]

    def test_an_interval_without_an_interior_double_is_refused(self):
        spec = prior([0.0], CovMatrix([[1.0]]), (0.5, float(np.nextafter(0.5, 1.0))))
        with pytest.raises(BadTruncation, match="no prior probability"):
            draw_prior(spec, 0)

    @pytest.mark.parametrize("lower, upper", [(1.5, 2.5), (-0.5, 0.1), (-np.inf, -3.0),
                                              (4.0, 5.0), (-4.9, -4.0)])
    def test_feasible_truncation_draws_by_rejection(self, lower, upper):
        # the draws of rejection sampling without a prior-mass check, bit for bit
        spec = prior([0.0], CovMatrix([[1.0]]), (lower, upper))
        for seed in range(50):
            rng = np.random.default_rng(seed)
            while True:
                batch = 0.0 + 1.0 * rng.standard_normal(256)
                inside = np.flatnonzero((batch > lower) & (batch < upper))
                if inside.size:
                    break
            assert draw_prior(spec, seed)[0] == batch[inside[0]]

    @pytest.mark.parametrize("lower, upper", [(9.0, 9.5), (-9.5, -9.0), (7.5, 8.0)])
    def test_hopeless_truncation_skips_rejection(self, lower, upper):
        spec = prior([0.0], CovMatrix([[1.0]]), (lower, upper))
        # the inverse-CDF draw through the tail that keeps ndtr's precision, bit for bit
        sign, lo, hi = (-1.0, -upper, -lower) if lower >= 0.0 else (1.0, lower, upper)
        for seed in range(5):
            u = np.random.default_rng(seed).uniform(float(ndtr(lo)), float(ndtr(hi)))
            assert draw_prior(spec, seed)[0] == 0.0 + sign * 1.0 * NormalDist().inv_cdf(u)

    def test_truncation_needs_dim_one(self):
        with pytest.raises(BadTruncation):
            SimScenario(dim=2, cov_preset="identity", truncation_l=0.0, truncation_r=1.0)


def test_inv_cdf_matches_scipy():
    # the quantile the truncated fallback draws through, over the u it can see
    u = np.concatenate([np.logspace(-300.0, -1.0, 30_000), np.linspace(0.1, 1.0, 30_000,
                                                                         endpoint=False),
                        1.0 - np.logspace(-16.0, -1.0, 3_000)])
    got = np.array([NormalDist().inv_cdf(v) for v in u])
    np.testing.assert_allclose(got, special.ndtri(u), rtol=1e-14, atol=0.0)


class TestSimulatePath:
    def test_reproducible(self):
        c = random_cov(np.random.default_rng(1), 3)
        clock = uniform_clock(16)
        p1 = simulate_path([0.1, 0.2, -0.1], c, clock, seed=9)
        p2 = simulate_path([0.1, 0.2, -0.1], c, clock, seed=9)
        np.testing.assert_array_equal(p1.increments, p2.increments)

    @pytest.mark.parametrize("steps, step", [(23_558, 1.0 / 252.0), (8_256, 1.0 / 252.0),
                                             (60, 0.25), (100, 1e-3), (1, 0.1)])
    def test_clock_ends_at_step_times_steps(self, steps, step):
        # the horizon simulate prints its relative error against
        clock = uniform_clock(steps, step)
        assert clock[0] == 0.0 and clock[-1] == step * steps

    def test_euler_step_broadcasts_a_path_axis(self):
        # a stack of paths on one clock gives each path's own increments, bit for bit
        c = random_cov(np.random.default_rng(2), 3)
        nu, d_o = np.array([0.4, -0.1, 0.9]), np.diff(uniform_clock(30))
        xi = np.random.default_rng(5).standard_normal((4, d_o.size, 3))
        stacked = euler_step(nu, c, d_o, xi)
        assert stacked.shape == xi.shape
        for one, xi_one in zip(stacked, xi):
            np.testing.assert_array_equal(one, euler_step(nu, c, d_o, xi_one))
        np.testing.assert_array_equal(euler_step(nu, c, d_o[3], xi[:, 3]),
                                      stacked[:, 3])

    def test_empty_grid_rejected(self):
        c = CovMatrix([[1.0]])
        with pytest.raises(EmptyGrid):
            simulate_path([0.0], c, np.array([0.0]), seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_path([0.0], c, np.array([0.0, 0.0]), seed=0)

    @pytest.mark.parametrize("clock", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                       [-1.7e308, 1.7e308], [np.nan, np.nan]])
    def test_clock_with_a_step_not_finite_rejected(self, clock):
        with pytest.raises(ValueError, match="strictly increasing in finite steps"), \
                np.errstate(over="ignore", invalid="ignore"):
            simulate_path([0.0], CovMatrix([[1.0]]), np.array(clock), seed=0)

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf])
    def test_nu_not_finite_rejected(self, nu):
        with pytest.raises(ValueError, match="nu must be finite"):
            simulate_path([nu], CovMatrix([[1.0]]), uniform_clock(3), seed=0)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
    def test_uniform_clock_needs_a_positive_finite_step(self, step):
        with pytest.raises(ValueError, match="clock step must be positive and finite"):
            uniform_clock(3, step)

    def test_driftless_mean(self):
        c = CovMatrix([[0.04]])
        clock = uniform_clock(4, step=0.25)
        finals = np.array(
            [simulate_path([0.0], c, clock, seed=i).increments.sum() for i in range(10_000)]
        )
        stderr = finals.std(ddof=1) / math.sqrt(finals.size)
        assert abs(finals.mean()) <= 4.0 * stderr

    def test_one_dim_drift(self):
        # E[R(T)] = sigma^2 nu T
        sigma_sq, nu, T = 0.09, 1.5, 2.0
        c = CovMatrix([[sigma_sq]])
        clock = uniform_clock(2, step=T / 2)
        finals = np.array(
            [simulate_path([nu], c, clock, seed=i).increments.sum() for i in range(100_000)]
        )
        stderr = finals.std(ddof=1) / math.sqrt(finals.size)
        assert abs(finals.mean() - sigma_sq * nu * T) <= 4.0 * stderr

    def test_quadratic_covariation(self):
        # nu kept at a realistic scale: the first-order QV identity needs the
        # per-step drift^2 term c nu^2 dO to be negligible
        rng = np.random.default_rng(3)
        for dim in (1, 3):
            c = random_cov(rng, dim)
            nu = 0.3 * rng.standard_normal(dim)
            n = 4000
            path = simulate_path(nu, c, uniform_clock(n), seed=5)
            qv = path.realized_quadratic_covariation()
            target = c.entries * (n * DEFAULT_STEP)
            rel = np.linalg.norm(qv - target) / np.linalg.norm(target)
            assert rel <= 5.0 / math.sqrt(n)


class TestFundModel:
    def test_saturated_model(self):
        c = random_cov(np.random.default_rng(4), 3)
        spec = build_fund_model(c, np.eye(3))
        np.testing.assert_allclose(spec.beta, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(spec.residual_cov.entries, 0.0, atol=1e-9)

    def test_single_fund_beta_ratio(self):
        # one-fund exposures are covariance ratios against the fund
        rng = np.random.default_rng(6)
        c = random_cov(rng, 4)
        w = rng.uniform(0.1, 1.0, size=4)
        w /= w.sum()
        spec = build_fund_model(c, w[:, None])
        expected = (c.entries @ w) / float(w @ c.entries @ w)
        np.testing.assert_allclose(spec.beta[:, 0], expected, atol=1e-12)

    def test_orthogonality_identity(self):
        rng = np.random.default_rng(8)
        c = random_cov(rng, 5)
        f = rng.standard_normal((5, 2))
        spec = build_fund_model(c, f)
        lhs = spec.beta @ (f.T @ c.entries @ f)
        np.testing.assert_allclose(lhs, c.entries @ f, atol=1e-9)
        np.testing.assert_allclose(spec.residual_cov.entries @ f, 0.0, atol=1e-9)

    def test_rank_deficient_rejected(self):
        c = random_cov(np.random.default_rng(9), 3)
        f = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            build_fund_model(c, f)

    def test_residual_covariance_realized(self):
        rng = np.random.default_rng(10)
        c = random_cov(rng, 4)
        spec = build_fund_model(c, rng.standard_normal((4, 2)))
        n = 200_000
        report_dim = spec.assets
        xi = rng.standard_normal((n, report_dim))
        from fundgrowth.psd import sqrt_entries

        d_o = 1.0 / 252.0
        d_r = math.sqrt(d_o) * xi @ sqrt_entries(c)
        d_n = d_r @ (np.eye(report_dim) - spec.beta @ spec.f.T).T
        realized = d_n.T @ d_n / (n * d_o)
        assert np.abs(realized - spec.residual_cov.entries).max() <= 6.0 / math.sqrt(n)


class TestResidualDrift:
    @pytest.mark.parametrize("n_paths", [1, 0, -4])
    def test_needs_two_paths(self, n_paths):
        rng = np.random.default_rng(12)
        spec = build_fund_model(random_cov(rng, 4), rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="n_paths must be at least 2"):
            residual_drift_check(spec, spec.f @ np.zeros(2), n_paths=n_paths, seed=1)

    def test_zero_theta(self):
        rng = np.random.default_rng(12)
        c = random_cov(rng, 4)
        spec = build_fund_model(c, rng.standard_normal((4, 2)))
        z_scores = residual_drift_check(spec, spec.f @ np.zeros(2), n_paths=50_000, seed=1)
        assert np.all(np.abs(z_scores) <= 4.0)

    def test_in_span_drift_vanishes(self):
        rng = np.random.default_rng(14)
        c = random_cov(rng, 5)
        spec = build_fund_model(c, rng.standard_normal((5, 2)))
        z_scores = residual_drift_check(spec, spec.f @ np.array([0.7, -1.2]), n_paths=100_000,
                                        seed=2)
        assert np.all(np.abs(z_scores) <= 4.0)

    def test_out_of_span_rejected(self):
        rng = np.random.default_rng(16)
        c = random_cov(rng, 5)
        f = rng.standard_normal((5, 2))
        spec = build_fund_model(c, f)
        # unit offset orthogonal to span(c f): residual drift equals c u != 0
        cf = c.entries @ f
        u = rng.standard_normal(5)
        u -= cf @ np.linalg.solve(cf.T @ cf, cf.T @ u)
        u /= np.linalg.norm(u)
        z_scores = residual_drift_check(spec, spec.f @ np.array([0.7, -1.2]) + u,
                                        n_paths=100_000, seed=3)
        assert np.abs(z_scores).max() > 4.0


class TestScenario:
    def test_parse_minimal(self):
        scenario = parse_scenario("dim = 1\ncov = 0.04\nsteps = 10\nseed = 5\n")
        assert scenario.dim == 1 and scenario.steps == 10 and scenario.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            parse_scenario("dim = 1\ncov = 1.0\nbogus = 3\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: scenario key 'steps' already set on line 2"):
            parse_scenario("dim = 1\nsteps = 10\nsteps = 20\ncov = 1.0\n")

    @pytest.mark.parametrize("text", [
        "dim = 1\ncov = 1.0\nsteps = x\n",
        "seed = 1\ncov = 1.0\ndim = two\n",
        "dim = 1\ncov = 1.0\nnu = 1,,2\n",
        "dim = 2\nseed = 1\ncov = 1, -3; 2, 1\n",
    ])
    def test_bad_value_names_its_line(self, text):
        with pytest.raises(ConfigError, match="line 3: bad value"):
            parse_scenario(text)

    def test_first_bad_line_in_file_order_is_reported(self):
        with pytest.raises(ConfigError, match="^line 1: bad value for 'steps'"):
            parse_scenario("steps = x\nbogus = 1\n")

    @pytest.mark.parametrize("values, message", [
        ({"dt": -1.0}, "dt must be positive and finite"),
        ({"drift_check_paths": 1, "f": np.array([[1.0]]), "theta": np.array([1.0])},
         r"drift_check_paths must be 0 \(off\) or at least 2"),
        ({"nu": np.array([1.0]), "drift_check_paths": 5}, "drift_check_paths set without f"),
        ({"nu": np.array([1.0]), "prior_mean": np.array([0.0])}, "prior_mean set beside nu"),
        ({"f": np.array([[1.0]]), "theta": np.array([1.0]), "truncation_r": 1.0},
         "truncation_r set beside f"),
        ({"cov_preset": "identity"}, "exactly one of 'cov' and 'cov_preset'"),
    ], ids=["dt_negative", "drift_paths_one", "drift_paths_with_nu", "prior_mean_with_nu",
            "truncation_with_f", "cov_with_cov_preset"])
    def test_scenario_built_in_code_is_checked(self, values, message):
        with pytest.raises(ConfigError, match=message):
            SimScenario(dim=1, cov=CovMatrix([[1.0]]), **values)

    @pytest.mark.parametrize("mean, cov, message", [
        ([0.0], [[1.0]], "prior_cov has dim 1, scenario declares 2"),
        ([0.0, np.nan], np.eye(2), "prior_mean must be 2 finite"),
    ], ids=["one_dim_prior", "nan_mean"])
    def test_prior_built_in_code_is_checked(self, mean, cov, message):
        with pytest.raises(ConfigError, match=message):
            SimScenario(dim=2, cov=CovMatrix(np.eye(2)), prior_mean=np.array(mean),
                        prior_cov=CovMatrix(cov))

    def test_fixed_nu_needs_no_prior(self):
        built = SimScenario(dim=1, cov_preset="us_one_fund", nu=np.array([2.0]), steps=50, seed=3)
        parsed = parse_scenario("dim = 1\ncov_preset = us_one_fund\nnu = 2\nsteps = 50\nseed = 3\n")
        np.testing.assert_array_equal(run_scenario(built, built.seed).increments,
                                      run_scenario(parsed, parsed.seed).increments)

    @pytest.mark.parametrize("values, message", [
        ({"dim": 1.0}, "dim must be an integer, got 1.0"),
        ({"steps": 2.5}, "steps must be an integer, got 2.5"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"drift_check_paths": 2.0, "nu": None, "f": [[1.0]], "theta": [1.0]},
         "drift_check_paths must be an integer, got 2.0"),
    ], ids=["dim", "steps", "seed", "drift_check_paths"])
    def test_counts_must_be_integers(self, values, message):
        values = {"dim": 1, "cov": CovMatrix([[1.0]]), "nu": np.array([2.0]), **values}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SimScenario(**values)

    @pytest.mark.parametrize("values, text", [
        ({"dim": 1, "cov": CovMatrix([[1.0]]), "nu": [2.0]}, "dim = 1\ncov = 1\nnu = 2"),
        ({"dim": 2, "cov": [[1.0, 0.5], [0.5, 2.0]], "prior_mean": [0.1, 0.2],
          "prior_cov": [[1.0, 0.0], [0.0, 0.5]]},
         "dim = 2\ncov = 1, 0.5; 0.5, 2\nprior_mean = 0.1, 0.2\nprior_cov = 1, 0; 0, 0.5"),
        ({"dim": 2, "cov": np.eye(2), "f": [[1.0], [0.5]], "theta": [0.8]},
         "dim = 2\ncov = 1, 0; 0, 1\nf = 1; 0.5\ntheta = 0.8"),
    ], ids=["nu", "prior", "fund"])
    def test_scenario_built_from_lists(self, values, text):
        # lists and plain matrices become the arrays and CovMatrix a file gives
        built = SimScenario(steps=50, seed=3, **values)
        parsed = parse_scenario(text + "\nsteps = 50\nseed = 3\n")
        assert isinstance(built.cov, CovMatrix)
        np.testing.assert_array_equal(run_scenario(built, 3).increments,
                                      run_scenario(parsed, 3).increments)

    def test_replace_rebuilds_a_checked_scenario(self):
        preset = parse_scenario("dim = 1\ncov_preset = identity\nsteps = 5\n")
        fund = parse_scenario("dim = 1\ncov = 1\nf = 1\ntheta = 0.5\n")
        assert dataclasses.replace(preset, steps=10).cov.entries.tolist() == [[1.0]]
        assert dataclasses.replace(fund, seed=4).drift_check_paths == 100_000
        assert preset.cov_preset is None and preset.drift_check_paths is None

    def test_steps_end_by_the_last_date(self):
        # write_path_csv dates row i as 1927-07-01 plus i days; 9999-12-31 is the last date
        assert datetime.date(1927, 7, 1) + datetime.timedelta(days=2_948_421) == datetime.date.max
        text = "dim = 1\ncov = 0.01\nsteps = {}\n"
        assert parse_scenario(text.format(2_948_422)).steps == 2_948_422
        with pytest.raises(ConfigError, match="^steps must be at most 2948422, got 2948423$"):
            parse_scenario(text.format(2_948_423))

    def test_fund_scenario_needs_theta(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_scenario("dim = 2\ncov_preset = identity\nf = 1,0; 0,1\n")

    def test_run_scenario_deterministic(self):
        text = "dim = 2\ncov_preset = identity\nprior_mean = 0.1, 0.2\nsteps = 20\nseed = 3\n"
        scenario = parse_scenario(text)
        p1, p2 = run_scenario(scenario, scenario.seed), run_scenario(scenario, scenario.seed)
        np.testing.assert_array_equal(p1.increments, p2.increments)

    def test_csv_export_schema(self):
        scenario = parse_scenario("dim = 1\ncov = 0.01\nsteps = 5\nseed = 1\nnu = 0.5\n")
        path = run_scenario(scenario, scenario.seed)
        buf = io.StringIO()
        rows = write_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert rows == 5
        assert lines[0] == "date,ret_1,rf"
        assert len(lines) == 6
        assert lines[1].endswith(",0.0")

    @pytest.mark.parametrize("funds", [False, True])
    def test_csv_export_streams_the_same_bytes_in_blocks(self, monkeypatch, funds):
        c = random_cov(np.random.default_rng(4), 3)
        path = simulate_path([0.5, -0.2, 1.0], c, uniform_clock(11), seed=7)
        loadings = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        fund = build_fund_model(c, loadings) if funds else None
        written = []

        def write_table(out, header, blocks):
            blocks = list(blocks)
            written.append([len(values) for _, values in blocks])
            return real_write_table(out, header, blocks)

        real_write_table = tableio.write_table
        monkeypatch.setattr(tableio, "write_table", write_table)     # imported at each call
        texts = []
        width = 1 + (2 if funds else 3) + 1        # date, the returns and rf
        for cells in (tableio._TABLE_BLOCK_CELLS, 3 * width):
            monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", cells)
            buf = io.StringIO()
            assert write_path_csv(path, buf, fund=fund) == 11
            texts.append(buf.getvalue())
        assert written == [[11], [3, 3, 3, 2]]
        assert texts[0] == texts[1]
