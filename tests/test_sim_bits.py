"""The simulated markets' bits, pinned.

Each digest or literal below was recorded from ``simulate_path``,
``residual_drift_check``, ``mc_distance_from_growth`` and ``draw_prior`` before
their Euler step and their truncated-tail mapping were each folded into one
place, so a refactor of either shows here as a changed bit.
"""

import hashlib
import math

import numpy as np
import pytest

from fundgrowth.errors import BadTruncation
from fundgrowth.estimators import mc_distance_from_growth
from fundgrowth.marketsim import (
    SimScenario,
    build_fund_model,
    draw_prior,
    residual_drift_check,
    simulate_path,
    uniform_clock,
)
from fundgrowth.psd import CovMatrix

COV_3 = CovMatrix([[0.04, 0.01, -0.006], [0.01, 0.09, 0.02], [-0.006, 0.02, 0.0225]])


def digest(values) -> str:
    values = np.asarray(values)
    return hashlib.sha256(values.dtype.str.encode() + str(values.shape).encode()
                          + values.tobytes()).hexdigest()


def fund_model():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    c = CovMatrix(a @ a.T / 4 + 0.1 * np.eye(4))
    return build_fund_model(c, rng.standard_normal((4, 2)))


@pytest.mark.parametrize("clock, seed, expected", [
    (uniform_clock(500), 9, "56698acc91825265deafc6a426148d7641d607017bda13a53dfc42fd76a5b8d0"),
    (np.cumsum(np.r_[0.0, np.linspace(0.001, 0.3, 40)]), 4, "6759615ceb0e5b43122e4f45351dcfbe36ddb2ee9a9812c0e9225141ffe649f3"),
], ids=["uniform_clock", "uneven_clock"])
def test_simulate_path_increments(clock, seed, expected):
    path = simulate_path([0.8, -1.5, 2.0], COV_3, clock, seed)
    assert digest(path.increments) == expected


@pytest.mark.parametrize("offset, expected", [
    (None, "b756423acf301fe5fdcc3883762156d51c9923d9de65d1b259b1379419cacf19"),
    ([0.3, -0.1, 0.7, 0.2], "3ad857a08b0c82715af7efab8ca37a3d2d39cf2a617a67186411abac8875abca"),
], ids=["in_span", "nu_offset"])
def test_residual_drift_z_scores(offset, expected):
    spec = fund_model()
    nu = spec.f @ np.array([0.7, -1.2])
    if offset is not None:
        nu = nu + np.array(offset)
    report = residual_drift_check(spec, nu, n_paths=5_000, seed=5, d_o=0.02)
    # the z-scores as an array, or as a report's z_scores before that wrapper went
    assert digest(getattr(report, "z_scores", report)) == expected


def test_mc_distance_mean_and_stderr():
    spec = fund_model()
    result = mc_distance_from_growth(spec.f, spec.cov_rate, [0.7, -1.2], d_o=1.0 / 252.0,
                                     n_windows=20_000, seed=8)
    assert (result.mean.hex(), result.stderr.hex()) == ("0x1.00ce8604dd94ep+0", "0x1.d1ffea35c8fd4p-8")


# Truncation intervals in standard units of the prior: feasible ones, a left and a right
# tail with one infinite end, hopeless ones far in each tail (drawn by the inverse CDF),
# ones with no mass in double precision, and one of subnormal mass.
Z_INTERVALS = [(1.5, 2.5), (-0.5, 0.1), (-math.inf, -3.0), (2.0, math.inf), (4.0, 5.0),
               (-4.9, -4.0), (9.0, 9.5), (-9.5, -9.0), (7.5, 8.0), (-math.inf, -8.0),
               (8.5, math.inf), (40.0, 41.0), (-41.0, -40.0), (-38.5, -38.0)]
PRIORS = [(0.3, 0.04), (-2.0, 9.0), (5.0, 0.25)]


def prior_draws():
    for mean, var in PRIORS:
        sd = math.sqrt(var)
        for z_lo, z_hi in Z_INTERVALS:
            scenario = SimScenario(dim=1, cov_preset="identity", prior_mean=[mean],
                                   prior_cov=[[var]], truncation_l=mean + z_lo * sd,
                                   truncation_r=mean + z_hi * sd)
            for seed in range(12):
                try:
                    yield float(draw_prior(scenario, seed)[0]).hex()
                except BadTruncation as error:
                    yield f"BadTruncation: {error}"


def test_draw_prior_over_truncated_intervals():
    lines = "\n".join(prior_draws())
    assert lines.count("BadTruncation") == 2 * len(PRIORS) * 12
    assert hashlib.sha256(lines.encode()).hexdigest() == "a10d769dae23145204498b6ad0bc975df46d8ac6c7e54329b30d15eb9e6e9687"


def test_draw_prior_untruncated():
    scenario = SimScenario(dim=3, cov_preset="identity", prior_mean=[0.1, -0.3, 2.0],
                           prior_cov=COV_3)
    draws = np.array([draw_prior(scenario, seed) for seed in range(20)])
    assert digest(draws) == "0c6685d89460b24b69be7455101136c906ec072bbdfb3fb53943d012da3ebd29"
