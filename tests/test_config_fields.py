"""Every field of both config records, given a value that no file parser produces,
is refused with a ``ConfigError`` that names the field: text for a number, a count
or an array, ``"no"`` for the flag, a nested list that is no square matrix for a
matrix, and ``3`` for a text key.  A value that only stands in for one of the right
kind is refused by that kind's rule too: ``True`` for a count or a real, numbers
written as text or a ``bool`` array for an array, and a vector that is not 1-D."""

import dataclasses
import re

import pytest

from fundgrowth.backtest import BacktestConfig
from fundgrowth.errors import ConfigError
from fundgrowth.marketsim import SimScenario

PRIOR = {"dim": 1, "cov_preset": "identity", "prior_mean": [0.0], "prior_cov": [[1.0]],
         "truncation_l": -1.0, "truncation_r": 1.0, "dt": 0.1, "steps": 5, "seed": 1}
FIXED = {"dim": 2, "cov": [[1.0, 0.0], [0.0, 1.0]], "nu": [1.0, 0.5]}
FUND = {"dim": 2, "cov_preset": "identity", "f": [[1.0], [0.5]], "theta": [1.0],
        "drift_check_paths": 10}
ANCHORED = {"nu0": [1.0], "kappa0": [[1.0]]}

SCENARIO_ROWS = [
    ("dim", "1", PRIOR),
    ("cov", [[1.0, 0.0]], FIXED),
    ("cov_preset", 3, PRIOR),
    ("prior_mean", "x", PRIOR),
    ("prior_cov", [[1.0, 0.0]], PRIOR),
    ("truncation_l", "-1", PRIOR),
    ("truncation_r", "1", PRIOR),
    ("nu", [1.0, "a"], FIXED),
    ("dt", "0.1", PRIOR),
    ("steps", "5", PRIOR),
    ("seed", "1", PRIOR),
    ("f", [[1.0], [0.5, 0.0]], FUND),
    ("theta", "x", FUND),
    ("drift_check_paths", "10", FUND),
]
CONFIG_ROWS = [
    ("burn_in_days", "100", {}),
    ("nu0", "abc", ANCHORED),
    ("kappa0", [[1.0], [1.0, 0.0]], ANCHORED),
    ("truncation_l", "0", {}),
    ("truncation_r", "1", {}),
    ("drop_policy", 3, {}),
    ("demean_covariance", "no", {}),
    ("force_a", "0.5", {}),
    ("force_nu_hat", "x", {}),
]
ROWS = ([(SimScenario, *row) for row in SCENARIO_ROWS]
        + [(BacktestConfig, *row) for row in CONFIG_ROWS])

# A value of the wrong kind that Python or numpy would read as one of the right kind.
STAND_IN_ROWS = [
    (SimScenario, "dim", True, PRIOR),
    (SimScenario, "cov", [["1.0", "0"], ["0", "1.0"]], FIXED),
    (SimScenario, "prior_mean", ["0.5"], PRIOR),
    (SimScenario, "prior_cov", [["1.0"]], PRIOR),
    (SimScenario, "truncation_l", True, {**PRIOR, "truncation_r": 2.0}),
    (SimScenario, "truncation_r", True, PRIOR),
    (SimScenario, "nu", ["2.0", "1"], FIXED),
    (SimScenario, "nu", [True, False], FIXED),
    (SimScenario, "nu", [[1.0, 0.5]], FIXED),
    (SimScenario, "dt", True, PRIOR),
    (SimScenario, "steps", True, PRIOR),
    (SimScenario, "seed", True, PRIOR),
    (SimScenario, "f", [["1"], ["0.5"]], FUND),
    (SimScenario, "f", 1.0, FUND),
    (SimScenario, "f", [1.0, 0.0], FUND),
    (SimScenario, "theta", ["1"], FUND),
    (SimScenario, "drift_check_paths", True, FUND),
    (BacktestConfig, "burn_in_days", True, {}),
    (BacktestConfig, "nu0", ["1"], ANCHORED),
    (BacktestConfig, "nu0", [[1.0]], ANCHORED),
    (BacktestConfig, "kappa0", [["1"]], ANCHORED),
    (BacktestConfig, "truncation_l", True, {}),
    (BacktestConfig, "truncation_r", True, {}),
    (BacktestConfig, "force_a", True, {}),
    (BacktestConfig, "force_nu_hat", "0.5", {}),
    (BacktestConfig, "force_nu_hat", [0.5, "1"], {}),
    (BacktestConfig, "force_nu_hat", 0.5, {}),
]
# What each kind's rule says: a count, a real, or an array that numpy reads first.
KIND_RULE = r"( must be an integer, | must be a real number, |: expected numbers as a )"


def test_the_rows_cover_every_field_once():
    for record, rows in ((SimScenario, SCENARIO_ROWS), (BacktestConfig, CONFIG_ROWS)):
        assert [row[0] for row in rows] == [field.name for field in dataclasses.fields(record)]


@pytest.mark.parametrize("base", [PRIOR, FIXED, FUND], ids=["prior", "fixed", "fund"])
def test_each_base_scenario_is_valid(base):
    SimScenario(**base)


@pytest.mark.parametrize("base", [{}, ANCHORED], ids=["default", "anchored"])
def test_each_base_config_is_valid(base):
    BacktestConfig(**base)


@pytest.mark.parametrize("record, name, value, base", ROWS,
                         ids=[f"{record.__name__}.{name}" for record, name, *_ in ROWS])
def test_a_value_no_parser_gives_is_refused_by_name(record, name, value, base):
    with pytest.raises(ConfigError) as error:
        record(**{**base, name: value})
    assert re.search(rf"\b{name}\b", str(error.value)), str(error.value)


@pytest.mark.parametrize("record, name, value, base", STAND_IN_ROWS,
                         ids=[f"{record.__name__}.{name}={value!r}"
                              for record, name, value, _ in STAND_IN_ROWS])
def test_a_stand_in_of_the_right_kind_is_refused_by_the_kind(record, name, value, base):
    with pytest.raises(ConfigError, match=rf"^{name}{KIND_RULE}"):
        record(**{**base, name: value})
