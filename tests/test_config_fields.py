"""Every field of both config records, given a value that no file parser produces,
is refused with a ``ConfigError`` that names the field: text for a number, a count
or an array, ``"no"`` for the flag, a nested list that is no square matrix for a
matrix, and ``3`` for a text key."""

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
