import math
import re

import numpy as np
import pytest

from fundgrowth.errors import EmptyRange
from fundgrowth.svgchart import line_chart

LABELS = [f"d{i}" for i in range(7)]
NAN = math.nan


def marks(svg):
    """Polyline point lists and circle centres, in document order."""
    found = re.findall(r'<polyline [^>]*points="([^"]*)"|<circle cx="([^"]*)" cy="([^"]*)"', svg)
    return [points.split(" ") if points else [f"{cx},{cy}"] for points, cx, cy in found]


def test_nan_gap_splits_the_line():
    svg = line_chart("gap", LABELS, [("s", np.array([0.0, 1.0, NAN, 2.0, 3.0]))])
    runs = marks(svg)
    assert [len(run) for run in runs] == [2, 2]
    assert runs[0][0].startswith("64.00,") and runs[1][1].startswith("824.00,")
    assert "<circle" not in svg


def test_lone_point_between_nans_is_a_circle():
    values = np.array([0.0, 1.0, NAN, 2.0, NAN, 3.0, 4.0])
    svg = line_chart("lone", LABELS, [("s", values)])
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 1
    # index 3 of 7 sits at the middle of the 760-pixel plot width
    assert re.search(r'<circle cx="444.00" cy="[0-9.]+" r="1.5"', svg)
    assert [len(run) for run in marks(svg)] == [2, 1, 2]


def test_constant_series_is_centred():
    svg = line_chart("flat", LABELS, [("s", np.full(3, 1.0))])
    assert marks(svg) == [["64.00,205.00", "444.00,205.00", "824.00,205.00"]]


def test_unequal_lengths_share_the_index_axis():
    long = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    short = np.array([4.0, 0.0, 2.0])
    runs = marks(line_chart("mixed", LABELS, [("long", long), ("short", short)]))
    assert [p.split(",")[0] for p in runs[0]] == ["64.00", "254.00", "444.00", "634.00", "824.00"]
    assert [p.split(",")[0] for p in runs[1]] == ["64.00", "254.00", "444.00"]
    # same values plot at the same height in both series
    assert runs[1][0].split(",")[1] == runs[0][4].split(",")[1]
    assert runs[1][2].split(",")[1] == runs[0][2].split(",")[1]


def test_nothing_finite_is_rejected():
    with pytest.raises(EmptyRange, match="no finite values"):
        line_chart("empty", LABELS, [("s", np.array([NAN, NAN])), ("t", np.array([math.inf]))])
