import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundgrowth import svgchart
from fundgrowth.errors import EmptyRange

LABELS = [f"d{i}" for i in range(7)]
NAN = math.nan


def line_chart(title, x_labels, series):
    """The chart ``svgchart.line_chart`` writes, as one string."""
    out = io.StringIO()
    svgchart.line_chart(out, title, x_labels, series)
    return out.getvalue()


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


def test_unscalable_span_is_rejected_before_writing():
    out = io.StringIO()
    with pytest.raises(EmptyRange, match="no range a chart can scale"):
        svgchart.line_chart(out, "huge", LABELS, [("s", np.array([1e308, -1e308, 0.0]))])
    assert out.getvalue() == ""
    # a constant series too large for the half-unit margin to widen
    with pytest.raises(EmptyRange, match="no range a chart can scale"):
        line_chart("flat", LABELS, [("s", np.full(3, 1e308))])


@pytest.mark.parametrize("values", [[0.0, 5e-324], [0.0, 2e-323], [-5e-324, 5e-324],
                                    [1.0, 1.0000000000000002]])
def test_span_too_small_to_step_is_rejected_before_writing(values):
    # a fifth of the span underflows, or a tick step is below half an ulp
    out = io.StringIO()
    with pytest.raises(EmptyRange, match="no range a chart can scale"):
        svgchart.line_chart(out, "tiny", LABELS, [("s", np.array(values))])
    assert out.getvalue() == ""


def points_text(x, y):
    """The points of ``_polyline`` of the ``_words`` of ``x`` and ``y``; a lone point
    comes back as its circle's centre."""
    mark = svgchart._polyline(svgchart._words(np.asarray(x, float), ","),
                              svgchart._words(np.asarray(y, float), " "), "#000000")
    found = re.fullmatch(r'<polyline [^>]*points="([^"]*)"/>\n|<circle cx="([^"]*)" cy="([^"]*)".*\n',
                         mark)
    return found[1] if found[1] is not None else f"{found[2]},{found[3]}"


def assert_points_match_percent(values):
    values = np.asarray(values, float)
    if values.size % 2:
        values = np.append(values, values[:1])
    x, y = values[0::2], values[1::2]
    want = " ".join(["%.2f,%.2f"] * x.size) % tuple(np.column_stack([x, y]).ravel().tolist())
    assert points_text(x, y) == want


def test_points_at_every_rounding_midpoint_and_its_neighbours():
    # j / 200 for odd j is halfway between two hundredths: the double nearest to
    # it lies on one side or, for the binary ties (x.125, x.375, ...), on it
    mid = np.arange(1, 200_000, 2) / 200.0
    assert_points_match_percent(mid)
    assert_points_match_percent(np.nextafter(mid, 0.0))
    assert_points_match_percent(np.nextafter(mid, np.inf))


def test_points_at_exact_binary_ties_round_half_even():
    ties = [0.125, 0.375, 0.625, 0.875, 2.125, 999.875, 64.625, 255.375]
    assert points_text(ties[0::2], ties[1::2]) == "0.12,0.38 0.62,0.88 2.12,999.88 64.62,255.38"


def test_points_on_a_million_uniform_doubles():
    assert_points_match_percent(np.random.default_rng(20).uniform(0.0, 1000.0, 1_000_000))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=40))
def test_points_match_percent_format(values):
    assert_points_match_percent(values)


def test_lone_point_is_formatted_like_a_run():
    assert points_text([444.0], [0.125]) == "444.00,0.12"


@pytest.mark.parametrize("bad", [0.0, -0.0, -0.001, 1000.0, NAN, math.inf])
def test_points_outside_the_domain_are_refused(bad):
    # -0.001 would be written -0.00 by %.2f; no coordinate may wrap a table index
    with pytest.raises(ValueError, match=r"\(0, 1000\)"):
        svgchart._polyline(svgchart._words(np.array([64.0, 100.0]), ","),
                           svgchart._words(np.array([100.0, bad]), " "), "#000000")
