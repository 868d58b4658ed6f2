"""A fuzz gate of the table reader: ``tableio.table_blocks`` and ``ingest_csv``
against a reader that takes one row at a time.

The one-row reader checks a row's cell count and date first, then reads its
numbers with ``np.loadtxt`` on that row alone.  Hypothesis draws the number of
funds, the block budget and a mix of rows of every kind the reader skips, drops
or keeps; it is derandomised, so every run reads the same tables.
"""

import datetime
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundgrowth import tableio
from fundgrowth.backtest import ingest_csv
from fundgrowth.errors import EmptySeries, ParseError

BAD_NUMBERS = ["x1", "1.2.3", "--0.5", "1_0", "０.５", "1e", ""]
NON_FINITE = ["nan", "inf", "-inf", "NaN"]
# numpy takes blanks around a number but not a cell of blanks alone
BLANK_CELLS = [" ", "　", " \t"]
PADS = [(" ", "　"), (" ", "\t"), ("　", "")]
BLANK_RF = ["", " \t", " ", "　", "nan"]
# numpy's datetime64[D] takes year 0, fromisoformat does not
BAD_DATES = ["19270702", "1927-W27-1", "2001-02-30", "0000-01-01", "２001-01-03",
             "2001-1-05"]
BLANK_LINES = ["", "  ", "\t"]
KINDS = ["good", "good", "good", "padded", "bad-number", "non-finite", "blank-cell",
         "blank-rf", "short", "long", "bad-date", "blank-line"]
NUMBERS = st.one_of(st.floats(-2.0, 2.0, allow_subnormal=True),
                    st.sampled_from([-1.0, -1.5, 0.0, -0.0, 5e-324, 1e300]))


@st.composite
def tables(draw):
    """``(k, block budget in cells, row texts)`` of a ``date,ret_1..ret_K,rf`` file."""
    k = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=30))
    order = draw(st.permutations(range(len(kinds))))
    rows = []
    for kind, day in zip(kinds, order):
        if kind == "blank-line":
            rows.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = [str(datetime.date(2001, 1, 1) + datetime.timedelta(days=day))]
        cells += [repr(draw(NUMBERS)) for _ in range(k + 1)]
        column = draw(st.integers(1, k + 1))
        if kind == "padded":
            before, after = draw(st.sampled_from(PADS))
            column = draw(st.integers(0, k + 1))
            cells[column] = before + cells[column] + after
        elif kind == "bad-number":
            cells[column] = draw(st.sampled_from(BAD_NUMBERS))
        elif kind == "non-finite":
            cells[column] = draw(st.sampled_from(NON_FINITE))
        elif kind == "blank-cell":
            cells[column] = draw(st.sampled_from(BLANK_CELLS))
        elif kind == "blank-rf":
            cells[-1] = draw(st.sampled_from(BLANK_RF))
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append(repr(draw(NUMBERS)))
        elif kind == "bad-date":
            cells[0] = draw(st.sampled_from(BAD_DATES))
        rows.append(",".join(cells))
    width = k + 2
    budget = draw(st.one_of(st.integers(1, 8 * width), st.just(tableio._TABLE_BLOCK_CELLS)))
    return k, budget, rows


def read_row(text, header):
    """A data row read on its own: ``(date, values)``, or the message of its error."""
    width = len(header)
    if text.count(",") != width - 1:
        return f"{text.count(',') + 1} cells, header has {width}"
    day = text.split(",")[0].strip()
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", day):
        return f"date {day!r} is not YYYY-MM-DD"
    try:
        date = datetime.date.fromisoformat(day)
        values = np.loadtxt([text], delimiter=",", comments=None, ndmin=2,
                            usecols=range(1, width))
    except ValueError as exc:
        place = re.fullmatch(r"(.*) at row 0, column (\d+)\.", str(exc), re.DOTALL)
        return f"{place[1]} in column {header[int(place[2]) - 1]!r}" if place else str(exc)
    return date, values[0]


def data_rows(rows):
    """``(line number, text)`` of each row that is not blanks alone."""
    return [(lineno, text) for lineno, text in enumerate(rows, start=2) if text.strip()]


def expected_table(rows, header):
    """What ``table_blocks`` gives: kept dates, values, texts and line numbers, and
    the messages of the dropped rows."""
    kept, dropped = [], []
    for lineno, text in data_rows(rows):
        row = read_row(text, header)
        if isinstance(row, str):
            dropped.append(f"line {lineno}: {row}")
        else:
            kept.append((row[0], row[1], text, lineno))
    dates, values, texts, linenos = zip(*kept) if kept else ((), [], (), ())
    values = np.array(values, dtype=float).reshape(-1, len(header) - 1)
    return list(dates), values, list(texts), list(linenos), dropped


def expected_ingest(rows, header, policy):
    """What ``ingest_csv`` gives: ``(dates, returns, rates, read, dropped, wiped out)``,
    or the error it raises.  A blank ``rf`` takes the last rate given before it in
    date order, or 0."""
    read, errors, kept = 0, [], []
    for lineno, text in data_rows(rows):
        read += 1
        rf = text.rpartition(",")[2]
        blank = not rf.strip()
        row = read_row(text[:len(text) - len(rf)] + "0" if blank else text, header)
        if isinstance(row, str):
            errors.append(ParseError(lineno, row))
        elif not np.isfinite(row[1]).all():
            errors.append(ParseError(lineno, "non-finite return or risk-free rate"))
        else:
            kept.append((row[0], row[1], blank))
    if policy == "error" and errors:
        return errors[0]
    if not kept:
        return EmptySeries("no usable rows")
    kept.sort(key=lambda row: row[0])
    rates, rate = [], 0.0
    for _, values, blank in kept:
        rate = rate if blank else values[-1]
        rates.append(rate)
    returns = np.array([values[:-1] for _, values, _ in kept])
    return ([day for day, _, _ in kept], returns, np.array(rates), read, len(errors),
            int((returns <= -1.0).any(axis=1).sum()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=tables(), ending=st.sampled_from(["\n", "\r\n"]))
def test_reader_matches_a_row_at_a_time_read(tmp_path_factory, table, ending):
    k, budget, rows = table
    header = ["date", *(f"ret_{j + 1}" for j in range(k)), "rf"]
    path = tmp_path_factory.mktemp("fuzz") / "returns.csv"
    path.write_bytes(ending.join([",".join(header), *rows, ""]).encode("utf-8"))
    dates, values, texts, linenos, dropped = expected_table(rows, header)
    with mock.patch.object(tableio, "_TABLE_BLOCK_CELLS", budget):
        got_dropped = []
        got_header, *blocks = tableio.table_blocks(str(path), got_dropped)
        assert got_header == header
        assert [day for block in blocks for day in block[0]] == dates
        assert b"".join(block[1].tobytes() for block in blocks) == values.tobytes()
        assert [text for block in blocks for text in block[2]] == texts
        assert [n for block in blocks for n in block[3].tolist()] == linenos
        assert [str(error) for error in got_dropped] == dropped
        if dropped:
            with pytest.raises(ParseError) as error:
                list(tableio.table_blocks(str(path)))
            assert str(error.value) == dropped[0]

        for policy in ("skip", "error"):
            want = expected_ingest(rows, header, policy)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as error:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        ingest_csv(str(path), drop_policy=policy)
                if isinstance(want, ParseError):
                    assert str(error.value) == str(want)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = ingest_csv(str(path), drop_policy=policy)
            series = result.series
            assert list(series.dates) == want[0]
            assert series.fund_returns.tobytes() == want[1].tobytes()
            assert series.risk_free.tobytes() == want[2].tobytes()
            assert (result.rows_read, result.rows_dropped, result.rows_wiped_out) == want[3:]
