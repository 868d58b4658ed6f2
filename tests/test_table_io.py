"""The CSV table writer and reader in ``marketsim``: round trip, date grammar, header."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fundgrowth.backtest import ingest_csv, output_columns
from fundgrowth.errors import ParseError
from fundgrowth.marketsim import read_table, write_table

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 9.999999999999999e307, np.nan, np.inf, -np.inf]
CELLS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True,
                                                   allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)),
                         elements=CELLS))
def test_write_then_read_is_bit_identical(tmp_path_factory, values):
    n, m = values.shape
    dates = [datetime.date(2000, 2, 27) + datetime.timedelta(days=i) for i in range(n)]
    header = ["date"] + [f"v_{j}" for j in range(m)]
    path = tmp_path_factory.mktemp("table") / "table.csv"
    with open(path, "w", newline="") as handle:
        assert write_table(handle, header, dates, values) == n
    got_header, got_dates, got, got_lines = read_table(str(path))
    assert got_header == header and got_dates == dates
    assert got_lines == path.read_text().splitlines()[1:]
    np.testing.assert_array_equal(np.isnan(got), np.isnan(values))
    finite_or_inf = ~np.isnan(values)
    # compare bits, so that -0.0 and 0.0 count as different
    np.testing.assert_array_equal(got[finite_or_inf].view(np.int64),
                                  values[finite_or_inf].view(np.int64))


@pytest.mark.parametrize("text, valid", [
    ("2001-01-03", True),
    ("19270702", False),         # basic format: fromisoformat takes it from Python 3.11 on
    ("1927-W27-1", False),       # ISO week date, likewise
    ("1927-07", False),
    ("1927-7-02", False),
    ("2001-01-03T00:00", False),
    ("２００１-01-03", False),      # full-width digits
    ("2001-02-30", False),
])
def test_date_grammar_is_yyyy_mm_dd(tmp_path, text, valid):
    table = tmp_path / "table.csv"
    table.write_text(f"date,v_1\n2001-01-01,0.5\n{text},0.25\n")
    returns = tmp_path / "returns.csv"
    returns.write_text(f"date,ret_1,rf\n2001-01-01,0.01,0.0\n{text},0.02,0.0\n")
    if valid:
        assert read_table(str(table))[1][1] == datetime.date(2001, 1, 3)
        assert ingest_csv(str(returns), drop_policy="error").series.n == 2
        return
    for read in (lambda: read_table(str(table)),
                 lambda: ingest_csv(str(returns), drop_policy="error")):
        with pytest.raises(ParseError, match="^line 3: "):
            read()
    with pytest.warns(UserWarning, match="dropped 1"):
        assert ingest_csv(str(returns)).rows_dropped == 1


def test_repeated_column_name_is_rejected(tmp_path):
    # c_{i}{j} names collide from K = 111 on: c_1111 is both (1, 111) and (11, 11)
    header = output_columns(111)
    table = tmp_path / "backtest.csv"
    table.write_text(",".join(header) + "\n2001-01-01" + ",0.0" * (len(header) - 1) + "\n")
    with pytest.raises(ParseError, match=r"line 1: repeated column names \['c_1111'\]"):
        read_table(str(table))
