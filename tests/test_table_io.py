"""Round trip of the CSV table writer and reader in ``marketsim``."""

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    got_header, got_dates, got = read_table(str(path))
    assert got_header == header and got_dates == dates
    np.testing.assert_array_equal(np.isnan(got), np.isnan(values))
    finite_or_inf = ~np.isnan(values)
    # compare bits, so that -0.0 and 0.0 count as different
    np.testing.assert_array_equal(got[finite_or_inf].view(np.int64),
                                  values[finite_or_inf].view(np.int64))
