"""The CSV table writer and reader in ``tableio``: round trip, date grammar, header."""

import datetime
import io
import itertools
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fundgrowth import cli, floattext, tableio
from fundgrowth.backtest import ingest_csv, output_columns, read_backtest_csv
from fundgrowth.errors import MissingColumns, ParseError
from fundgrowth.marketsim import MarketPath, write_path_csv
from fundgrowth.tableio import write_table


def read_table(path, dropped=None):
    """The whole table: the header and the joined dates, values, texts and line numbers."""
    header, *blocks = tableio.table_blocks(path, dropped)
    dates, values, lines, linenos = zip(*blocks)
    return (header, [*itertools.chain(*dates)], np.concatenate(values),
            [*itertools.chain(*lines)], np.concatenate(linenos))


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
        assert write_table(handle, header, [(dates, values)]) == n
    got_header, got_dates, got, got_lines, _ = read_table(str(path))
    assert got_header == header and got_dates == dates
    assert got_lines == path.read_text().splitlines()[1:]
    np.testing.assert_array_equal(np.isnan(got), np.isnan(values))
    finite_or_inf = ~np.isnan(values)
    # compare bits, so that -0.0 and 0.0 count as different
    np.testing.assert_array_equal(got[finite_or_inf].view(np.int64),
                                  values[finite_or_inf].view(np.int64))


@settings(max_examples=60, deadline=None)
@given(increments=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                             elements=st.floats(allow_nan=False, allow_infinity=False,
                                                allow_subnormal=True)))
def test_simulated_csv_ingests_bit_identical(tmp_path_factory, increments):
    n = len(increments)
    path = MarketPath(increments=increments)
    target = tmp_path_factory.mktemp("returns") / "simulated.csv"
    with open(target, "w", newline="") as handle:
        assert write_path_csv(path, handle) == n
    result = ingest_csv(str(target), drop_policy="error")
    assert (result.rows_read, result.rows_dropped) == (n, 0)
    start = datetime.date(1927, 7, 1)
    assert result.series.dates == tuple(start + datetime.timedelta(days=i) for i in range(n))
    assert result.series.fund_returns.tobytes() == increments.tobytes()
    assert result.series.risk_free.tobytes() == np.zeros(n).tobytes()


@pytest.mark.parametrize("text, valid", [
    ("2001-01-03", True),
    (" 2001-01-03\t", True),     # blanks around the date cell
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


@pytest.mark.parametrize("cell", ['"0.02"', "1_000", "\uff10.5", "\u0661"])
@pytest.mark.parametrize("column", [1, 2])
def test_quotes_separators_and_non_ascii_digits_are_malformed(tmp_path, cell, column):
    # csv.reader and float() took these; numpy's grammar does not, in any column
    cells = ["2001-01-02", "0.02", "0.0"]
    cells[column] = cell
    returns = tmp_path / "returns.csv"
    returns.write_text("date,ret_1,rf\n2001-01-01,0.01,0.0\n" + ",".join(cells) + "\n")
    with pytest.raises(ParseError, match="^line 3: "):
        ingest_csv(str(returns), drop_policy="error")
    with pytest.warns(UserWarning, match="dropped 1"):
        assert ingest_csv(str(returns)).series.n == 1
    table = tmp_path / "table.csv"
    table.write_text("date,v_1,v_2\n2001-01-01,0.01,0.0\n" + ",".join(cells) + "\n")
    with pytest.raises(ParseError, match="^line 3: "):
        read_table(str(table))


def test_dropped_rows_are_reported_and_the_rest_kept(tmp_path):
    rows = ["2001-01-01,x", "2001-01-02,1.5", "", "2001-01-03,2.5", "2001-01-04,y",
            "2001-01-05", "2001-01-06,3.5", "2001-13-07,4.5", "2001-01-08,4.5", "2001-01-09,z"]
    table = tmp_path / "table.csv"
    table.write_text("date,v\n" + "\n".join(rows) + "\n")
    dropped = []
    header, dates, values, lines, linenos = read_table(str(table), dropped)
    assert header == ["date", "v"]
    assert [error.line for error in dropped] == [2, 6, 7, 9, 11]
    assert str(dropped[2]) == "line 7: 1 cells, header has 2"
    assert [day.day for day in dates] == [2, 3, 6, 8]
    assert values.tolist() == [[1.5], [2.5], [3.5], [4.5]]
    assert lines == [rows[i] for i in (1, 3, 6, 8)]
    assert linenos.tolist() == [3, 5, 8, 10]
    with pytest.raises(ParseError, match="^line 2: "):
        read_table(str(table))


@pytest.mark.parametrize("policy", ["skip", "error"])
def test_bad_number_names_its_line_and_column(tmp_path, policy):
    # numpy's own "at row N" counts from the start of its call, a block, not the file
    path, _, lines = _returns_file(tmp_path, n=12_000)
    lines[9_999] += "x"                                      # line 10,000: rf 0.0x
    lines[11_000] = lines[11_000][:11] + "y,0.0"             # line 11,001: ret_1 y
    path.write_text("\n".join(lines) + "\n")
    want = ["line 10000: could not convert string '0.0x' to float64 in column 'rf'",
            "line 11001: could not convert string 'y' to float64 in column 'ret_1'"]
    dropped = [] if policy == "skip" else None
    if policy == "error":
        with pytest.raises(ParseError) as error:
            read_table(str(path), dropped)
        assert str(error.value) == want[0]
        with pytest.raises(ParseError, match=re.escape(want[0])):
            ingest_csv(str(path), drop_policy=policy)
        return
    read_table(str(path), dropped)
    assert [str(error) for error in dropped] == want


def _every_tenth_bad(tmp_path, n=6_000, k=10):
    """A ``date,ret_1..ret_K,rf`` file of ``n`` rows, three blocks of its width,
    with ``x`` put in front of ``ret_1`` on every tenth row, a blank ``ret_j`` on
    every tenth row, and a few rows of every other kind the reader drops or keeps.  Returns the file, the clean file with
    the dropped rows left out, the dropped messages, and the kept lines, line
    numbers and values."""
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 0.01, (n, k + 1))
    days = [datetime.date(1950, 1, 1) + datetime.timedelta(days=i) for i in range(n)]
    header = ["date", *(f"ret_{j + 1}" for j in range(k)), "rf"]
    lines = [",".join([str(day), *map(repr, row.tolist())]) for day, row in zip(days, values)]
    dropped = {}
    for i in range(9, n, 10):          # line i + 2
        cell = lines[i].split(",")[1]
        lines[i] = lines[i].replace(f",{cell},", f",x{cell},", 1)
        dropped[i] = f"could not convert string {'x' + cell!r} to float64 in column 'ret_1'"
    for i in range(4, n, 10):          # a blank fund return, ret_1 to ret_K in turn
        column = 1 + i // 10 % k
        cells = lines[i].split(",")
        cells[column] = ""
        lines[i] = ",".join(cells)
        dropped[i] = f"could not convert string '' to float64 in column {header[column]!r}"
    lines[6] = f"  {lines[6]}".replace(",", " ,", 1)           # blank-padded date, kept
    lines[12] = "\u00a0" + lines[12]                           # no-break space, kept
    lines[33] = lines[33].rsplit(",", 1)[0]
    dropped[33] = f"{k + 1} cells, header has {k + 2}"
    lines[47] = lines[47].replace(str(days[47]), "1950-2-17")
    dropped[47] = "date '1950-2-17' is not YYYY-MM-DD"
    for i, column, cell in [(25, 3, "1.2.3"), (4_001, 11, "1e"), (5_998, 5, "--0.5")]:
        cells = lines[i].split(",")                 # bad numbers of number characters only
        cells[column] = cell
        lines[i] = ",".join(cells)
        dropped[i] = f"could not convert string {cell!r} to float64 in column {header[column]!r}"
    path = tmp_path / "returns.csv"
    path.write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8")
    clean = tmp_path / "clean.csv"
    kept = [i for i in range(n) if i not in dropped]
    clean.write_text("\n".join([",".join(header), *(lines[i] for i in kept)]) + "\n",
                     encoding="utf-8")
    return (path, clean, [f"line {i + 2}: {dropped[i]}" for i in sorted(dropped)],
            [lines[i] for i in kept], [i + 2 for i in kept], values[kept])


def test_bad_numbers_on_every_tenth_row_are_dropped_and_the_rest_read(tmp_path):
    path, clean, want_dropped, lines, linenos, values = _every_tenth_bad(tmp_path)
    dropped = []
    header, dates, got, got_lines, got_linenos = read_table(str(path), dropped)
    assert [str(error) for error in dropped] == want_dropped
    assert got_lines == lines and got_linenos.tolist() == linenos
    assert got.tobytes() == values.tobytes()
    assert len(header) == 12 and 6_000 > 2 * tableio.block_rows(len(header))   # 3 blocks
    with pytest.raises(ParseError) as error:
        read_table(str(path))
    assert str(error.value) == want_dropped[0]
    for table in (path, clean):     # a blank rf cell, which ingest forward-fills
        text = table.read_text(encoding="utf-8")
        table.write_text(text.replace(lines[55], lines[55].rsplit(",", 1)[0] + ","),
                         encoding="utf-8")
    with pytest.warns(UserWarning, match=f"dropped {len(want_dropped)} "):
        result = ingest_csv(str(path))
    want = ingest_csv(str(clean), drop_policy="error")
    assert (result.rows_read, result.rows_dropped) == (6_000, len(want_dropped))
    assert result.series.dates == want.series.dates
    assert result.series.fund_returns.tobytes() == want.series.fund_returns.tobytes()
    assert result.series.risk_free.tobytes() == want.series.risk_free.tobytes()


@pytest.mark.parametrize("row, column, cell", [(0, 2, "x0.5"), (3, 3, "1.2.3"), (6, 4, "--0.5"),
                                               (4, 2, ""), (6, 4, "")])
def test_numpy_names_a_bad_cell_by_its_row_in_the_call_and_its_column(row, column, cell):
    # the reader resumes a block after the row numpy names: R counts the rows of the
    # list, or of the object array it resumes on, from 0, C the cells of a row, the
    # date included, from 1
    rows = [[f"2001-01-{day:02}", "0.5", "-1.5", "2.5e-3"] for day in range(1, 8)]
    rows[row][column - 1] = cell
    lines = [",".join(cells) for cells in rows]
    message = f"could not convert string {cell!r} to float64 at row {row}, column {column}."
    for source in (lines, np.array(["2001-02-01,0.5,-1.5,2.5e-3"] + lines, dtype=object)[1:]):
        with pytest.raises(ValueError) as error:
            np.loadtxt(source, delimiter=",", comments=None, ndmin=2, usecols=range(1, 4))
        assert str(error.value) == message
    assert re.fullmatch(tableio._NUMPY_PLACE, message).groups() == (
        f"could not convert string {cell!r} to float64", str(row), str(column))


def _returns_file(tmp_path, n=2_000, header="date,ret_1,rf"):
    days = [datetime.date(1990, 1, 1) + datetime.timedelta(days=i) for i in range(n)]
    rows = [f"{day},{i * 1e-6!r},0.0" for i, day in enumerate(days)]
    return tmp_path / "returns.csv", days, [header] + rows


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("policy", ["skip", "error"])
def test_non_utf8_byte_makes_only_its_row_malformed(tmp_path, column, policy):
    # a bad byte is a bad cell on its own line: the rows after it are still read
    path, days, lines = _returns_file(tmp_path)
    cells = lines[1_501].split(",")                    # line 1,502
    cells[column] = cells[column][:4] + "\udcff" + cells[column][4:]
    lines[1_501] = ",".join(cells)
    path.write_bytes("\n".join(lines + [""]).encode("utf-8", "surrogateescape"))
    if policy == "error":
        with pytest.raises(ParseError, match="^line 1502: "):
            ingest_csv(str(path), drop_policy=policy)
        with pytest.raises(ParseError, match="^line 1502: "):
            read_table(str(path))
        return
    with pytest.warns(UserWarning, match="dropped 1 "):
        result = ingest_csv(str(path), drop_policy=policy)
    assert (result.rows_read, result.rows_dropped) == (2_000, 1)
    assert result.series.dates == tuple(days[:1_500] + days[1_501:])
    dropped = []
    assert read_table(str(path), dropped)[4].tolist() == [i for i in range(2, 2_002) if i != 1_502]
    assert [error.line for error in dropped] == [1_502]


def test_non_utf8_byte_in_the_header_is_a_line_1_error(tmp_path):
    path, _, lines = _returns_file(tmp_path, n=3, header="date,ret_1,r\udcff")
    path.write_bytes("\n".join(lines + [""]).encode("utf-8", "surrogateescape"))
    for policy in ("skip", "error"):
        with pytest.raises(ParseError, match="^line 1: header"):
            ingest_csv(str(path), drop_policy=policy)


def _counting_loadtxt(monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    return calls


def test_header_is_checked_before_any_row_is_parsed(tmp_path, monkeypatch):
    path, _, lines = _returns_file(tmp_path, n=1_000, header="date,ret_1")
    path.write_text("\n".join(lines) + "\n")
    calls = _counting_loadtxt(monkeypatch)
    with pytest.raises(ParseError, match="^line 1: header"):
        ingest_csv(str(path))
    assert len(calls) <= 1


def test_bad_cell_counts_and_dates_are_dropped_in_one_numpy_pass(tmp_path, monkeypatch):
    rows = ["2001-01-01,0.5", "2001-01-02", "2001-01-03,1.5,2.5", "2001-13-04,2.5",
            "2001-1-05,3.5", "2001-01-06,4.5"]
    table = tmp_path / "table.csv"
    table.write_text("date,v\n" + "\n".join(rows) + "\n")
    calls = _counting_loadtxt(monkeypatch)
    dropped = []
    _, dates, values, _, linenos = read_table(str(table), dropped)
    assert len(calls) == 1
    assert [error.line for error in dropped] == [3, 4, 5, 6]
    assert values.tolist() == [[0.5], [4.5]] and linenos.tolist() == [2, 7]
    assert [day.day for day in dates] == [1, 6]


GOLDEN_K3 = Path(__file__).parent / "golden" / "k3_anchored"


def repr_lines(header, dates, values):
    """A table as the writer wrote it with ``"%s" + ",%r" * m`` lines, its reference."""
    line = "%s" + ",%r" * (len(header) - 1) + "\n"
    return ",".join(header) + "\n" + "".join(line % (day, *row)
                                             for day, row in zip(dates, values.tolist()))


def test_write_table_gives_the_same_bytes_in_any_blocks(monkeypatch):
    dates = [datetime.date(2000, 2, 27) + datetime.timedelta(days=i) for i in range(10)]
    values = np.array([[i / 7, -0.0 if i % 2 else 5e-324] for i in range(10)])
    values[4, 0] = np.nan
    header = ["date", "v", "w"]
    want = repr_lines(header, dates, values)
    for cells, size in itertools.product([1, 5, 64, floattext._FORMAT_CELLS], [1, 3, len(dates)]):
        monkeypatch.setattr(floattext, "_FORMAT_CELLS", cells)
        blocks = [(dates[i:i + size], values[i:i + size]) for i in range(0, len(dates), size)]
        blocks.insert(1, (dates[:0], values[:0]))      # an empty block between two others
        out = io.StringIO()
        assert write_table(out, header, blocks) == len(dates)
        assert out.getvalue() == want, (cells, size)
    out = io.StringIO()
    assert write_table(out, header, [(dates[:0], values[:0])]) == 0
    assert out.getvalue() == "date,v,w\n"


@pytest.mark.parametrize("days, rows", [(3, 2), (3, 4), (1, 4)])
def test_a_block_needs_one_date_a_row(days, rows):
    dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=i) for i in range(days)]
    with pytest.raises(ValueError):
        write_table(io.StringIO(), ["date", "v"], [(dates, np.zeros((rows, 1)))])


def test_every_date_is_written_as_its_isoformat(monkeypatch):
    # all 3,652,059 dates from 0001-01-01 to 9999-12-31, in blocks that chunks of
    # 99,991 rows cut at uneven places; a table of dates alone, so that the time
    # goes to the dates (the other tests here check the cells after them)
    monkeypatch.setattr(floattext, "_FORMAT_CELLS", 99_991)
    last = datetime.date.max.toordinal()
    for first in range(1, last + 1, 2 ** 19):
        days = [*map(datetime.date.fromordinal, range(first, min(first + 2 ** 19, last + 1)))]
        out = io.StringIO()
        assert write_table(out, ["date"], [(days, np.empty((len(days), 0)))]) == len(days)
        lines = np.frombuffer(out.getvalue().encode("ascii"), dtype=np.uint8, offset=5)
        lines = lines.reshape(len(days), 11)
        want = "".join(map(datetime.date.isoformat, days)).encode("ascii")
        assert (lines[:, :10] == np.frombuffer(want, dtype=np.uint8).reshape(-1, 10)).all()
        assert (lines[:, 10] == ord("\n")).all()


def test_chain_tables_are_the_repr_lines(monkeypatch, tmp_path):
    # the simulated.csv and backtest.csv of a seeded K = 3 chain
    for stage in (["simulate", "--config", str(GOLDEN_K3 / "scenario.cfg")],
                  ["backtest", "--input", str(tmp_path / "simulated.csv"),
                   "--config", str(GOLDEN_K3 / "backtest.cfg")]):
        assert cli.main([*stage, "--out", str(tmp_path)]) == 0
    for name in ("simulated.csv", "backtest.csv"):
        header, dates, values, _, _ = read_table(str(tmp_path / name))
        want = repr_lines(header, dates, values)
        assert (tmp_path / name).read_text() == want
        monkeypatch.setattr(floattext, "_FORMAT_CELLS", 100)
        out = io.StringIO()
        write_table(out, header, [(dates[i:i + 333], values[i:i + 333])
                                  for i in range(0, len(dates), 333)])
        assert out.getvalue() == want
        monkeypatch.undo()


def float_texts(values) -> list[str]:
    """The cell text of each float of ``values``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return "".join(floattext.float_lines(values)).splitlines()


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 9999999999999998.0, 1e16,
               9.999999999999999e-05, 1e-4, 1e22, 1e23, np.nan, np.inf, -np.inf,
               *(sign * float(f"1e{k}") for k in range(-30, 31) for sign in (1, -1))]


def test_float_text_of_the_edges_is_repr():
    assert float_texts(FLOAT_EDGES) == [repr(v) for v in FLOAT_EDGES]


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_float_text_is_repr(values):
    assert float_texts(values) == [repr(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_float_text_of_any_bits_is_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert float_texts(values) == [repr(v) for v in values.tolist()]


def test_float_text_of_a_million_bit_patterns_is_repr():
    patterns = np.random.default_rng(20261018).integers(0, 2 ** 64, size=1_000_000,
                                                         dtype=np.uint64)
    values = patterns.view(np.float64)
    assert float_texts(values) == list(map(repr, values.tolist()))


def test_every_power_of_ten_and_exponent_entry_is_exact():
    powers = floattext._powers()
    assert len(powers) == floattext._K_MAX - floattext._K_MIN + 1
    exact = {}
    for k, row in zip(range(floattext._K_MIN, floattext._K_MAX + 1), powers.tolist()):
        assert all(0 <= limb < 2 ** 27 for limb in row[:5])
        g, e = sum(limb << 27 * i for i, limb in enumerate(row[:5])), row[5]
        assert Fraction(2) ** e <= Fraction(10) ** -k < Fraction(2) ** (e + 1)
        assert g - 1 <= Fraction(10) ** -k * Fraction(2) ** (125 - e) < g
        exact[k] = g, e
    rows = floattext._exponent_rows().T.tolist()
    for column, row in enumerate(rows):
        biased, irregular = column % 2048, column >= 2048
        q = max(biased, 1) - 1075
        k, h = row[5], row[6]
        # 10^k <= 2^q < 10^(k+1), or 3/4 2^q for the irregular spacing below c = 2^52
        scale = Fraction(3, 4) if irregular else 1
        assert Fraction(10) ** k <= scale * Fraction(2) ** q < Fraction(10) ** (k + 1)
        g, e = exact[k]
        assert row[:5] == powers[k - floattext._K_MIN, :5].tolist() and h == q + e + 2
        assert 2 <= h <= 5
        for offset, split in ((2 - irregular) * g, row[7:10]), (2 * g, row[10:13]):
            assert split == [offset >> 127 - h, offset >> 64 - h & 2 ** 63 - 1,
                             offset & 2 ** (64 - h) - 1]


# One row of each kind the reader skips, drops or reads as usual, placed in turn
# at every position of a table, so that it falls on the first and the last row
# of a block of every size below.
KINDS = {"bad-number": "2001-02-01,x,1.0", "bad-count": "2001-02-02,1.0", "blank": "  ",
         "crlf": "2001-02-03,7.5,8.5\r"}
GOOD = [f"2001-01-{day:02d},{day}.5,{-day}.25" for day in range(1, 11)]


def _tables(tmp_path, header, good, kinds):
    for kind, row in kinds.items():
        for at in range(len(good) + 1):
            path = tmp_path / f"{kind}-{at}.csv"
            path.write_bytes("\n".join([header, *good[:at], row, *good[at:]]).encode() + b"\n")
            yield path


def _message(error: ParseError) -> str:
    # numpy's "at row N" counts the rows of its own call, which starts a block
    return re.sub(r" at row \d+,", " at row -,", str(error))


def _read(path, dropped):
    try:
        return read_table(str(path), dropped)
    except ParseError as error:
        return _message(error)


# the tables below have three cells a row: blocks of 1, 3 and 2,000 of their rows
@pytest.mark.parametrize("block_rows", [1, 3, 2000])
def test_blocks_read_the_table_of_one_block(tmp_path, monkeypatch, block_rows):
    for path in _tables(tmp_path, "date,v,w", GOOD, KINDS):
        for policy in ("skip", "error"):
            want_dropped, got_dropped = ([] if policy == "skip" else None for _ in range(2))
            want = _read(path, want_dropped)
            with monkeypatch.context() as patch:
                patch.setattr(tableio, "_TABLE_BLOCK_CELLS", 3 * block_rows)
                got = _read(path, got_dropped)
            if isinstance(want, str):
                assert got == want, path.name
                continue
            assert got[:2] == want[:2] and got[3] == want[3], path.name
            assert got[2].tobytes() == want[2].tobytes() and got[2].shape == want[2].shape
            assert got[4].tolist() == want[4].tolist(), path.name
            assert [_message(e) for e in got_dropped or []] == [
                _message(e) for e in want_dropped or []], path.name


RETURN_KINDS = {"bad-number": "2001-02-01,x,0.001", "bad-count": "2001-02-02,0.01",
                "blank": "", "crlf": "2001-02-03,0.02,0.001\r", "nan": "2001-02-04,nan,0.0",
                "blank-rf": "2001-02-05,0.03,"}
RETURNS = [f"2001-01-{day:02d},{day / 100!r},{day / 1000!r}" for day in range(1, 11)]


@pytest.mark.parametrize("block_rows", [1, 3, 2000])
def test_blocks_ingest_the_series_of_one_block(tmp_path, monkeypatch, block_rows):
    for path in _tables(tmp_path, "date,ret_1,rf", RETURNS, RETURN_KINDS):
        for policy in ("skip", "error"):
            results = []
            for cells in (tableio._TABLE_BLOCK_CELLS, 3 * block_rows):
                monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", cells)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        result = ingest_csv(str(path), drop_policy=policy)
                    series = result.series
                    results.append((series.dates, series.fund_returns.tobytes(),
                                    series.risk_free.tobytes(), result.rows_read,
                                    result.rows_dropped))
                except ParseError as error:
                    results.append(_message(error))
            monkeypatch.undo()
            assert results[0] == results[1], (path.name, policy)


def test_a_block_comes_before_a_bad_row_two_blocks_on(tmp_path, monkeypatch):
    monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", 3 * 3)     # 3 rows of 3 cells
    path = tmp_path / "table.csv"
    path.write_text("date,v,w\n" + "\n".join(GOOD[:7] + ["2001-02-01,x,1.0"] + GOOD[7:]) + "\n")
    blocks = tableio.table_blocks(str(path))
    assert next(blocks) == ["date", "v", "w"]
    dates, values, lines, linenos = next(blocks)
    assert [day.day for day in dates] == [1, 2, 3] and values.shape == (3, 2)
    assert lines == GOOD[:3] and linenos.tolist() == [2, 3, 4]
    assert next(blocks)[3].tolist() == [5, 6, 7]
    with pytest.raises(ParseError, match="^line 9: "):
        next(blocks)


def test_missing_column_is_reported_before_any_row_is_parsed(tmp_path, monkeypatch):
    header = ",".join(name for name in output_columns(2) if name != "c_22")
    table = tmp_path / "backtest.csv"
    table.write_text(header + "\n2001-01-01,x\n")
    calls = _counting_loadtxt(monkeypatch)
    with pytest.raises(MissingColumns, match=r"lacks required columns: \['c_22'\]"):
        read_backtest_csv(str(table), io.StringIO())
    assert calls == []


def test_a_bad_number_does_not_make_numpy_read_its_rows_again(tmp_path, monkeypatch):
    # x in front of ret_1 on every tenth row and a blank ret_1 on every tenth row: numpy
    # stops at each, yet reads a row about once
    path, _, lines = _returns_file(tmp_path, n=6_000)
    for i in range(10, 6_001, 10):
        lines[i] = lines[i].replace(",", ",x", 1)
        lines[i - 5] = lines[i - 5].split(",")[0] + ",,0.0"
    path.write_text("\n".join(lines) + "\n")
    handed = []
    loadtxt = np.loadtxt

    def counted(rows):
        for row in rows:
            handed.append(row)
            yield row

    monkeypatch.setattr(np, "loadtxt", lambda rows, **kw: loadtxt(counted(rows), **kw))
    dropped = []
    assert read_table(str(path), dropped)[2].shape == (4_800, 2) and len(dropped) == 1_200
    assert len(handed) < 1.01 * 6_000
