"""Text in and out: the ``key = value`` config files and the ``date,v_1,...,v_m``
tables of the subcommands.  How input is decoded (``INPUT_TEXT``), how an output
file is written (``replaced``: UTF-8, in place only once whole), how a float cell
is written and where a cell ends are decided here and nowhere else.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import itertools
import operator
import os
import re
import warnings
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptySeries, ParseError

_TABLE_BLOCK_ROWS = 2000    # rows per block of lines read or written: a few MB of text at K = 10
# The one date grammar of a table: ``fromisoformat`` alone also takes ``19270702``
# and ``1927-W27-1`` from Python 3.11 on, and report copies a date cell verbatim.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch
# How every input file is read: a byte that is not UTF-8 becomes a lone surrogate,
# which no cell, column name, key or value takes, so it makes its row or line
# malformed.
INPUT_TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}
_UNDECODED = re.compile("[\udc80-\udcff]").search


def read_text(path: str) -> str:
    """The text of the input file ``path``, read as ``INPUT_TEXT``."""
    return Path(path).read_text(**INPUT_TEXT)


@contextlib.contextmanager
def replaced(path: Path) -> Iterator[IO[str]]:
    """A UTF-8 text handle on a sibling temporary file, its directory made if
    missing, which replaces the output file ``path`` only once the block has
    written all of it; on an error it is removed, and so are the directories made."""
    made = [parent for parent in path.parents if not parent.exists()]   # the deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(partial, path)
        made = []
    finally:
        partial.unlink(missing_ok=True)
        for parent in made:
            parent.rmdir()


def read_config(text: str, parsers: dict[str, Callable[[str], object]], kind: str) -> dict:
    """The ``key = value`` lines of a scenario or backtest config file, each value
    parsed by ``parsers[key]``.

    ``#`` starts a comment; blank lines are skipped.  The first bad line in file
    order raises ``ConfigError`` with its number: a line without ``=``, a key
    that ``parsers`` lacks or that is already set, or a value whose parser
    raises ``ValueError``.
    """
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown {kind} key {key!r}")
        if key in linenos:
            raise ConfigError(f"line {lineno}: {kind} key {key!r} already set on line "
                              f"{linenos[key]}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        linenos[key] = lineno
    return values


def parse_vector(text: str) -> np.ndarray:
    """A config vector: numbers separated by ``,``."""
    return np.array([float(x) for x in text.split(",")])


def parse_matrix(text: str) -> np.ndarray:
    """A config matrix: rows of ``parse_vector`` separated by ``;``."""
    rows = [r for r in (s.strip() for s in text.split(";")) if r]
    return np.array([parse_vector(row) for row in rows])


def write_table(out: IO[str], header: Sequence[str], dates: Sequence, values: np.ndarray) -> int:
    """Write ``header`` and the ``table_lines`` of ``values``; returns the row count."""
    return write_rows(out, header, table_lines(dates, values))


def table_lines(dates: Sequence, values: np.ndarray) -> Iterator[list[str]]:
    """The ``date,v_1,...,v_m`` lines of the rows of ``values``, ``_TABLE_BLOCK_ROWS``
    rows at a time; cells are ``repr`` of the float, which reads back to the same bits."""
    values = np.asarray(values, dtype=float)
    line = "%s" + ",%r" * values.shape[1] + "\n"
    for start in range(0, len(values), _TABLE_BLOCK_ROWS):
        rows = slice(start, start + _TABLE_BLOCK_ROWS)
        yield [line % (day, *row) for day, row in zip(dates[rows], values[rows].tolist())]


def column_lines(names: Sequence[str], header: list[str], added: list[str], lines: list[str],
                 extra: np.ndarray) -> str:
    """The text of the columns ``names`` of the rows ``lines``, whose columns are
    ``header``, copied as written, and of the columns ``added``, whose floats are
    the rows of ``extra``, as ``repr``."""
    position = {name: i for i, name in enumerate(header + added)}
    pick = operator.itemgetter(*[position[name] for name in names])
    line = ",".join("%r" if name in added else "%s" for name in names) + "\n"
    return "".join([line % pick(row.split(",") + more) for row, more in zip(lines, extra.tolist())])


def write_rows(out: IO[str], header: Sequence[str], blocks: Iterable[list[str]]) -> int:
    """Write ``header``, then each list of lines in ``blocks`` as it comes; returns
    the number of lines after the header."""
    out.write(",".join(header) + "\n")
    rows = 0
    for lines in blocks:
        out.write("".join(lines))
        rows += len(lines)
        del lines       # before the next block's lines are made
    return rows


def read_table(path: str, dropped: Optional[list] = None,
               schema: Optional[Callable[[list[str]], dict]] = None
               ) -> tuple[list[str], list[datetime.date], np.ndarray, list[str], np.ndarray]:
    """The whole table: the header and the joined dates, values, texts and line numbers."""
    header, *blocks = table_blocks(path, dropped, schema)
    dates, values, lines, linenos = zip(*blocks)
    return (header, [*itertools.chain(*dates)], np.concatenate(values),
            [*itertools.chain(*lines)], np.concatenate(linenos))


def table_blocks(path: str, dropped: Optional[list] = None,
                 schema: Optional[Callable[[list[str]], dict]] = None) -> Iterator:
    """The header of a ``date,v_1,...,v_m`` file, then ``(dates, (rows, columns)
    values, row texts without the line end, line numbers)`` blocks of at most
    ``_TABLE_BLOCK_ROWS`` kept rows, each read when asked for and parsed by one
    ``np.loadtxt`` call.  Blank lines are skipped; the last block may be empty.
    The file is read as ``INPUT_TEXT``.  A zero-byte file raises ``EmptySeries``,
    and a repeated column name or one that is not UTF-8 ``ParseError``; so does,
    with its line, a row with the wrong cell count, a date that is not
    ``YYYY-MM-DD`` (blanks around it aside) or a cell that is not a number,
    unless ``dropped`` is a list: the error then goes there and the row is left
    out.  ``schema``, if given, gets the header before any row is read: it
    raises to reject the header, and returns the ``np.loadtxt`` converters,
    functions of the cell text by column index (negative from the end).
    """
    with open(path, **INPUT_TEXT) as handle:
        first = handle.readline()
        if not first:
            raise EmptySeries(f"{path} is empty")
        header = first.rstrip("\n").split(",")
        if len(set(header)) < len(header):
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise ParseError(1, f"repeated column names {repeated}")
        undecoded = [name for name in header if _UNDECODED(name)]
        if undecoded:       # report would copy the name into its UTF-8 output
            raise ParseError(1, f"header names {undecoded} are not UTF-8")
        converters = {i % len(header): f for i, f in (schema(header) if schema else {}).items()}
        load = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2,
                                 usecols=range(1, len(header)), converters=converters)
        yield header
        numbered = enumerate(handle, start=2)

        def bad(lineno: int, exc: ValueError) -> None:
            if dropped is None:
                raise ParseError(lineno, str(exc)) from None
            dropped.append(ParseError(lineno, str(exc)))

        def rows():     # a bad cell count or date is dropped here; numpy never sees it
            for lineno, line in numbered:
                if line.isspace():
                    continue
                text = line.rstrip("\n")
                day = text.partition(",")[0].strip()
                try:
                    if text.count(",") != len(header) - 1:
                        raise ValueError(f"{text.count(',') + 1} cells, header has {len(header)}")
                    if _ISO_DATE(day) is None:
                        raise ValueError(f"date {day!r} is not YYYY-MM-DD")
                    dates.append(datetime.date.fromisoformat(day))
                except ValueError as exc:
                    bad(lineno, exc)
                    continue
                linenos.append(lineno)
                lines.append(text)
                yield text
                if len(lines) == _TABLE_BLOCK_ROWS:
                    return

        while True:
            dates, lines, linenos = [], [], []  # linenos[-1]: the row numpy is reading
            # numpy cannot resume after a bad number: the block's rows before it are parsed again
            parts, start = [], 0
            # loadtxt warns on no rows; the filter is process-wide: not across the yield
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                while True:
                    try:
                        parts.append(load(rows()))
                        break
                    except ValueError as exc:
                        bad(linenos.pop(), exc)
                        del lines[len(linenos):], dates[len(linenos):]   # the bad row's
                        parts.append(load(lines[start:]))
                        start = len(lines)
            yield dates, np.concatenate(parts), lines, np.array(linenos, dtype=np.int64)
            if len(lines) < _TABLE_BLOCK_ROWS:     # rows() ran to the end of the file
                return
