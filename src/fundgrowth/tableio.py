"""Text in and out: the ``key = value`` config files and the ``date,v_1,...,v_m``
tables of the subcommands.  How input is decoded (``INPUT_TEXT``), how an output
file is written (``replaced``: UTF-8, in place only once whole), how a float cell
is written (by ``floattext``, which only this module calls) and where a cell ends
are decided here and nowhere else.
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
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptySeries, ParseError

_TABLE_BLOCK_CELLS = 2 ** 15   # cells per block of a table read or written: a few MB at any K
# The one date grammar of a table: ``fromisoformat`` alone also takes ``19270702``
# and ``1927-W27-1`` from Python 3.11 on, and report copies a date cell verbatim.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch
# How every input file is read: a byte order mark at its start is dropped, and a
# byte that is not UTF-8 becomes a lone surrogate, which no cell, column name, key
# or value takes, so it makes its row or line malformed.
INPUT_TEXT = {"encoding": "utf-8-sig", "errors": "surrogateescape"}
# The characters that XML 1.0 does not allow, lone surrogates among them: report
# copies column names into SVG labels, so no header name may hold one.  The two
# patterns are compiled on first use, not when the package is imported.
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"
# numpy's own place of a bad number: its row counts the rows of its call from 0
_NUMPY_PLACE = r"(.*) at row (\d+), column (\d+)\."
# The bytes of good numbers, but for ``inf``, ``nan`` and blanks: a row with any
# other byte most likely holds a bad number.
_NUMBER_BYTES = b"-+.,0123456789eE"


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


def read_config(text: str, kinds: dict[str, str], what: str) -> dict:
    """The ``key = value`` lines of a scenario or backtest config file, each value
    parsed as the kind of its key in ``kinds`` (see ``psd.config_field``).

    ``#`` starts a comment; blank lines are skipped.  The first bad line in file
    order raises ``ConfigError`` with its number: a line without ``=``, a key
    that ``kinds`` lacks or that is already set, or a value whose parser
    raises ``ValueError``.
    """
    from .psd import CovMatrix
    parsers = {"count": int, "real": float, "flag": parse_flag, "text": str, "vector": parse_vector,
               "matrix": parse_matrix, "cov": lambda value: CovMatrix(parse_matrix(value))}
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, value = (s.strip() for s in body.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown {what} key {key!r}")
        if key in linenos:
            raise ConfigError(f"line {lineno}: {what} key {key!r} already set on line "
                              f"{linenos[key]}")
        try:
            values[key] = parsers[kinds[key]](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        linenos[key] = lineno
    return values


def parse_flag(text: str) -> bool:
    """A config flag: ``1``, ``true`` or ``yes``, or ``0``, ``false`` or ``no``, in any case."""
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value in ("1", "true", "yes")


def parse_vector(text: str) -> np.ndarray:
    """A config vector: numbers separated by ``,``."""
    return np.array([float(x) for x in text.split(",")])


def parse_matrix(text: str) -> np.ndarray:
    """A config matrix: rows of ``parse_vector`` separated by ``;``."""
    rows = [r for r in (s.strip() for s in text.split(";")) if r]
    return np.array([parse_vector(row) for row in rows])


def block_rows(width: int) -> int:
    """Rows per block of a table of ``width`` cells a row, read or written: at least one."""
    return max(1, _TABLE_BLOCK_CELLS // width)


def write_table(out: IO[str], header: Sequence[str], blocks: Iterable[tuple]) -> int:
    """Write ``header``, then the ``date,v_1,...,v_m`` line of each row of each
    ``(dates, (rows, m) float array)`` block as it comes; ``dates`` are
    ``datetime.date``s, and each cell is the shortest text that reads back to the
    same bits, byte for byte what ``repr`` gives.  Returns the number of rows
    written."""
    from .floattext import float_lines      # compiled only once a float is written
    out.write(",".join(header) + "\n")
    written = 0
    for dates, values in blocks:
        out.writelines(float_lines(values, dates))
        written += len(values)
    return written


def column_lines(names: Sequence[str], header: list[str], added: list[str], lines: list[str],
                 extra: np.ndarray) -> str:
    """The text of the columns ``names`` of the rows ``lines``, whose columns are
    ``header``, copied as written, and of the columns ``added``, whose floats are
    the rows of ``extra``, written as ``write_table`` writes a cell."""
    from .floattext import float_lines
    position = {name: i for i, name in enumerate(header + added)}
    pick = operator.itemgetter(*[position[name] for name in names])
    more = "".join(float_lines(extra)).splitlines()
    return "".join([",".join(pick(row.split(",") + cells.split(","))) + "\n"
                    for row, cells in zip(lines, more)])


def table_blocks(path: str, dropped: Optional[list] = None, blank_last: bool = False) -> Iterator:
    """The header of a ``date,v_1,...,v_m`` file, then ``(dates, (rows, columns)
    values, row texts without the line end, line numbers)`` blocks of at most
    ``block_rows(len(header))`` kept rows, each read when asked for and parsed by
    ``parse``: one ``np.loadtxt`` call unless it holds a bad number.  Blank
    lines are skipped; the last block may be empty.
    The file is read as ``INPUT_TEXT``.  A zero-byte file raises ``EmptySeries``,
    and a repeated column name or one with a character that XML 1.0 does not
    allow (a byte that is not UTF-8 among them) ``ParseError``; so does, with its
    line, a row with the wrong cell count, a date that is not ``YYYY-MM-DD``
    (blanks around it aside) or a cell that is not a number, named by its column,
    unless ``dropped`` is a list: the error then goes there and the row is left
    out.  With ``blank_last``, a last cell of blanks alone reads as NaN.  A
    caller that checks more of the header does so after the header is yielded,
    before any row is read.
    """
    with open(path, **INPUT_TEXT) as handle:
        first = handle.readline()
        if not first:
            raise EmptySeries(f"{path} is empty")
        header = first.rstrip("\n").split(",")
        if len(set(header)) < len(header):
            repeated = sorted({name for name in header if header.count(name) > 1})
            raise ParseError(1, f"repeated column names {repeated}")
        unfit = [name for name in header if re.search(_NOT_XML, name)]
        if unfit:
            raise ParseError(1, f"header names {unfit} are not UTF-8 text that XML 1.0 allows")
        load = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=2,
                                 usecols=range(1, len(header)))
        yield header
        numbered, size = enumerate(handle, start=2), block_rows(len(header))

        def parse(lines: list[str], linenos: list[int], errors: list) -> tuple:
            """The values of a block's rows, and which rows are kept (``None``: all).
            One call reads a block with no bad number.  Otherwise numpy stops at one
            and names its row R among the rows of its call: the rows before R are
            parsed again, and the next call starts at R + 1.  The rows of
            ``_NUMBER_BYTES`` alone and no blank cell but the last are read first, in
            one call unless one of them is bad; the others follow, and each of those
            that is bad costs one call."""
            with contextlib.suppress(ValueError):
                return load(lines), None
            if blank_last:      # numpy reads no blank cell: a blank last one is given as nan
                lines = [line + "nan" if not line.rpartition(",")[2].strip() else line
                         for line in lines]
                with contextlib.suppress(ValueError):   # no other cell is bad
                    return load(lines), None
            kept = np.ones(len(lines), dtype=bool)
            values = np.empty((len(lines), len(header) - 1))
            text = "\n".join(lines).encode("utf-8", "surrogateescape")  # utf-8-sig adds a mark
            text = text.replace(b",,", b",_,")      # a blank cell
            others = np.fromiter(map(bool, text.translate(None, _NUMBER_BYTES).split(b"\n")),
                                 bool, len(lines))      # whether a row has other bytes
            lines = np.array(lines, dtype=object)    # a slice of it is a view, not a copy
            for rows in np.flatnonzero(~others), np.flatnonzero(others):
                texts, start = lines[rows], 0
                while start < len(rows):
                    try:
                        values[rows[start:]] = load(texts[start:])
                        break
                    except ValueError as exc:
                        place = re.fullmatch(_NUMPY_PLACE, str(exc), re.DOTALL)
                        if place is None:   # not a bad number: there is no row to resume after
                            raise
                    bad = start + int(place[2])
                    kept[rows[bad]] = False
                    errors.append(ParseError(linenos[rows[bad]], f"{place[1]} in column "
                                                                 f"{header[int(place[3]) - 1]!r}"))
                    if bad > start:
                        values[rows[start:bad]] = load(texts[start:bad])
                    start = bad + 1
            return values[kept], kept

        while True:
            dates, lines, linenos, errors = [], [], [], []
            for lineno, line in numbered:   # a bad cell count or date is dropped here
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
                    errors.append(ParseError(lineno, str(exc)))
                    continue
                linenos.append(lineno)
                lines.append(text)
                if len(lines) == size:
                    break
            last = len(lines) < size     # the file ended in this block
            # loadtxt warns on no rows; the filter is process-wide: not across the yield
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values, kept = parse(lines, linenos, errors)
            if kept is not None:
                dates, lines, linenos = (list(itertools.compress(items, kept))
                                         for items in (dates, lines, linenos))
            if errors:
                errors.sort(key=operator.attrgetter("line"))
                if dropped is None:
                    raise errors[0]
                dropped += errors
            yield dates, values, lines, np.array(linenos, dtype=np.int64)
            if last:
                return
