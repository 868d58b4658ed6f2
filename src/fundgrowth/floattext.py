"""Shortest round-trip text of float64 arrays, byte for byte what ``repr`` gives.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) on whole ``int64`` arrays: a table of 126-bit powers of ten
built from Python integers on first use, 189-bit products in 27-bit limbs, and
round-to-odd, then the shorter-or-same-length choice.  The layout is
``repr``'s: fixed notation for decimal exponents -4 <= e < 16, ``d.ddde±XX``
otherwise, and ``0.0``, ``-0.0``, ``nan``, ``inf`` and ``-inf``.  Each cell goes
into a fixed slot padded with NUL bytes, and one ``bytes.translate`` that deletes
them joins a chunk's cells.  ``tableio`` imports this module when it first
writes a float, so a subcommand that writes no table does not compile it.
"""

from __future__ import annotations

import datetime
import functools
import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

# Cells turned into text at a time: with about 230 bytes of temporaries a cell, a
# chunk holds about 2 MB, which adds little to a subcommand's peak memory, and
# larger chunks gain little speed.
_FORMAT_CELLS = 8192
_CELL = 24                  # the longest text of a float: -1.2345678901234567e-308
# Schubfach's decimal exponents of finite floats, and the 27-bit limbs of its
# 126-bit powers of ten and 189-bit products, held in int64
_K_MIN, _K_MAX = -324, 292
_LIMB_MASK = (1 << 27) - 1
_LOW63 = (1 << 63) - 1
_TEN_POWERS = 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _powers() -> np.ndarray:
    """Schubfach's powers of ten: row ``k - _K_MIN`` holds ``g = floor(10^-k 2^-r) + 1``
    with ``r = floor(log2 10^-k) - 125``, so that ``2^125 < g < 2^126``, as five
    27-bit limbs, low first, then ``floor(log2 10^-k)``."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((10 ** -k).bit_length() - 1 if k <= 0 else -(10 ** k).bit_length()) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        rows.append([g >> shift & _LIMB_MASK for shift in range(0, 135, 27)] + [r + 125])
    return np.array(rows, dtype=np.int64)


def _carry(columns: list) -> list:
    """The 27-bit limbs, low first, of ``sum(columns[i] 2^(27 i))``."""
    limbs, carry = [], 0
    for column in columns:
        column = column + carry
        limbs.append(column & _LIMB_MASK)
        carry = column >> 27
    return limbs + [carry]


def _split(limbs: list, h: np.ndarray) -> tuple:
    """``(z >> (127 - h), z >> (64 - h) mod 2^63, z mod 2^(64 - h))`` of the number
    ``z < 2^189`` whose 27-bit limbs are ``limbs``, for ``2 <= h <= 5``."""
    r, m = 19 - h, 10 - h           # 127 - h = 4 * 27 + r and 64 - h = 2 * 27 + m
    high = limbs[4] >> r | limbs[5] << 27 - r | limbs[6] << 54 - r
    mid = (limbs[2] >> m | limbs[3] << 27 - m | limbs[4] << 54 - m) & _LOW63
    low = limbs[0] | limbs[1] << 27 | (limbs[2] & (1 << m) - 1) << 54
    return high, mid, low


@functools.cache
def _exponent_rows() -> np.ndarray:
    """Schubfach's constants by binary exponent, one column per biased exponent
    ``e`` and one per ``e + 2048``, the irregular spacing below ``c = 2^52``:
    ``g``'s five limbs, the decimal exponent ``k``, the shift ``h``, and the
    ``_split`` of ``d g`` and ``2 g``, where ``4 c - d`` and ``4 c + 2`` are the
    ends of the rounding interval in units of ``2^(q - 2)`` and ``d = 2 - irregular``."""
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    irregular = np.arange(4096) >= 2048
    # floor(log10 2^q) and floor(log10 3/4 2^q), exact over the finite exponents
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    power = _powers()[k - _K_MIN].T
    g, h = list(power[:5]), q + power[5] + 2
    lower = _split(_carry([(2 - irregular) * limb for limb in g] + [0]), h)
    upper = _split(_carry([2 * limb for limb in g] + [0]), h)
    return np.array([*g, k, h, *lower, *upper])


def _times_4c(g: np.ndarray, c: np.ndarray) -> list:
    """The 27-bit columns of the product of the limbs ``g`` and ``4 c < 2^55``."""
    low, high = (c << 2) & _LIMB_MASK, c >> 25
    return [low * g[0], *(low * g[i] + high * g[i - 1] for i in range(1, 5)), high * g[4]]


def _shortest(bits: np.ndarray) -> tuple:
    """``(f, k)``, with ``f < 10^17``, of the shortest decimal ``f 10^k`` that reads
    back as each positive finite float whose bits are ``bits`` (int64), the
    nearest to it of those, and the even one of two as near (Schubfach); the
    bits of zero, infinity and NaN give an answer that means nothing."""
    exponent, fraction = bits >> 52, bits & (1 << 52) - 1
    c = fraction | (exponent != 0).astype(np.int64) << 52
    column = exponent + ((fraction == 0) & (exponent > 1)) * 2048
    rows = _exponent_rows()
    h = rows[6].take(column)
    # z = g 4c exactly; v = rop(z 2^h / 2^127) is 4 c 2^q / 10^k rounded to odd, and
    # the interval ends are v's of z - lower and z + upper; bits of z 2^h below 2^64
    # hold only g's excess over 10^-k 2^-r, so they are not sticky.
    high, mid, low = _split(_carry(_times_4c(rows[:5].take(column, axis=1), c)), h)
    v = high | (mid != 0)
    lower, upper = rows[7:10].take(column, axis=1), rows[10:].take(column, axis=1)
    borrow = low < lower[2]
    below = mid - lower[1] - borrow
    v_lower = high - lower[0] - (below < 0) | (below & _LOW63 != 0)
    above = mid + upper[1] + ((low + upper[2]) >> 64 - h)      # wraps past 2^63
    v_upper = high + upper[0] + (above < 0) | (above & _LOW63 != 0)
    odd = c & 1                         # an odd c's interval leaves its ends out
    s = v >> 2
    ten = s // 10 * 10
    # a multiple of 10^(k + 1) in the interval is the shortest; at most one fits
    ten_up = (ten << 2) + 40 + odd <= v_upper
    tens = (v_lower + odd <= ten << 2) != ten_up
    s_in, up_in = v_lower + odd <= s << 2, (s << 2) + 4 + odd <= v_upper
    above_half = v - (s << 2) - 2
    up = np.where(s_in != up_in, up_in, (above_half > 0) | (above_half == 0) & (s & 1 == 1))
    return np.where(tens, ten + 10 * ten_up, s + up), rows[5].take(column)


@functools.cache
def _layouts() -> np.ndarray:
    """The text of each kind of cell as positions into its 32 source bytes: the
    digit ``j`` of 17 at ``3 + j``, the decimal exponent's three digits at 21-23,
    ``-.e+nafi`` at 24-31, a ``0`` at 0 and the pad, a NUL, at 1.  Kind ``(sign *
    17 + n - 1) * 24 + p`` has ``n`` significant digits; ``p < 20`` is the fixed
    notation of ``0.d 10^(p - 3)``, and 20 + 2 (exponent < 0) + (|exponent| >=
    100) the scientific one; 816-820 are ``0.0``, ``-0.0``, ``nan``, ``inf`` and
    ``-inf``.  Returns each text's 24 positions, padded, as two contiguous (kinds,
    12) halves."""
    const = {ch: 24 + i for i, ch in enumerate("-.e+nafi")} | {"0": 0}
    texts = []
    for sign, n in itertools.product(("", "-"), range(1, 18)):
        digits = [3 + j for j in range(n)]
        for point in range(-3, 17):       # the fixed notation, 0.d 10^point
            if point <= 0:
                body = ["0", "."] + ["0"] * -point + digits
            elif point < n:
                body = digits[:point] + ["."] + digits[point:]
            else:
                body = digits + ["0"] * (point - n) + [".", "0"]
            texts.append([*sign, *body])
        for exponent_sign, width in itertools.product("+-", (2, 3)):
            fraction = ["."] + digits[1:] if n > 1 else []
            texts.append([*sign, digits[0], *fraction, "e", exponent_sign,
                          *range(24 - width, 24)])
    texts += [["0", ".", "0"], ["-", "0", ".", "0"], [*"nan"], [*"inf"], [*"-inf"]]
    index = np.ones((len(texts), _CELL), dtype=np.intp)
    for row, text in zip(index, texts):
        row[:len(text)] = [const.get(part, part) for part in text]
    return index.reshape(len(texts), 2, _CELL // 2).transpose(1, 0, 2).copy()


@functools.cache
def _digit_words() -> tuple:
    """The four ASCII digits of each of 0-9999 as one uint32 in memory order, and
    the number of its trailing zero digits, 4 for 0."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1).astype(np.uint8)
    return (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(), zeros


def _cell_sources(bits: np.ndarray) -> tuple:
    """The 32 source bytes and the ``_layouts`` kind of the text of each float
    whose bits are ``bits`` (int64)."""
    magnitude = bits & _LOW63
    f, k = _shortest(magnitude)
    length = np.searchsorted(_TEN_POWERS, f, side="right")
    f = f * _TEN_POWERS[17 - length]                  # 17 digits, the first not 0
    point = k + length                                # the value is 0.f 10^point
    words, zeros = _digit_words()
    source = np.empty((len(bits), 8), dtype=np.uint32)
    heads = [f // 10 ** (16 - 4 * i) for i in range(5)]     # f's first 1, 5, 9, 13, 17 digits
    parts = heads[:1] + [low - high * 10 ** 4 for high, low in zip(heads, heads[1:])]
    for column, part in enumerate([*parts, np.abs(point - 1)]):
        source[:, column] = words.take(part)
    source[:, 6:] = np.frombuffer(b"-.e+nafi", dtype=np.uint32)
    source = source.view(np.uint8)
    source[:, 1] = 0                                  # the pad
    trailing, zero = zeros.take(parts[4]), parts[4] == 0   # f's zero digits at its end
    for part in parts[3:0:-1]:
        trailing += zero * zeros.take(part)
        zero &= part == 0
    n = 17 - trailing
    fixed = (point >= -3) & (point <= 16)
    kind = ((bits < 0) * 17 + n - 1) * 24 + np.where(
        fixed, point + 3, 20 + 2 * (point <= 0) + (np.abs(point - 1) >= 100))
    zero = magnitude == 0
    kind[zero] = 816 + (bits[zero] < 0)
    special = magnitude >= 0x7FF0_0000_0000_0000
    kind[special] = np.where(magnitude[special] > 0x7FF0_0000_0000_0000, 818,
                             819 + (bits[special] < 0))
    return source, kind


def float_lines(values: np.ndarray, dates: Optional[Sequence] = None) -> Iterator[str]:
    """The lines of the rows of the (rows, m) float array ``values``, ``_FORMAT_CELLS``
    cells at a time: each cell the same text as ``repr`` gives, cells separated by
    ``,``, each line led by the ISO text of its ``datetime.date`` in ``dates`` and
    a ``,`` if ``dates`` is given."""
    m = values.shape[1]
    step = max(1, _FORMAT_CELLS // max(m, 1))
    halves = _layouts()
    start = 0 if dates is None else 10
    if dates is not None:       # the ISO text of all dates, in one conversion
        days = np.fromiter(map(datetime.date.toordinal, dates), np.int64, len(dates))
        days = (days + np.datetime64("0000-12-31")).astype("S10").view(np.uint8)
        days = days.reshape(len(values), 10)        # one date a row, or a ValueError
    for first in range(0, len(values), step):
        chunk = np.ascontiguousarray(values[first:first + step], dtype=np.float64)
        rows = len(chunk)
        source, kind = _cell_sources(chunk.view(np.int64).ravel())
        kind = kind.reshape(rows, m)
        line = np.empty((rows, start + (_CELL + 1) * m + 1), dtype=np.uint8)
        if dates is not None:
            line[:, :10] = days[first:first + rows]
        cells = line[:, start:-1].reshape(rows, m, _CELL + 1)
        cells[:, :, 0] = ord(",")
        offsets = np.arange(0, source.size, 32).reshape(rows, m, 1)
        positions = np.empty((rows, m, _CELL // 2), dtype=np.intp)     # for both halves
        for part, index in enumerate(halves):   # half a cell at a time keeps the indices small
            index.take(kind, axis=0, out=positions, mode="clip")    # "raise" would copy out
            positions += offsets
            cells[:, :, 1 + 12 * part:13 + 12 * part] = source.ravel().take(positions)
        if dates is None:
            line[:, 0] = 0                      # no "," before a line's first cell
        line[:, -1] = ord("\n")
        yield line.tobytes().translate(None, b"\0").decode("ascii")
