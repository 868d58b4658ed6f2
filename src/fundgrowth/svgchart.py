"""Minimal deterministic SVG line charts for the report command.

Fixed float formatting, no timestamps: identical inputs produce identical
bytes.  Each chart is written to an open text handle piece by piece.
"""

from __future__ import annotations

import math
from typing import IO, Sequence

import numpy as np

from .errors import EmptyRange

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#7f7f7f", "#9467bd", "#8c564b"]

_WIDTH = 840
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 44
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})    # every title and label

# ASCII, 4 bytes to a uint32: 0..1000 right-aligned with 0 bytes in front, and
# .00 .. .99 followed by the separator after an x (",") or after a y (" ")
_N = np.arange(1001)[:, None]
_INTEGERS = np.where(_N >= [1000, 100, 10, 0], ord("0") + _N // [1000, 100, 10, 1] % 10, 0)
_INTEGERS = _INTEGERS.astype(np.uint8).view(np.uint32).ravel()
_FRACTIONS = np.column_stack([np.full(200, ord(".")), ord("0") + _N[:200] // [10, 1] % 10,
                              np.repeat([ord(","), ord(" ")], 100)])
_FRACTIONS = dict(zip(", ", _FRACTIONS.astype(np.uint8).view(np.uint32).reshape(2, 100)))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round values from ``lo`` to ``hi``, a 1, 2, 2.5 or 5 times 10^n
    step apart; none if that step underflows to 0 or moves no tick (a span of a
    few ulps)."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    step = next((m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag), 0.0)
    if step == 0.0:
        return []
    ticks = []
    value = math.ceil(lo / step) * step
    while value <= hi + 1e-9 * step:
        if value + step == value:
            return []
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def line_chart(out: IO[str], title: str, x_labels: Sequence,
               series: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write labelled series over a shared index axis to ``out``, every point
    drawn; NaNs break the line.  ``EmptyRange`` means that no value is finite or
    that the values span no range the chart can scale; it is raised before
    anything is written.  Coordinates are formatted by ``_words`` with no Python
    work a point: the x coordinates once a chart, the y ones once a finite run."""
    values = [np.asarray(v, dtype=float) for _, v in series]
    n = max((v.size for v in values), default=0)
    y_lo = min((float(np.min(v, where=np.isfinite(v), initial=math.inf)) for v in values),
               default=math.inf)
    y_hi = max((float(np.max(v, where=np.isfinite(v), initial=-math.inf)) for v in values),
               default=-math.inf)
    if y_lo > y_hi:
        raise EmptyRange(f"{title}: no finite values to plot")
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    ticks = _nice_ticks(y_lo, y_hi) if 0.0 < y_hi - y_lo < math.inf else []
    if not ticks:
        raise EmptyRange(f"{title}: the values span no range a chart can scale")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Scalars or arrays; arrays get the same floats as a per-point loop.
    def px(i):
        return _MARGIN_L + plot_w * (i / max(n - 1, 1))

    def py(v):
        return _MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14" '
        f'font-weight="bold">{title.translate(_XML_TEXT)}</text>\n'
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>\n'
    )

    for tick in ticks:
        y = py(tick)
        out.write(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>\n'
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{tick:.6g}</text>\n'
        )

    n_x_ticks = min(6, n)
    for j in range(n_x_ticks):
        i = round(j * (n - 1) / max(n_x_ticks - 1, 1))
        x = px(i)
        label = str(x_labels[i] if i < len(x_labels) else i).translate(_XML_TEXT)
        out.write(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333" stroke-width="1"/>\n'
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{label}</text>\n'
        )

    xw = _words(px(np.arange(n)), ",")
    for idx, ((label, _), v) in enumerate(zip(series, values)):
        color = PALETTE[idx % len(PALETTE)]
        # finite runs start and stop where the finite mask flips
        edges = np.flatnonzero(np.diff(np.isfinite(v), prepend=False, append=False))
        for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
            out.write(_polyline(xw[start:stop], _words(py(v[start:stop]), " "), color))
        ly = _MARGIN_T + 16 + 16 * idx
        out.write(
            f'<line x1="{_MARGIN_L + 8}" y1="{ly - 4}" x2="{_MARGIN_L + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{_MARGIN_L + 33}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label.translate(_XML_TEXT)}</text>\n'
        )

    out.write("</svg>\n")


def _words(v: np.ndarray, sep: str) -> np.ndarray:
    """The text of each coordinate ``v`` as ``"%.2f" % v`` writes it, followed by
    ``sep``: two uint32 words a coordinate, padded with NUL bytes.  Every one must
    lie in (0, 1000).

    ``%.2f`` writes ``m / 100``, ``m`` the integer nearest to ``x = 100 v``
    (ties to even) for the exact binary ``v``.  Let ``p = fl(100 v)``.  Dekker's
    product (Numer. Math. 18, 1971) splits ``v`` into ``hi + lo`` of 26 bits
    each with the factor ``2^27 + 1``; 100 has 7 bits, so ``e = (100 hi - p) +
    100 lo = x - p`` exactly.  ``m`` changes where ``x`` crosses a
    half-integer, and every half-integer below 10^5 is a double.  If ``p`` is
    none, no half-integer lies between ``p`` and ``x`` (it would be nearer to
    ``x`` than ``p = fl(x)`` is), so ``m = rint(p)``.  If ``p`` is one, ``x``
    lies above it (``e > 0``, ``m = p + 1/2``), below it (``e < 0``, ``m = p -
    1/2``) or on it (``e = 0``, the even neighbour ``rint(p)``): ``m = rint(p +
    sign(e)/2)``.
    """
    if not ((v > 0.0) & (v < 1000.0)).all():
        raise ValueError("chart coordinates must lie in (0, 1000)")
    p = v * 100.0
    m = np.rint(p)
    tie = np.abs(p - m) == 0.5
    t, u = p[tie], v[tie]
    hi = u * (2.0**27 + 1.0)
    hi -= hi - u
    e = (100.0 * hi - t) + 100.0 * (u - hi)
    m[tie] = np.rint(t + 0.5 * np.sign(e))
    m = m.astype(np.int32)
    whole = m // 100
    return np.column_stack([_INTEGERS[whole], _FRACTIONS[sep][m - 100 * whole]])


def _polyline(xw: np.ndarray, yw: np.ndarray, color: str) -> str:
    """A lone point as a circle, a longer run as a polyline, from the ``_words``
    of its x (followed by ``","``) and y (by ``" "``, but for the last) coordinates."""
    points = np.column_stack([xw, yw]).tobytes().translate(None, b"\0")[:-1].decode("ascii")
    if len(xw) == 1:
        cx, cy = points.split(",")
        return f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>\n'
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>\n'
