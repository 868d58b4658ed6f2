"""Minimal deterministic SVG line charts for the report command.

String assembly only, fixed float formatting, no timestamps: identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import EmptyRange

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#7f7f7f", "#9467bd", "#8c564b"]

_WIDTH = 840
_HEIGHT = 420
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 44


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _fmt_tick(value: float) -> str:
    return f"{value:.6g}"


def line_chart(title: str, x_labels: Sequence, series: Sequence[tuple[str, np.ndarray]]) -> str:
    """Render labelled series over a shared index axis, every point drawn;
    NaNs break the line, and ``EmptyRange`` means no value is finite."""
    n = max((len(vals) for _, vals in series), default=0)
    finite = np.concatenate([np.empty(0)] + [np.asarray(v, float) for _, v in series])
    finite = finite[np.isfinite(finite)]
    if finite.size == 0:
        raise EmptyRange(f"{title}: no finite values to plot")
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Scalars or arrays; arrays get the same floats as a per-point loop.
    def px(i):
        return _MARGIN_L + plot_w * (i / max(n - 1, 1))

    def py(v):
        return _MARGIN_T + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n',
        f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" font-size="14" '
        f'font-weight="bold">{title}</text>\n',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>\n',
    ]

    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>\n'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt_tick(tick)}</text>\n'
        )

    n_x_ticks = min(6, n)
    for j in range(n_x_ticks):
        i = round(j * (n - 1) / max(n_x_ticks - 1, 1))
        x = px(i)
        label = x_labels[i] if i < len(x_labels) else str(i)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333" stroke-width="1"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{label}</text>\n'
        )

    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        values = np.asarray(values, dtype=float)
        x, y = px(np.arange(values.size)), py(values)
        # finite runs start and stop where the finite mask flips
        edges = np.flatnonzero(np.diff(np.isfinite(values), prepend=False, append=False))
        for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
            parts.append(_polyline(x[start:stop], y[start:stop], color))
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{_MARGIN_L + 8}" y1="{ly - 4}" x2="{_MARGIN_L + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 33}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>\n'
        )

    parts.append("</svg>\n")
    return "".join(parts)


def _polyline(x: np.ndarray, y: np.ndarray, color: str) -> str:
    """A lone point as a circle, a longer run as a polyline (``%.2f`` is ``_fmt``)."""
    if x.size == 1:
        return f'<circle cx="{_fmt(x[0])}" cy="{_fmt(y[0])}" r="1.5" fill="{color}"/>\n'
    points = " ".join(["%.2f,%.2f"] * x.size) % tuple(np.column_stack([x, y]).ravel().tolist())
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>\n'
