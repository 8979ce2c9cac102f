"""Minimal deterministic SVG line plots. CSV stays the artifact of record;
these renderings exist so a campaign can be eyeballed without extra tools."""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np

from .datasets import _write_lines
from .errors import DomainError

__all__ = ["line_plot"]

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#777777")
_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 48


def _normal(v: float) -> bool:
    return sys.float_info.min <= v <= sys.float_info.max


def _ticks(lo: float, hi: float, axis: str) -> np.ndarray:
    """Ticks at a round step over [lo, hi]; the span and the step must be
    finite, positive, normal floats, or the ticks cannot be spaced."""
    step = 0.0
    if _normal(hi - lo):
        raw = (hi - lo) / 5
        magnitude = 10.0 ** np.floor(np.log10(raw))
        for nice in (1.0, 2.0, 2.5, 5.0, 10.0):
            if raw <= nice * magnitude:
                step = nice * magnitude
                break
    if not _normal(step):
        raise DomainError(f"{axis} axis span [{lo!r}, {hi!r}] is too narrow "
                          "or too wide to plot")
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step * 1e-9, step)


def _escape(text: str) -> str:
    # not xml.sax.saxutils.escape, whose import adds ~7 MB to peak RSS
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return "%g" % (0.0 + round(v, 10))


def line_plot(
    series: Sequence[tuple[Sequence[float], Sequence[float], str]],
    path,
    *,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write `series` = [(x, y, label), ...] as a standalone SVG file with
    a title, axis labels and a legend line per series."""
    if not series:
        raise DomainError("need at least one series")
    pairs = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise DomainError(f"series {label!r}: need matching 1-d arrays, >= 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError(f"series {label!r}: non-finite values")
        pairs.append((x, y, str(label)))

    x_lo = min(float(x.min()) for x, _, _ in pairs)
    x_hi = max(float(x.max()) for x, _, _ in pairs)
    y_lo = min(float(y.min()) for _, y, _ in pairs)
    y_hi = max(float(y.max()) for _, y, _ in pairs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="monospace" font-size="12" fill="#222">',
    ]
    out.append(
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{_escape(title)}</text>'
    )
    frame = (
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#222"/>'
    )
    out.append(frame)
    for tick in _ticks(x_lo, x_hi, "x"):
        px = sx(tick)
        out.append(
            f'<line x1="{px:.1f}" y1="{_MARGIN_T + plot_h}" x2="{px:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#222"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(y_lo, y_hi, "y"):
        py = sy(tick)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#222"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    cy = _MARGIN_T + plot_h / 2
    out.append(
        f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {cy:.1f})">{_escape(y_label)}</text>'
    )
    for k, (x, y, label) in enumerate(pairs):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{_escape(label)}</text>')
    out.append("</g></svg>")
    _write_lines(path, out)
