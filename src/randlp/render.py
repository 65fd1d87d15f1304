"""Minimal SVG output for histogram bars and ECDF steps.

Diagnostic figures only: fixed canvas, two axis lines, corner labels with the
data ranges. CSV files are the machine-readable contract; these are for a
quick look in a browser.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_W, _H = 640, 400
_MARGIN = 50


def _range_labels(lo: float, hi: float, top: str) -> List[str]:
    """Labels for the x range at the ends of the x axis and the value at the
    top of the y axis."""
    places = [
        (_MARGIN, _H - _MARGIN + 16, f"{lo:.6g}"),
        (_W - _MARGIN - 60, _H - _MARGIN + 16, f"{hi:.6g}"),
        (4, _MARGIN, top),
    ]
    return [f'<text x="{x}" y="{y}" font-size="12" font-family="monospace">{text}</text>' for x, y, text in places]


def _scale(v: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (v - lo) / span * (out_hi - out_lo)


def _write_svg(path: str, marks: List[str]) -> None:
    """Write the canvas and axes with the given marks on top."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        *marks,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_histogram(bins: Sequence[Tuple[float, float, int]], path: str) -> None:
    """Write bars for (bin_left, bin_right, count) triples."""
    marks = []
    if bins:
        lo = bins[0][0]
        hi = bins[-1][1]
        top = max(count for (_, _, count) in bins) or 1
        for left, right, count in bins:
            x0 = _scale(left, lo, hi, _MARGIN, _W - _MARGIN)
            x1 = _scale(right, lo, hi, _MARGIN, _W - _MARGIN)
            h = (count / top) * (_H - 2 * _MARGIN)
            marks.append(
                f'<rect x="{x0:.2f}" y="{_H - _MARGIN - h:.2f}" width="{max(x1 - x0, 0.0):.2f}" '
                f'height="{h:.2f}" fill="steelblue" stroke="black" stroke-width="0.5"/>'
            )
        marks += _range_labels(lo, hi, str(top))
    _write_svg(path, marks)


def svg_steps(points: Sequence[Tuple[float, float]], path: str) -> None:
    """Write a right-continuous step plot for (x, value) pairs in [0, 1]."""
    marks = []
    if points:
        lo = points[0][0]
        hi = points[-1][0]
        coords = []
        prev = 0.0
        for x, v in points:
            px = _scale(x, lo, hi, _MARGIN, _W - _MARGIN)
            py_prev = _scale(prev, 0.0, 1.0, _H - _MARGIN, _MARGIN)
            py = _scale(v, 0.0, 1.0, _H - _MARGIN, _MARGIN)
            coords.append(f"{px:.2f},{py_prev:.2f}")
            coords.append(f"{px:.2f},{py:.2f}")
            prev = v
        marks.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="steelblue"/>')
        marks += _range_labels(lo, hi, "1.0")
    _write_svg(path, marks)
