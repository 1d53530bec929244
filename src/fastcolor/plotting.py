"""Line charts as standalone SVG, for run artifacts.

Charts are built from CSV columns so the same code renders training
curves (metric vs iteration) and scaling plots (colors or seconds vs
graph size). No plotting dependency; the SVG is assembled directly.
"""

from __future__ import annotations

import csv
import math
from xml.sax.saxutils import escape

from .errors import ParameterError, ParseError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def read_csv_columns(path: str) -> dict[str, list[str]]:
    """Header-keyed columns; short rows are padded with empty cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty CSV") from None
        columns: dict[str, list[str]] = {name: [] for name in header}
        if len(columns) != len(header):
            raise ParseError(f"{path}: duplicate column names")
        for row in reader:
            for i, name in enumerate(header):
                columns[name].append(row[i] if i < len(row) else "")
    return columns


def numeric_column(columns: dict[str, list[str]], name: str) -> list[float]:
    """Parse one column as floats, empty cells as NaN, keeping order;
    a cell that is not a finite number is an error."""
    if name not in columns:
        raise ParameterError(f"no column {name!r}; have {sorted(columns)}")
    out = []
    for i, cell in enumerate(columns[name]):
        if cell == "":
            out.append(math.nan)
            continue
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"column {name!r} row {i + 2}: not a number: {cell!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"column {name!r} row {i + 2}: not finite: {cell!r}")
        out.append(value)
    return out


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e6:
        return str(int(x))
    return f"{x:.4g}"


def line_chart(series: list[tuple[str, list[float], list[float]]],
               title: str = "", xlabel: str = "", ylabel: str = "",
               width: int = 640, height: int = 400) -> str:
    """Render (label, xs, ys) series as one SVG line chart; the title,
    axis labels and series labels are escaped as XML text."""
    if not series:
        raise ParameterError("nothing to plot")
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
           if not (math.isnan(x) or math.isnan(y))]
    if not pts:
        raise ParameterError("all series are empty")
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    left, right, top, bottom = 64, 16, 34, 44

    def px(x: float) -> float:
        return left + (x - xmin) / (xmax - xmin) * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - (y - ymin) / (ymax - ymin) * (height - top - bottom)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for tx in _ticks(xmin, xmax):
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                   f'y2="{height - bottom}" stroke="#ddd"/>')
        out.append(f'<text x="{x:.1f}" y="{height - bottom + 14}" '
                   f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(ymin, ymax):
        y = py(ty)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>')
    out.append(f'<rect x="{left}" y="{top}" width="{width - left - right}" '
               f'height="{height - top - bottom}" fill="none" stroke="#333"/>')
    if xlabel:
        out.append(f'<text x="{(left + width - right) / 2:.1f}" y="{height - 8}" '
                   f'text-anchor="middle">{escape(xlabel)}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" '
                   f'transform="rotate(-90 14 {(top + height - bottom) / 2:.1f})">'
                   f'{escape(ylabel)}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys)
            if not (math.isnan(x) or math.isnan(y))
        )
        if coords:
            out.append(f'<polyline points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 + 15 * i
        lx = width - right - 130
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 24}" y="{ly}">{escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plot_csv(csv_path: str, x: str, ys: list[str], out_path: str,
             title: str = "") -> None:
    """Chart the named CSV columns and write the SVG."""
    if not ys:
        raise ParameterError("need at least one y column")
    columns = read_csv_columns(csv_path)
    xs = numeric_column(columns, x)
    series = [(y, xs, numeric_column(columns, y)) for y in ys]
    svg = line_chart(series, title=title or csv_path, xlabel=x,
                     ylabel=", ".join(ys) if len(ys) > 1 else ys[0])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
