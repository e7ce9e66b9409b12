"""Dependency-free SVG chart rendering for the figure benchmarks.

The benchmark harness regenerates the paper's figures; this module lets
it emit real charts (SVG files under ``benchmarks/figures/``) without
any plotting dependency.  The drawing vocabulary is deliberately small —
exactly what the paper's figures need:

* line panels with highlighted interval bands (Figures 1–3, 7);
* stem panels for the NN-distance profiles (Figures 2–3 bottom);
* scatter panels for the Figure 10 success regions;
* grid drawings of the Hilbert curve (Figure 6) and 2-d trajectories
  (Figures 7–9).

Coordinates follow SVG conventions (y grows downward); the chart
classes handle data-to-pixel mapping and axis drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ParameterError

#: Default palette (colorblind-safe-ish).
COLOR_SERIES = "#2563eb"
COLOR_BAND = "#fecaca"
COLOR_BAND_ALT = "#bfdbfe"
COLOR_STEM = "#059669"
COLOR_AXIS = "#6b7280"
COLOR_TEXT = "#111827"
COLOR_HIT = "#16a34a"
COLOR_MISS = "#dc2626"


def _escape(text: str) -> str:
    """Escape character data as ``xml.sax.saxutils.escape`` does.

    ``&`` goes first so the entities the other two produce stay intact.
    Kept local because importing ``xml.sax`` loads ``urllib`` and
    ``http.client`` as well.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    """Compact coordinate formatting."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


class SVGCanvas:
    """A minimal SVG document builder."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ParameterError(f"bad canvas size {width}x{height}")
        self.width = width
        self.height = height
        self._elements: list[str] = []

    def rect(
        self, x: float, y: float, w: float, h: float,
        *, fill: str, opacity: float = 1.0, stroke: str = "none",
    ) -> None:
        self._elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}"/>'
        )

    def line(
        self, x1: float, y1: float, x2: float, y2: float,
        *, stroke: str = COLOR_AXIS, width: float = 1.0,
    ) -> None:
        self._elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polyline(
        self, points: Sequence[tuple[float, float]],
        *, stroke: str = COLOR_SERIES, width: float = 1.0,
    ) -> None:
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def circle(
        self, cx: float, cy: float, r: float,
        *, fill: str = COLOR_SERIES, opacity: float = 1.0,
    ) -> None:
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )

    def text(
        self, x: float, y: float, content: str,
        *, size: int = 12, fill: str = COLOR_TEXT, anchor: str = "start",
    ) -> None:
        self._elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'fill="{fill}" text-anchor="{anchor}" '
            f'font-family="sans-serif">{_escape(content)}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" '
            f'fill="white"/>\n{body}\n</svg>\n'
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


@dataclass
class Panel:
    """One data panel inside a figure: its own y-scale and content."""

    title: str
    kind: str = "line"  # "line" | "stems" | "steps"
    values: Optional[np.ndarray] = None             # line/steps: y per x
    stems: list[tuple[int, float]] = field(default_factory=list)
    bands: list[tuple[int, int, str]] = field(default_factory=list)
    color: str = COLOR_SERIES


class FigurePlot:
    """A stack of x-aligned panels over one series axis.

    The layout matches the paper's multi-panel figures: series on top,
    rule density below, NN-distance stems at the bottom, with anomaly
    intervals highlighted as translucent bands across panels.
    """

    def __init__(
        self,
        series_length: int,
        *,
        width: int = 900,
        panel_height: int = 120,
        margin: int = 45,
    ) -> None:
        if series_length <= 1:
            raise ParameterError("series_length must exceed 1")
        self.series_length = series_length
        self.width = width
        self.panel_height = panel_height
        self.margin = margin
        self.panels: list[Panel] = []
        self.title = ""

    # -- panel construction ------------------------------------------------

    def add_line_panel(
        self,
        title: str,
        values: np.ndarray,
        *,
        bands: Sequence[tuple[int, int, str]] = (),
        color: str = COLOR_SERIES,
        steps: bool = False,
    ) -> None:
        """A line (or step) panel; *bands* are (start, end, color)."""
        values = np.asarray(values, dtype=float)
        if values.size != self.series_length:
            raise ParameterError(
                f"panel length {values.size} != series length "
                f"{self.series_length}"
            )
        self.panels.append(
            Panel(
                title=title,
                kind="steps" if steps else "line",
                values=values,
                bands=list(bands),
                color=color,
            )
        )

    def add_stem_panel(
        self,
        title: str,
        stems: Sequence[tuple[int, float]],
        *,
        bands: Sequence[tuple[int, int, str]] = (),
        color: str = COLOR_STEM,
    ) -> None:
        """A stem panel: vertical line at x with the given height."""
        clean = [
            (int(x), float(h))
            for x, h in stems
            if 0 <= int(x) < self.series_length and math.isfinite(h)
        ]
        self.panels.append(
            Panel(title=title, kind="stems", stems=clean, bands=list(bands),
                  color=color)
        )

    # -- rendering -----------------------------------------------------------

    def _x(self, index: float) -> float:
        usable = self.width - 2 * self.margin
        return self.margin + usable * index / (self.series_length - 1)

    def render(self) -> str:
        total_height = (
            len(self.panels) * (self.panel_height + 30) + self.margin + 20
        )
        canvas = SVGCanvas(self.width, total_height)
        if self.title:
            canvas.text(self.margin, 22, self.title, size=14)
        top = self.margin
        for panel in self.panels:
            self._render_panel(canvas, panel, top)
            top += self.panel_height + 30
        return canvas.render()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())

    def _render_panel(self, canvas: SVGCanvas, panel: Panel, top: float) -> None:
        height = self.panel_height
        bottom = top + height
        if panel.kind == "stems":
            heights = [h for _, h in panel.stems]
            lo, hi = 0.0, max(heights) if heights else 1.0
        else:
            lo = float(np.min(panel.values))
            hi = float(np.max(panel.values))
        if not hi > lo:
            hi = lo + 1.0

        def y_of(value: float) -> float:
            return bottom - (value - lo) / (hi - lo) * height

        # bands first (under the data)
        for start, end, color in panel.bands:
            x0 = self._x(max(0, start))
            x1 = self._x(min(self.series_length - 1, end))
            canvas.rect(x0, top, max(1.0, x1 - x0), height, fill=color,
                        opacity=0.45)

        # frame + labels
        canvas.line(self.margin, bottom, self.width - self.margin, bottom)
        canvas.line(self.margin, top, self.margin, bottom)
        canvas.text(self.margin, top - 6, panel.title, size=11)
        canvas.text(self.margin - 5, bottom, _fmt(lo), size=9, anchor="end")
        canvas.text(self.margin - 5, top + 9, _fmt(hi), size=9, anchor="end")

        if panel.kind == "stems":
            for x, h in panel.stems:
                px = self._x(x)
                canvas.line(px, bottom, px, y_of(h), stroke=panel.color,
                            width=1.2)
            return

        values = panel.values
        # Downsample long series for readable output size.
        max_points = 2000
        if values.size > max_points:
            idx = np.linspace(0, values.size - 1, max_points).astype(int)
        else:
            idx = np.arange(values.size)
        points = [(self._x(int(i)), y_of(float(values[int(i)]))) for i in idx]
        if panel.kind == "steps":
            stepped: list[tuple[float, float]] = []
            for (x0, y0), (x1, _y1) in zip(points, points[1:]):
                stepped.append((x0, y0))
                stepped.append((x1, y0))
            stepped.append(points[-1])
            points = stepped
        canvas.polyline(points, stroke=panel.color, width=1.1)


def scatter_plot(
    points: Sequence[tuple[float, float, bool]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    width: int = 520,
    height: int = 420,
    margin: int = 55,
) -> str:
    """A scatter chart of (x, y, hit) points — the Figure 10 panels.

    Hits are green, misses red; axes are linear with min/max labels.
    """
    if not points:
        raise ParameterError("scatter_plot needs at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not x_hi > x_lo:
        x_hi = x_lo + 1.0
    if not y_hi > y_lo:
        y_hi = y_lo + 1.0

    canvas = SVGCanvas(width, height)
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * plot_h

    canvas.text(margin, 24, title, size=13)
    canvas.line(margin, height - margin, width - margin, height - margin)
    canvas.line(margin, margin, margin, height - margin)
    canvas.text(width // 2, height - 12, x_label, size=11, anchor="middle")
    canvas.text(14, height // 2, y_label, size=11, anchor="middle")
    canvas.text(margin, height - margin + 14, _fmt(x_lo), size=9)
    canvas.text(width - margin, height - margin + 14, _fmt(x_hi), size=9,
                anchor="end")
    canvas.text(margin - 4, height - margin, _fmt(y_lo), size=9, anchor="end")
    canvas.text(margin - 4, margin + 8, _fmt(y_hi), size=9, anchor="end")

    for x, y, hit in points:
        canvas.circle(px(x), py(y), 4.0,
                      fill=COLOR_HIT if hit else COLOR_MISS, opacity=0.8)
    return canvas.render()


def hilbert_plot(order: int, *, cell: int = 40, margin: int = 30) -> str:
    """Draw the order-*order* Hilbert curve over its grid (Figure 6)."""
    from repro.trajectory.hilbert import hilbert_curve_points

    points = hilbert_curve_points(order)
    side = 1 << order
    size = side * cell + 2 * margin
    canvas = SVGCanvas(size, size)

    def centre(x: int, y: int) -> tuple[float, float]:
        return (
            margin + x * cell + cell / 2,
            size - margin - y * cell - cell / 2,
        )

    for gx in range(side + 1):
        canvas.line(margin + gx * cell, margin, margin + gx * cell,
                    size - margin, stroke="#e5e7eb")
        canvas.line(margin, margin + gx * cell, size - margin,
                    margin + gx * cell, stroke="#e5e7eb")
    canvas.polyline([centre(int(x), int(y)) for x, y in points],
                    stroke=COLOR_SERIES, width=2.0)
    for d, (x, y) in enumerate(points):
        cx, cy = centre(int(x), int(y))
        if side <= 8:  # label cells only while readable
            canvas.text(cx, cy - 6, str(d), size=9, anchor="middle")
        canvas.circle(cx, cy, 2.5, fill=COLOR_STEM)
    return canvas.render()


def trajectory_plot(
    lats: Sequence[float],
    lons: Sequence[float],
    *,
    highlights: Sequence[tuple[int, int, str]] = (),
    title: str = "",
    width: int = 520,
    height: int = 520,
    margin: int = 40,
) -> str:
    """Draw a trail in lat/lon space with highlighted index ranges.

    *highlights* are (start_index, end_index, color) fix ranges — the
    Figures 7–9 colored segments.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if lats.size != lons.size or lats.size < 2:
        raise ParameterError("need equal-length lat/lon with >= 2 fixes")
    lat_lo, lat_hi = float(lats.min()), float(lats.max())
    lon_lo, lon_hi = float(lons.min()), float(lons.max())
    lat_hi = lat_hi if lat_hi > lat_lo else lat_lo + 1.0
    lon_hi = lon_hi if lon_hi > lon_lo else lon_lo + 1.0

    canvas = SVGCanvas(width, height)

    def pt(i: int) -> tuple[float, float]:
        x = margin + (lons[i] - lon_lo) / (lon_hi - lon_lo) * (width - 2 * margin)
        y = height - margin - (lats[i] - lat_lo) / (lat_hi - lat_lo) * (
            height - 2 * margin
        )
        return x, y

    if title:
        canvas.text(margin, 22, title, size=13)
    canvas.polyline([pt(i) for i in range(lats.size)], stroke="#9ca3af",
                    width=1.0)
    for start, end, color in highlights:
        start = max(0, start)
        end = min(lats.size, end)
        if end - start >= 2:
            canvas.polyline([pt(i) for i in range(start, end)], stroke=color,
                            width=2.5)
    return canvas.render()
