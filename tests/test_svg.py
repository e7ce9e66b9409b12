"""Tests for repro.visualization.svg — the figure renderer."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.visualization.svg import (
    COLOR_BAND,
    FigurePlot,
    SVGCanvas,
    hilbert_plot,
    scatter_plot,
    trajectory_plot,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    """Round-trip through an XML parser — malformed SVG raises here."""
    return ET.fromstring(svg)


def _count(root: ET.Element, tag: str) -> int:
    return len(root.findall(f".//{SVG_NS}{tag}"))


class TestSVGCanvas:
    def test_well_formed(self):
        canvas = SVGCanvas(100, 50)
        canvas.rect(0, 0, 10, 10, fill="red")
        canvas.line(0, 0, 5, 5)
        canvas.circle(3, 3, 1)
        canvas.text(1, 1, "hello <&> world")
        root = _parse(canvas.render())
        assert root.get("width") == "100"
        assert _count(root, "rect") == 2  # background + one rect
        assert _count(root, "line") == 1
        assert _count(root, "circle") == 1
        assert _count(root, "text") == 1

    def test_text_is_escaped(self):
        canvas = SVGCanvas(10, 10)
        canvas.text(0, 0, "<script>")
        svg = canvas.render()
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg

    def test_text_escape_is_byte_identical_to_saxutils(self):
        """Only ``&``, ``<`` and ``>`` are escaped, ``&`` first, exactly
        as ``xml.sax.saxutils.escape`` (which the renderer no longer
        imports) does; quotes pass through."""
        from xml.sax.saxutils import escape

        content = "a & b < c > d \"e\" 'f' &amp;"
        canvas = SVGCanvas(10, 10)
        canvas.text(0, 0, content)
        expected = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10" '
            'viewBox="0 0 10 10">\n<rect width="10" height="10" fill="white"/>\n'
            '<text x="0" y="0" font-size="12" fill="#111827" text-anchor="start" '
            f'font-family="sans-serif">{escape(content)}</text>\n</svg>\n'
        )
        assert canvas.render() == expected
        assert escape(content) == "a &amp; b &lt; c &gt; d \"e\" 'f' &amp;amp;"

    def test_invalid_size(self):
        with pytest.raises(ParameterError):
            SVGCanvas(0, 10)

    def test_save(self, tmp_path):
        canvas = SVGCanvas(20, 20)
        path = tmp_path / "out.svg"
        canvas.save(path)
        assert path.read_text().startswith("<svg")

    def test_short_polyline_ignored(self):
        canvas = SVGCanvas(10, 10)
        canvas.polyline([(1, 1)])
        assert _count(_parse(canvas.render()), "polyline") == 0


class TestFigurePlot:
    def _series(self, n=500):
        return np.sin(np.arange(n) / 10.0)

    def test_multi_panel_layout(self):
        series = self._series()
        fig = FigurePlot(series.size)
        fig.title = "demo"
        fig.add_line_panel("series", series, bands=[(100, 200, COLOR_BAND)])
        fig.add_line_panel("density", np.abs(series), steps=True)
        fig.add_stem_panel("nn", [(50, 1.0), (250, 2.0)])
        root = _parse(fig.render())
        # one polyline per line panel (steps included), stems as lines
        assert _count(root, "polyline") == 2
        assert _count(root, "text") >= 7  # title + per-panel labels

    def test_band_rendered(self):
        series = self._series()
        fig = FigurePlot(series.size)
        fig.add_line_panel("series", series, bands=[(10, 60, COLOR_BAND)])
        svg = fig.render()
        assert COLOR_BAND in svg

    def test_length_mismatch_rejected(self):
        fig = FigurePlot(100)
        with pytest.raises(ParameterError):
            fig.add_line_panel("bad", np.zeros(99))

    def test_long_series_downsampled(self):
        series = np.sin(np.arange(50_000) / 100.0)
        fig = FigurePlot(series.size)
        fig.add_line_panel("long", series)
        svg = fig.render()
        # output stays bounded even for 50k points
        assert len(svg) < 300_000

    def test_stem_panel_skips_bad_stems(self):
        fig = FigurePlot(100)
        fig.add_stem_panel(
            "nn", [(5, 1.0), (500, 2.0), (10, float("inf"))]
        )
        assert len(fig.panels[0].stems) == 1

    def test_save(self, tmp_path):
        fig = FigurePlot(100)
        fig.add_line_panel("s", np.zeros(100))
        path = tmp_path / "fig.svg"
        fig.save(path)
        _parse(path.read_text())

    def test_too_short_series(self):
        with pytest.raises(ParameterError):
            FigurePlot(1)

    def test_coordinates_do_not_depend_on_units(self):
        """The path of a line panel is the same at every power-of-two
        scale; only the min/max labels show the raw values."""
        series = self._series(300) + np.linspace(0, 1, 300)

        def rendered(scale):
            fig = FigurePlot(series.size)
            fig.add_line_panel("series", series * scale)
            fig.add_line_panel("steps", np.abs(series) * scale, steps=True)
            root = _parse(fig.render())
            paths = [el.get("points") for el in root.iter() if el.tag.endswith("polyline")]
            labels = [el.text for el in root.iter() if el.tag.endswith("text")]
            return paths, labels

        paths, labels = rendered(1.0)
        for exponent in range(-60, 61):
            scaled_paths, scaled_labels = rendered(2.0**exponent)
            assert scaled_paths == paths, exponent
            if exponent:
                assert scaled_labels != labels

    def test_constant_panel_is_flat(self):
        fig = FigurePlot(50)
        fig.add_line_panel("flat", np.full(50, 1e-13))
        root = _parse(fig.render())
        (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len({pair.split(",")[1] for pair in line.get("points").split()}) == 1


class TestScatterPlot:
    def test_hit_miss_colors(self):
        svg = scatter_plot(
            [(1.0, 10.0, True), (2.0, 20.0, False)],
            title="fig10", x_label="approx", y_label="size",
        )
        root = _parse(svg)
        assert _count(root, "circle") == 2
        assert "#16a34a" in svg and "#dc2626" in svg

    def test_degenerate_ranges_ok(self):
        svg = scatter_plot([(1.0, 1.0, True)], title="t", x_label="x",
                           y_label="y")
        _parse(svg)

    def test_coordinates_do_not_depend_on_units(self):
        points = [(1.0, 3.0, True), (2.5, -1.0, False), (4.0, 0.5, True)]

        def circles(scale):
            svg = scatter_plot(
                [(x * scale, y * scale, hit) for x, y, hit in points],
                title="t", x_label="x", y_label="y",
            )
            return [
                (el.get("cx"), el.get("cy"))
                for el in _parse(svg).iter() if el.tag.endswith("circle")
            ]

        reference = circles(1.0)
        for exponent in range(-60, 61):
            assert circles(2.0**exponent) == reference, exponent

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            scatter_plot([], title="t", x_label="x", y_label="y")


class TestHilbertPlot:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_curve_drawn(self, order):
        svg = hilbert_plot(order)
        root = _parse(svg)
        side = 1 << order
        # one dot per visited cell
        assert _count(root, "circle") == side * side
        assert _count(root, "polyline") == 1

    def test_large_order_unlabelled(self):
        svg = hilbert_plot(4, cell=12)
        root = _parse(svg)
        # 16x16 cells: index labels suppressed
        assert _count(root, "text") == 0


class TestTrajectoryPlot:
    def test_highlights(self):
        lats = np.linspace(0, 1, 50)
        lons = np.linspace(0, 1, 50) ** 2
        svg = trajectory_plot(
            lats, lons, highlights=[(10, 20, "#ff0000")], title="trail"
        )
        root = _parse(svg)
        assert _count(root, "polyline") == 2  # base trail + highlight
        assert "#ff0000" in svg

    def test_mismatched_inputs(self):
        with pytest.raises(ParameterError):
            trajectory_plot([0.0, 1.0], [0.0])

    def test_tiny_highlight_skipped(self):
        lats = np.linspace(0, 1, 20)
        svg = trajectory_plot(lats, lats, highlights=[(5, 6, "#ff0000")])
        root = _parse(svg)
        assert _count(root, "polyline") == 1
