"""Tests for repro.visualization (ASCII panels and text reports)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anomaly import Anomaly, Discord
from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import ParameterError
from repro.visualization.ascii import (
    _bin_series,
    density_strip,
    marker_line,
    render_panels,
    sparkline,
)
from repro.visualization.report import anomaly_table, grammar_report, rule_table
from tests.oracles import bin_series_oracle

#: Values across the whole double range: any float (NaN, ±inf and
#: subnormals included), and mantissas scaled by 1e-300 … 1e300.
_values = st.lists(
    st.one_of(
        st.floats(),
        st.builds(
            lambda m, e: m * 10.0**e,
            st.floats(-10.0, 10.0),
            st.integers(-300, 300),
        ),
    ),
    min_size=1,
    max_size=300,
)


class TestBinSeries:
    @settings(max_examples=300, deadline=None)
    @given(_values, st.integers(1, 400))
    def test_equals_the_per_bin_mean(self, values, width):
        want = bin_series_oracle(np.array(values), width)
        got = _bin_series(np.array(values), width)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    @pytest.mark.parametrize("n, width", [(1, 1), (1, 80), (3, 80), (79, 80), (81, 80)])
    def test_short_series_and_wide_rows(self, n, width):
        values = np.random.default_rng(n).normal(size=n) * 1e200
        assert np.array_equal(
            _bin_series(values, width), bin_series_oracle(values, width)
        )

    def test_empty_series(self):
        assert np.array_equal(_bin_series(np.array([]), 5), np.zeros(5))


class TestSparkline:
    def test_width(self):
        assert len(sparkline(np.sin(np.arange(100)), width=40)) == 40

    def test_monotone_ramp(self):
        line = sparkline([0, 1, 2, 3], width=4)
        assert line == "▁▃▆█"

    def test_constant_series(self):
        assert sparkline(np.ones(50), width=10) == "▁" * 10

    def test_invalid_width(self):
        with pytest.raises(ParameterError):
            sparkline([1, 2], width=0)

    def test_short_series_long_width(self):
        # more cells than points still renders full width
        assert len(sparkline([1.0, 5.0], width=20)) == 20

    def test_no_dependence_on_units(self):
        """Only a range that is not positive is flat: at every power-of-two
        scale the bins and the cell heights scale exactly."""
        values = np.sin(np.arange(700) / 9.0) + np.linspace(0, 0.5, 700)
        reference = sparkline(values)
        assert len(set(reference)) == 8
        for exponent in range(-60, 61):
            assert sparkline(np.ldexp(values, exponent)) == reference, exponent

    def test_tiny_wave_is_drawn(self):
        wave = np.sin(np.arange(200) / 5.0)
        assert sparkline(wave * 1e-13, width=40) == sparkline(wave, width=40)
        assert sparkline(np.full(30, 1e-13), width=10) == "▁" * 10


class TestDensityStrip:
    def test_low_density_is_light(self):
        curve = np.array([10.0] * 40 + [0.0] * 10 + [10.0] * 40)
        strip = density_strip(curve, width=45)
        middle = strip[18:27]
        assert " " in middle or "░" in middle
        assert strip[0] in "▓█"

    def test_constant_curve(self):
        assert density_strip(np.full(20, 3.0), width=5) == "█████"

    def test_no_dependence_on_units(self):
        curve = np.array([10.0] * 40 + [0.0] * 10 + [10.0] * 40 + [4.0] * 30)
        reference = density_strip(curve, width=45)
        for exponent in range(-60, 61):
            assert density_strip(np.ldexp(curve, exponent), width=45) == reference


def _finite_row(binned, glyphs, flat):
    """The row of finite bins whose range does not overflow, as the
    report drew it before non-finite bins had glyphs."""
    lo, hi = float(binned.min()), float(binned.max())
    if not hi > lo:
        return flat * binned.size
    idx = ((binned - lo) / (hi - lo) * (len(glyphs) - 1)).round().astype(int)
    return "".join(glyphs[i] for i in idx)


class TestNonFiniteBins:
    @pytest.mark.parametrize("draw", [sparkline, density_strip])
    @pytest.mark.parametrize("values", [
        [0.0, np.inf, 1.0], [0.0, 1e308, -1e308], [0.0, np.nan, 1.0],
        [-np.inf, np.inf], [np.nan, np.nan], [np.inf, 2.0, 2.0],
    ])
    def test_no_crash_and_one_cell_per_bin(self, draw, values):
        assert len(draw(values, width=len(values))) == len(values)

    def test_glyphs(self):
        assert sparkline([0.0, np.inf, 1.0], width=3) == "▁██"
        assert sparkline([0.0, -np.inf, 1.0], width=3) == "▁▁█"
        assert sparkline([0.0, np.nan, 1.0], width=3) == "▁·█"
        assert density_strip([0.0, np.nan, 1.0], width=3) == " ·█"
        assert density_strip([np.inf, -np.inf, np.nan], width=3) == "█ ·"

    def test_nan_is_not_drawn_flat(self):
        assert sparkline([0.0, np.nan, 1.0, 2.0], width=4) == "▁·▅█"
        assert sparkline([np.nan] * 3, width=3) == "···"

    def test_overflowing_range_is_scaled_by_halves(self):
        assert sparkline([-1e308, 0.0, 1e308], width=3) == "▁▅█"
        assert density_strip([-1e308, 0.0, 1e308], width=3) == " ▒█"
        huge = np.ldexp(np.sin(np.arange(64) / 4.0), 1023)
        assert sparkline(huge, width=64) == sparkline(np.sin(np.arange(64) / 4.0), width=64)

    @given(_values, st.integers(1, 100))
    @settings(max_examples=300, deadline=None)
    def test_any_values(self, values, width):
        """Every input gives *width* cells; finite bins whose range fits a
        double draw as before."""
        binned = _bin_series(np.asarray(values, dtype=float), width)
        with np.errstate(all="ignore"):
            in_range = np.isfinite(binned).all() and np.isfinite(binned.max() - binned.min())
        for draw, glyphs, flat in ((sparkline, "▁▂▃▄▅▆▇█", "▁"),
                                   (density_strip, " ░▒▓█", "█")):
            row = draw(values, width=width)
            assert len(row) == width and set(row) <= set(glyphs + "·")
            if in_range:
                assert row == _finite_row(binned, glyphs, flat)


class TestMarkerLine:
    def test_marks_scaled_interval(self):
        line = marker_line(100, [(50, 60)], width=10)
        assert line[5] == "^"
        assert line[0] == " "

    def test_multiple_intervals(self):
        line = marker_line(100, [(0, 10), (90, 100)], width=10)
        assert line[0] == "^" and line[-1] == "^"

    def test_invalid_length(self):
        with pytest.raises(ParameterError):
            marker_line(0, [], width=10)


class TestRenderPanels:
    def test_three_lines_plus_title(self):
        series = np.sin(np.arange(200) / 10)
        curve = np.ones(200)
        text = render_panels(series, curve, [(50, 80)], width=40, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(lines) == 4
        assert all(len(line) == len("series  | ") + 40 for line in lines[1:])


class TestTables:
    def test_anomaly_table_contents(self):
        anomalies = [
            Discord(start=10, end=60, score=1.5, rank=0, nn_distance=1.5),
            Anomaly(start=100, end=120, score=0.5, rank=1, source="density"),
        ]
        table = anomaly_table(anomalies)
        assert "rra" in table and "density" in table
        assert "1.50000" in table

    def test_rule_table_truncates_expansion(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        table = rule_table(detector.result.grammar, max_rules=5,
                           max_expansion_chars=20)
        lines = table.splitlines()
        assert len(lines) <= 2 + 5
        assert "R1" in table

    def test_rule_table_excludes_r0(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        table = rule_table(detector.result.grammar)
        assert "R0 " not in table


class TestGrammarReport:
    def test_report_sections(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        anomalies = detector.discords(num_discords=2).discords
        report = grammar_report(detector.result, anomalies)
        assert "Anomalies:" in report
        assert "Grammar rules" in report
        assert "W=50 P=4 A=4" in report
        assert "series  | " in report
