"""Tests for repro.timeseries.paa."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ParameterError
from repro.timeseries.paa import paa, paa_batch, paa_segment_bounds

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


class TestPaa:
    def test_divisible(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        np.testing.assert_allclose(paa(values, 3), [1.0, 2.0, 3.0])

    def test_identity_when_w_equals_n(self):
        values = np.array([3.0, 1.0, 4.0, 1.0])
        np.testing.assert_allclose(paa(values, 4), values)

    def test_single_segment_is_mean(self):
        values = np.array([2.0, 4.0, 6.0])
        np.testing.assert_allclose(paa(values, 1), [4.0])

    def test_fractional_case_mass_preserved(self):
        # n=5, w=2: each point weighted so total mass is preserved
        values = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(paa(values, 2), [1.0, 1.0])

    def test_fractional_known_example(self):
        # n=3, w=2: segment size 1.5.  First segment = v0 + 0.5*v1;
        # second = 0.5*v1 + v2 (each divided by 1.5).
        values = np.array([0.0, 3.0, 6.0])
        expected = [(0.0 + 1.5) / 1.5, (1.5 + 6.0) / 1.5]
        np.testing.assert_allclose(paa(values, 2), expected)

    def test_w_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            paa(np.arange(3.0), 4)

    def test_w_zero_rejected(self):
        with pytest.raises(ParameterError):
            paa(np.arange(3.0), 0)

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            paa(np.zeros((2, 2)), 1)

    @given(
        arrays(np.float64, st.integers(4, 48), elements=finite),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_mean_preserved(self, values, w):
        """The weighted mean of PAA segments equals the input mean."""
        if w > values.size:
            return
        means = paa(values, w)
        assert abs(float(means.mean()) - float(values.mean())) < 1e-8 * max(
            1.0, np.abs(values).max()
        )

    @given(
        arrays(np.float64, st.integers(4, 48), elements=finite),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bounded_by_extremes(self, values, w):
        if w > values.size:
            return
        means = paa(values, w)
        assert means.min() >= values.min() - 1e-9
        assert means.max() <= values.max() + 1e-9

    def test_constant_input(self):
        np.testing.assert_allclose(paa(np.full(7, 2.5), 3), np.full(3, 2.5))


class TestPaaBatch:
    def test_matches_per_row_paa(self, rng):
        matrix = rng.normal(size=(10, 12))
        batch = paa_batch(matrix, 4)
        for i in range(10):
            np.testing.assert_allclose(batch[i], paa(matrix[i], 4), atol=1e-12)

    def test_matches_per_row_paa_fractional(self, rng):
        matrix = rng.normal(size=(10, 13))
        batch = paa_batch(matrix, 5)
        for i in range(10):
            np.testing.assert_allclose(batch[i], paa(matrix[i], 5), atol=1e-9)

    def test_identity(self, rng):
        matrix = rng.normal(size=(3, 6))
        np.testing.assert_allclose(paa_batch(matrix, 6), matrix)

    @pytest.mark.parametrize("n, w", [(12, 4), (13, 5), (122, 11), (300, 7)])
    def test_rows_are_bit_identical_at_any_batch_size(self, rng, n, w):
        """A row's PAA depends on that row alone: alone, in a subset, or
        in the full batch it rounds the same (a GEMM would not)."""
        matrix = rng.normal(size=(600, n)) * 1e3
        full = paa_batch(matrix, w)
        rows = rng.choice(600, size=9, replace=False)
        np.testing.assert_array_equal(paa_batch(matrix[rows], w), full[rows])
        for i in rows[:3]:
            np.testing.assert_array_equal(paa(matrix[i], w), full[i])

    def test_rejects_1d(self):
        with pytest.raises(ParameterError):
            paa_batch(np.arange(6.0), 2)

    def test_rejects_w_too_large(self):
        with pytest.raises(ParameterError):
            paa_batch(np.zeros((2, 4)), 5)


class TestSegmentBounds:
    def test_divisible(self):
        bounds = paa_segment_bounds(6, 3)
        assert bounds == [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]

    def test_fractional(self):
        bounds = paa_segment_bounds(3, 2)
        assert bounds == [(0.0, 1.5), (1.5, 3.0)]

    def test_covers_whole_range(self):
        bounds = paa_segment_bounds(17, 5)
        assert bounds[0][0] == 0.0
        assert abs(bounds[-1][1] - 17.0) < 1e-12
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert abs(hi - lo) < 1e-12

    def test_invalid(self):
        with pytest.raises(ParameterError):
            paa_segment_bounds(4, 0)
        with pytest.raises(ParameterError):
            paa_segment_bounds(0, 2)
        with pytest.raises(ParameterError):
            paa_segment_bounds(3, 4)
