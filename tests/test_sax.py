"""Tests for repro.sax.sax (single-word transform + MINDIST)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ParameterError
from repro.sax.sax import mindist, sax_word, symbol_distance_matrix
from repro.timeseries.znorm import znorm
from tests.oracles import euclidean

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


class TestSaxWord:
    def test_ramp(self):
        values = np.linspace(0.0, 1.0, 16)
        word = sax_word(values, 4, 4)
        # strictly increasing ramp -> strictly non-decreasing letters
        assert list(word) == sorted(word)
        assert word[0] == "a" and word[-1] == "d"

    def test_length(self):
        values = np.sin(np.linspace(0, 6, 50))
        assert len(sax_word(values, 7, 5)) == 7

    def test_flat_input_maps_to_middle(self):
        word = sax_word(np.full(20, 3.0), 4, 4)
        # mean-centered flat -> zeros -> upper-middle region 'c' for alpha=4
        assert word == "cccc"

    def test_no_normalize_flag(self):
        values = np.array([10.0, 10.0, 10.0, 10.0])
        assert sax_word(values, 2, 3, normalize=False) == "cc"

    def test_time_reversal_reverses_word(self):
        """Reversing the input reverses the word (PAA means reorder)."""
        values = np.linspace(-1, 1, 24)
        up = sax_word(values, 6, 4)
        down = sax_word(values[::-1].copy(), 6, 4)
        assert down == up[::-1]


class TestSymbolDistanceMatrix:
    def test_adjacent_cells_zero(self):
        table = symbol_distance_matrix(5)
        for i in range(5):
            assert table[i, i] == 0.0
            if i + 1 < 5:
                assert table[i, i + 1] == 0.0

    def test_symmetry(self):
        table = symbol_distance_matrix(6)
        np.testing.assert_allclose(table, table.T)

    def test_known_value_alpha_4(self):
        # dist(a, c) = cut[1] - cut[0] = 0 - (-0.6745)
        table = symbol_distance_matrix(4)
        assert table[0, 2] == pytest.approx(0.6745, abs=1e-3)


class TestMindist:
    def test_identical_words_zero(self):
        assert mindist("abca", "abca", 4, 32) == 0.0

    def test_adjacent_letters_zero(self):
        # a vs b are adjacent regions -> MINDIST 0 (cannot be separated)
        assert mindist("aaaa", "bbbb", 4, 32) == 0.0

    def test_distant_letters_positive(self):
        assert mindist("aaaa", "dddd", 4, 32) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            mindist("ab", "abc", 3, 16)

    def test_empty_words(self):
        with pytest.raises(ParameterError):
            mindist("", "", 3, 16)

    def test_scales_with_n(self):
        d16 = mindist("ad", "da", 4, 16)
        d64 = mindist("ad", "da", 4, 64)
        assert d64 == pytest.approx(2.0 * d16)

    @given(
        arrays(np.float64, st.just(32), elements=finite),
        arrays(np.float64, st.just(32), elements=finite),
        st.integers(3, 8),
        st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_lower_bounds_euclidean(self, a, b, alpha, w):
        """The fundamental SAX guarantee: MINDIST(A, B) <= D(a, b)."""
        za, zb = znorm(a), znorm(b)
        word_a = sax_word(a, w, alpha)
        word_b = sax_word(b, w, alpha)
        lower = mindist(word_a, word_b, alpha, 32)
        actual = euclidean(za, zb)
        assert lower <= actual + 1e-6
