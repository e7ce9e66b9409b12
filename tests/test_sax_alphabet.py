"""Tests for repro.sax.alphabet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.sax.alphabet import (
    MAX_ALPHABET_SIZE,
    MIN_ALPHABET_SIZE,
    alphabet_letters,
    breakpoints,
    letter_indices,
    symbol_for_value,
    symbol_index,
    symbols_for_values,
)


@pytest.fixture
def norm():
    """SciPy's N(0,1), the reference the breakpoint table was written from."""
    return pytest.importorskip("scipy.stats").norm


class TestBreakpoints:
    def test_alpha_2_single_zero(self):
        assert breakpoints(2) == (0.0,)

    def test_alpha_4_known_values(self):
        cuts = breakpoints(4)
        assert cuts[1] == pytest.approx(0.0)
        assert cuts[0] == pytest.approx(-0.6745, abs=1e-3)
        assert cuts[2] == pytest.approx(0.6745, abs=1e-3)

    def test_count(self):
        for alpha in range(MIN_ALPHABET_SIZE, 11):
            assert len(breakpoints(alpha)) == alpha - 1

    def test_monotone(self):
        for alpha in range(MIN_ALPHABET_SIZE, 13):
            cuts = breakpoints(alpha)
            assert all(a < b for a, b in zip(cuts, cuts[1:]))

    def test_table_matches_scipy_bit_for_bit(self, norm):
        for alpha in range(MIN_ALPHABET_SIZE, MAX_ALPHABET_SIZE + 1):
            expected = norm.ppf(np.arange(1, alpha) / alpha)
            got = np.asarray(breakpoints(alpha))
            assert got.tobytes() == expected.tobytes(), alpha

    def test_equiprobable_regions(self, norm):
        """Each region holds probability 1/alpha under N(0,1)."""
        for alpha in (3, 5, 8):
            cuts = (-np.inf,) + breakpoints(alpha) + (np.inf,)
            for lo, hi in zip(cuts, cuts[1:]):
                prob = norm.cdf(hi) - norm.cdf(lo)
                assert prob == pytest.approx(1.0 / alpha, abs=1e-9)

    def test_invalid_sizes(self):
        with pytest.raises(ParameterError):
            breakpoints(1)
        with pytest.raises(ParameterError):
            breakpoints(MAX_ALPHABET_SIZE + 1)


class TestSymbolForValue:
    def test_extremes(self):
        assert symbol_for_value(-10.0, 4) == "a"
        assert symbol_for_value(10.0, 4) == "d"

    def test_zero_with_alpha_4(self):
        # 0.0 is itself a breakpoint; searchsorted(side='right') puts it
        # in the upper region, 'c'.
        assert symbol_for_value(0.0, 4) == "c"

    def test_middle_symbol_alpha_3(self):
        assert symbol_for_value(0.0, 3) == "b"

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(2, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_symbol_in_alphabet(self, value, alpha):
        symbol = symbol_for_value(value, alpha)
        assert 0 <= symbol_index(symbol) < alpha

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_property_monotone_in_value(self, alpha):
        values = np.linspace(-4, 4, 50)
        indices = [symbol_index(symbol_for_value(v, alpha)) for v in values]
        assert indices == sorted(indices)


class TestSymbolsForValues:
    def test_word(self):
        assert symbols_for_values(np.array([-2.0, 0.0, 2.0]), 3) == "abc"

    def test_matches_scalar_version(self, rng):
        values = rng.normal(size=20)
        word = symbols_for_values(values, 5)
        assert word == "".join(symbol_for_value(v, 5) for v in values)


class TestLetterIndices:
    def test_matches_scalar_symbols(self):
        values = np.array([[-2.0, -0.1, 0.0, 0.4, 2.5]])
        for alpha in (3, 5, 8):
            letters = alphabet_letters(alpha)
            idx = letter_indices(values, alpha)
            expected = [letters.index(symbol_for_value(v, alpha)) for v in values[0]]
            assert idx.tolist() == [expected]


class TestSymbolIndex:
    def test_roundtrip(self):
        for i, ch in enumerate("abcdefgh"):
            assert symbol_index(ch) == i

    def test_rejects_non_symbols(self):
        for bad in ("A", "1", "", "ab", "!"):
            with pytest.raises(ParameterError):
                symbol_index(bad)
