"""Tests for repro.discord.haar — the Haar-ordered discord baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords, haar_transform, haar_words
from repro.exceptions import DiscordSearchError, ParameterError

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)


def _series_with_blip(length=400, period=40, blip_at=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 30] += 2.0
    return series


class TestHaarTransform:
    def test_constant_input(self):
        out = haar_transform(np.full(8, 5.0))
        assert out[0] == pytest.approx(5.0)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_step_input(self):
        # [1,1,1,1,-1,-1,-1,-1]: average 0, coarsest detail 1, rest 0
        values = np.array([1.0] * 4 + [-1.0] * 4)
        out = haar_transform(values)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        np.testing.assert_allclose(out[2:], 0.0, atol=1e-12)

    def test_first_coefficient_is_mean_for_pow2(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=16)
        assert haar_transform(values)[0] == pytest.approx(values.mean())

    def test_non_power_of_two_padded(self):
        out = haar_transform(np.arange(5.0))
        assert out.size == 8

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            haar_transform(np.array([]))

    @given(arrays(np.float64, st.sampled_from([4, 8, 16, 32]), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_property_energy_reconstruction(self, values):
        """The transform is invertible: reconstruct and compare."""
        out = haar_transform(values)
        # inverse: iteratively undo the averaging/differencing
        size = out.size
        data = out.copy()
        length = 2
        while length <= size:
            half = length // 2
            evens = data[:half] + data[half:length]
            odds = data[:half] - data[half:length]
            merged = np.empty(length)
            merged[0::2] = evens
            merged[1::2] = odds
            data[:length] = merged
            length *= 2
        np.testing.assert_allclose(data[: values.size], values, atol=1e-8)


class TestHaarWords:
    def test_one_word_per_window(self):
        series = _series_with_blip()
        words = haar_words(series, 40)
        assert len(words) == series.size - 40 + 1

    def test_word_length_is_num_coefficients(self):
        series = _series_with_blip()
        words = haar_words(series, 40, num_coefficients=6)
        assert all(len(w) == 6 for w in words)

    def test_similar_windows_share_words(self):
        """Windows one period apart get the same Haar word."""
        series = _series_with_blip(length=600, blip_at=500)
        words = haar_words(series, 40)
        same = sum(1 for i in range(0, 300) if words[i] == words[i + 40])
        assert same > 150  # the majority agree across one period

    def test_invalid_coefficients(self):
        with pytest.raises(ParameterError):
            haar_words(_series_with_blip(), 40, num_coefficients=0)


class TestHaarDiscord:
    def test_finds_planted_blip(self):
        series = _series_with_blip()
        discord = haar_discords(series, 40, num_discords=1).best
        assert 160 <= discord.start <= 235

    def test_agrees_with_brute_force(self):
        """Haar ordering is a heuristic; the search stays exact."""
        for seed in range(3):
            series = _series_with_blip(seed=seed, blip_at=100 + 60 * seed)
            brute = brute_force_discords(
                series, 32, num_discords=1, early_abandon=False
            ).best
            haar = haar_discords(series, 32, num_discords=1).best
            assert (haar.start, haar.end) == (brute.start, brute.end)
            assert haar.nn_distance == pytest.approx(brute.nn_distance)

    def test_fewer_calls_than_brute_force(self):
        from repro.discord.brute_force import brute_force_call_count

        series = _series_with_blip(length=600)
        result = haar_discords(series, 40, num_discords=1)
        assert result.distance_calls < brute_force_call_count(600, 40) / 3

    def test_source_tag(self):
        series = _series_with_blip()
        discord = haar_discords(series, 40, num_discords=1).best
        assert discord.source == "haar"

    def test_multi_discords(self):
        series = _series_with_blip()
        result = haar_discords(series, 40, num_discords=2)
        assert len(result.discords) == 2
        assert abs(result.discords[0].start - result.discords[1].start) > 40

    def test_too_short(self):
        with pytest.raises(DiscordSearchError):
            haar_discords(np.zeros(5), 10, num_discords=1)

    def test_invalid_count(self):
        with pytest.raises(DiscordSearchError):
            haar_discords(np.zeros(100), 10, num_discords=0)
