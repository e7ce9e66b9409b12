"""Tests for repro.discord (brute force + HOTSAX) and their agreement.

The critical contract: HOTSAX is *exact* — it must return the same
discord as brute force, only with fewer distance calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.discord.brute_force import brute_force_call_count, brute_force_discords
from repro.discord import haar
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import DiscordSearchError
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.windows import num_windows


def _series_with_blip(length=400, period=40, blip_at=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 30] += 2.0
    return series


class TestBruteForceCallCount:
    def test_small_exact(self):
        # m=10, n=3 -> k=8; enumerate by hand
        m, n = 10, 3
        k = num_windows(m, n)
        expected = sum(
            1 for p in range(k) for q in range(k) if abs(p - q) > n
        )
        assert brute_force_call_count(m, n) == expected

    def test_zero_when_too_short(self):
        assert brute_force_call_count(10, 10) == 0

    def test_paper_scale_magnitude(self):
        """Sanity: ECG300-scale count lands in the paper's ballpark."""
        count = brute_force_call_count(536_976, 300)
        assert 2.5e11 < count < 3.5e11  # paper reports 288 x 10^9

    def test_matches_actual_run(self):
        series = _series_with_blip(length=120)
        counter = DistanceCounter()
        brute_force_discords(
            series, 20, num_discords=1, counter=counter, early_abandon=False
        )
        assert counter.calls == brute_force_call_count(120, 20)

    @staticmethod
    def _loop_reference(series_length: int, window: int) -> int:
        """The original O(k) summation the closed form replaced."""
        k = num_windows(series_length, window)
        total = 0
        for p in range(k):
            left = max(0, p - window)
            right = max(0, k - p - window - 1)
            total += left + right
        return total

    def test_closed_form_matches_loop_sweep(self):
        """Pin the closed form against the loop over a sweep of (m, n)."""
        for m in (1, 2, 5, 10, 33, 100, 257, 1000):
            for n in (1, 2, 3, 7, 20, 99, 100, 150):
                assert brute_force_call_count(m, n) == self._loop_reference(
                    m, n
                ), f"mismatch at m={m}, n={n}"


class TestBruteForceDiscord:
    def test_finds_planted_blip(self):
        series = _series_with_blip()
        discord = brute_force_discords(
            series, 40, num_discords=1, early_abandon=False
        ).best
        assert 160 <= discord.start <= 235

    def test_early_abandon_same_answer_fewer_calls(self):
        series = _series_with_blip()
        plain = brute_force_discords(series, 40, num_discords=1, early_abandon=False)
        fast = brute_force_discords(series, 40, num_discords=1, early_abandon=True)
        assert (plain.best.start, plain.best.end) == (fast.best.start, fast.best.end)
        assert plain.best.nn_distance == pytest.approx(fast.best.nn_distance)
        assert fast.distance_calls <= plain.distance_calls

    def test_too_short_series(self):
        with pytest.raises(DiscordSearchError):
            brute_force_discords(np.zeros(10), 10, num_discords=1, early_abandon=False)

    def test_multi_discords_distinct(self):
        series = _series_with_blip()
        discords = brute_force_discords(series, 40, num_discords=2, early_abandon=True)
        assert len(discords) == 2
        assert abs(discords[0].start - discords[1].start) > 40

    def test_fixed_length_output(self):
        series = _series_with_blip()
        discord = brute_force_discords(
            series, 40, num_discords=1, early_abandon=False
        ).best
        assert discord.length == 40
        assert discord.source == "brute_force"


class TestHotsax:
    def test_finds_planted_blip(self):
        series = _series_with_blip()
        discord = hotsax_discords(series, 40, num_discords=1).best
        assert 160 <= discord.start <= 235

    def test_agrees_with_brute_force(self):
        """HOTSAX is exact: same discord location and distance."""
        for seed in range(4):
            series = _series_with_blip(seed=seed, blip_at=80 + 40 * seed)
            brute = brute_force_discords(
                series, 32, num_discords=1, early_abandon=False
            ).best
            hot = hotsax_discords(series, 32, num_discords=1).best
            assert (hot.start, hot.end) == (brute.start, brute.end), f"seed {seed}"
            assert hot.nn_distance == pytest.approx(brute.nn_distance)

    def test_fewer_calls_than_brute_force(self):
        series = _series_with_blip(length=600)
        hot = hotsax_discords(series, 40, num_discords=1)
        full = brute_force_call_count(600, 40)
        assert hot.distance_calls < full / 3

    def test_multi_discords(self):
        series = _series_with_blip()
        result = hotsax_discords(series, 40, num_discords=2)
        assert len(result.discords) == 2
        assert result.distance_calls > 0
        assert abs(result.discords[0].start - result.discords[1].start) > 40

    def test_ranked_scores_non_increasing(self):
        series = _series_with_blip()
        result = hotsax_discords(series, 40, num_discords=3)
        scores = [d.nn_distance for d in result.discords]
        assert scores == sorted(scores, reverse=True)

    def test_too_short_series(self):
        with pytest.raises(DiscordSearchError):
            hotsax_discords(np.zeros(5), 10, num_discords=1)

    def test_invalid_num_discords(self):
        with pytest.raises(DiscordSearchError):
            hotsax_discords(np.zeros(100), 10, num_discords=0)

    def test_deterministic_given_seed(self):
        series = _series_with_blip()
        a = hotsax_discords(series, 40, num_discords=1, rng=np.random.default_rng(5))
        b = hotsax_discords(series, 40, num_discords=1, rng=np.random.default_rng(5))
        assert (a.best.start, a.best.nn_distance) == (b.best.start, b.best.nn_distance)
        assert a.distance_calls == b.distance_calls

    def test_sax_parameters_change_calls_not_result(self):
        series = _series_with_blip()
        d1 = hotsax_discords(series, 40, num_discords=1, paa_size=3, alphabet_size=3).best
        d2 = hotsax_discords(series, 40, num_discords=1, paa_size=6, alphabet_size=5).best
        assert (d1.start, d1.end) == (d2.start, d2.end)
        assert d1.nn_distance == pytest.approx(d2.nn_distance)


@pytest.mark.parametrize("search", [hotsax_discords, haar_discords])
def test_engines_normalize_once(monkeypatch, search):
    """``hotsax_discords`` / ``haar_discords`` z-normalize the window
    matrix once, for the bucketing and the search together."""
    series = _series_with_blip()
    calls = []

    def counting(znorm):
        def wrapper(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return znorm(matrix, *args, **kwargs)
        return wrapper

    for module in (kernels, haar):
        monkeypatch.setattr(module, "znorm_rows", counting(module.znorm_rows))
    result = search(series, 40, num_discords=1, rng=np.random.default_rng(3))
    assert result.best is not None
    assert len(calls) == 1
