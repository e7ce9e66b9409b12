"""Tests for repro.discord.search — the shared ordered-search engine."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.anomaly import Discord
from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.datasets.synthetic import sine_with_anomaly
from repro.discord.brute_force import _brute_force_rank, brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.discord.search import (
    DiscordSearchResult,
    SearchSession,
    bucket_rank,
    fixed_length_discords,
    iterated_search,
)
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.resilience.budget import SearchBudget
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.kernels import WindowMatrix


def _series(length=300, period=30, blip_at=150, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 20] += 2.0
    return series


def _single_bucket(series, window):
    """Degenerate bucketing: every window in one bucket."""
    k = series.size - window + 1
    return ["x"] * k


def _unique_buckets(series, window):
    """Degenerate bucketing: every window alone."""
    k = series.size - window + 1
    return [str(i) for i in range(k)]


def _bucket_search(series, window, bucket_fn, *, num_discords=1, source="t", counter=None):
    """Top-k bucket-ordered search through the shared rank loop, one
    bucket key per window from *bucket_fn(series, window)*."""
    return fixed_length_discords(
        source, series, window,
        lambda windows: partial(
            bucket_rank, windows, bucket_fn(windows.series, window),
            source=source, rng=np.random.default_rng(0),
        ),
        params={}, num_discords=num_discords, counter=counter,
    )


def _brute_force(series, window):
    return brute_force_discords(series, window, num_discords=1, early_abandon=False).best


class TestOrderedDiscordSearch:
    @pytest.mark.parametrize("bucket_fn", [_single_bucket, _unique_buckets])
    def test_exact_regardless_of_bucketing(self, bucket_fn):
        """Any bucketing yields the brute-force discord (exactness)."""
        series = _series()
        brute = _brute_force(series, 30)
        found = _bucket_search(series, 30, bucket_fn).best
        assert (found.start, found.end) == (brute.start, brute.end)
        assert found.nn_distance == pytest.approx(brute.nn_distance)

    def test_too_short_series(self):
        with pytest.raises(DiscordSearchError):
            _bucket_search(np.zeros(5), 10, _single_bucket)

    def test_exclusion(self):
        """The second rank's window overlaps no window of the first."""
        first, second = _bucket_search(_series(), 30, _single_bucket, num_discords=2)
        assert abs(second.start - first.start) > 29

    def test_counter_shared(self):
        series = _series()
        counter = DistanceCounter()
        _bucket_search(series, 30, _single_bucket, counter=counter)
        first = counter.calls
        _bucket_search(series, 30, _single_bucket, counter=counter)
        assert counter.calls == 2 * first > 0

    def test_source_tag_propagates(self):
        found = _bucket_search(_series(), 30, _single_bucket, source="custom").best
        assert found.source == "custom"


class TestWindowMatrixSource:
    """A rank reads its series and window from one window matrix; the
    entry points build that matrix themselves."""

    @staticmethod
    def _series():
        return sine_with_anomaly(length=1200, period=100, seed=7).series

    @pytest.mark.parametrize(
        "search",
        [
            lambda s, w, **kw: hotsax_discords(s, w, num_discords=1, **kw),
            lambda s, w, **kw: brute_force_discords(
                s, w, num_discords=1, early_abandon=True, **kw
            ),
        ],
        ids=["ordered", "brute_force"],
    )
    def test_single_rank_functions_take_no_matrix(self, search):
        """A matrix over another window or series cannot reach a
        single-rank search (``num_discords=1``) over (series, window):
        the bucket-ordered rank once answered 575 given one, and brute
        force raised IndexError, instead of 559."""
        series = self._series()
        found = search(series, 100).best
        assert (found.start, round(found.score, 2)) == (559, 12.33)
        for other in (WindowMatrix(series, 80), WindowMatrix(series[::-1], 100)):
            with pytest.raises(TypeError, match="windows"):
                search(series, 100, windows=other)

    @pytest.mark.parametrize("window", [80, 100])
    def test_rank_functions_search_their_matrix(self, window):
        series = self._series()
        windows = WindowMatrix(series, window)
        want = _brute_force(series, window)
        session = dict(
            counter=DistanceCounter(), budget=SearchBudget.unlimited(),
            metrics=NULL_METRICS,
        )
        ordered = bucket_rank(
            windows, _single_bucket(series, window), (), source="brute_force",
            rng=np.random.default_rng(0), **session,
        )
        brute = _brute_force_rank(windows, (), early_abandon=False, **session)
        assert ordered == brute == want


def _iterated(series, window, num_discords):
    """Top-k single-bucket search through the shared rank loop."""
    counter = DistanceCounter()
    result = _bucket_search(
        series, window, _single_bucket, num_discords=num_discords, counter=counter
    )
    return result.discords, counter, result.rank_complete


class TestIteratedSearch:
    def test_ranked_output(self):
        discords, counter, rank_complete = _iterated(_series(), 30, 3)
        assert [d.rank for d in discords] == list(range(len(discords)))
        assert counter.calls > 0
        assert rank_complete == [True] * len(discords)

    def test_invalid_count(self):
        with pytest.raises(DiscordSearchError):
            SearchSession("t", num_discords=0)

    def test_stops_when_exhausted(self):
        # a tiny series supports only a couple of non-overlapping discords
        series = _series(length=100, period=20, blip_at=50)
        discords, _, _ = _iterated(series, 25, 10)
        assert 1 <= len(discords) < 10

    def test_seeded_ranks_and_hook_order(self):
        """*found* seeds the ranking and its spans are excluded; each
        rank's *after_rank* call follows its ``search.rank_complete``
        event."""
        metrics = MetricsRegistry()
        session = SearchSession("t", num_discords=3, metrics=metrics)
        seed = Discord(start=10, end=20, score=3.0, rank=0, nn_distance=3.0,
                       rule_id=7, source="t")
        spans_seen, hook_calls = [], []

        def search(spans):
            spans_seen.append(spans)
            start = 100 * len(spans_seen)
            return Discord(start=start, end=start + 5, score=1.0, rank=-1,
                           nn_distance=1.0, rule_id=7, source="t")

        def after_rank(found, exact):
            hook_calls.append((found.rank, exact, metrics.events[-1]["name"]))

        result = iterated_search(session, search, found=[seed], after_rank=after_rank)
        assert [(d.start, d.rank, d.rule_id) for d in result] == [
            (10, 0, 7), (100, 1, 7), (200, 2, 7)
        ]
        assert spans_seen == [((10, 20),), ((10, 20), (100, 105))]
        assert hook_calls == [
            (1, True, "search.rank_complete"), (2, True, "search.rank_complete")
        ]
        assert result.rank_complete == [True, True, True]


def _rra_candidates(series):
    return GrammarAnomalyDetector(30, 4, 4).fit(series).candidates


_TOP_K_ENGINES = {
    "rra": lambda series, k: find_discords(
        series, _rra_candidates(series), num_discords=k
    ),
    "hotsax": lambda series, k: hotsax_discords(series, 30, num_discords=k),
    "haar": lambda series, k: haar_discords(series, 30, num_discords=k),
    "brute_force": lambda series, k: brute_force_discords(
        series, 30, num_discords=k
    ),
}


@pytest.mark.parametrize("engine", sorted(_TOP_K_ENGINES))
def test_zero_discords_rejected(engine):
    """Asking any engine for no discords is an error, never an empty
    COMPLETE result."""
    with pytest.raises(DiscordSearchError, match="num_discords"):
        _TOP_K_ENGINES[engine](_series(), 0)


@pytest.mark.parametrize("engine", sorted(_TOP_K_ENGINES))
def test_one_result_contract(engine):
    """Every engine returns the one result type: a sequence of its
    discords, ranked 0..n-1, no two of them overlapping."""
    result = _TOP_K_ENGINES[engine](_series(), 3)
    assert result.discords
    assert list(result) == result.discords
    assert len(result) == len(result.discords)
    assert result[0] is result.discords[0]
    assert isinstance(result, DiscordSearchResult)
    assert [d.rank for d in result] == list(range(len(result)))
    spans = sorted((d.start, d.end) for d in result)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
