"""Tests for repro.streaming — the online detection subsystem."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError, DataQualityError, ParameterError
from repro.grammar.sequitur import induce_grammar
from repro.sax.discretize import NumerosityReduction, discretize
from repro.streaming import (
    IncrementalSequitur,
    OnlineDiscretizer,
    StreamingAnomalyDetector,
)
from repro.streaming.window_stats import RollingStats


def _bump_series(length=2000, period=100, at=1000, width=100, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.03, length)
    series[at : at + width] += 2.0
    return series


class TestRollingStats:
    def test_mean_and_std_match_numpy(self, rng):
        stats = RollingStats(window=16)
        values = rng.normal(5.0, 2.0, 100)
        for i, value in enumerate(values):
            stats.push(value)
            tail = values[max(0, i - 15) : i + 1]
            assert stats.mean == pytest.approx(tail.mean(), abs=1e-9)
            assert stats.std == pytest.approx(tail.std(), abs=1e-9)

    def test_full_flag(self):
        stats = RollingStats(window=3)
        for i, expect_full in [(1, False), (2, False), (3, True), (4, True)]:
            stats.push(float(i))
            assert stats.full is expect_full

    def test_values_order(self):
        stats = RollingStats(window=3)
        for value in [1.0, 2.0, 3.0, 4.0]:
            stats.push(value)
        np.testing.assert_array_equal(stats.values(), [2.0, 3.0, 4.0])

    def test_rejects_nan(self):
        stats = RollingStats(window=4)
        with pytest.raises(ParameterError):
            stats.push(float("nan"))

    def test_empty_queries_rejected(self):
        stats = RollingStats(window=4)
        with pytest.raises(ParameterError):
            _ = stats.mean

    def test_invalid_window(self):
        with pytest.raises(ParameterError):
            RollingStats(window=0)

    def test_drift_resync(self, rng):
        """After many updates the running sums stay numerically exact."""
        stats = RollingStats(window=8)
        values = rng.normal(1e6, 1.0, 10_000)  # large offset stresses drift
        for value in values:
            stats.push(value)
        tail = values[-8:]
        assert stats.mean == pytest.approx(tail.mean(), rel=1e-12)
        assert stats.std == pytest.approx(tail.std(), rel=1e-6)


class TestOnlineDiscretizer:
    @pytest.mark.parametrize(
        "strategy",
        [NumerosityReduction.NONE, NumerosityReduction.EXACT,
         NumerosityReduction.MINDIST],
    )
    def test_matches_offline_discretize(self, strategy):
        """The streaming pipeline emits exactly the offline token stream."""
        series = _bump_series()
        offline = discretize(series, 50, 4, 4, strategy=strategy)
        online = OnlineDiscretizer(50, 4, 4, strategy=strategy)
        emitted = [w for w in (online.push(v) for v in series) if w is not None]
        assert [(w.word, w.offset) for w in offline.words] == [
            (w.word, w.offset) for w in emitted
        ]

    def test_nothing_before_window_fills(self):
        online = OnlineDiscretizer(10, 2, 3)
        for i in range(9):
            assert online.push(float(i)) is None
        assert online.push(9.0) is not None

    def test_counters(self):
        series = _bump_series(length=500)
        online = OnlineDiscretizer(50, 4, 4)
        for value in series:
            online.push(value)
        assert online.raw_word_count == 500 - 50 + 1
        assert 0 < online.emitted_count <= online.raw_word_count
        assert online.position == 500

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            OnlineDiscretizer(1, 1, 3)
        with pytest.raises(ParameterError):
            OnlineDiscretizer(10, 20, 3)

    @pytest.mark.parametrize("paa_size", [0, -1, 11])
    def test_paa_size_is_checked_at_construction(self, paa_size):
        """A PAA size outside ``[1, window]`` fails when the discretizer is
        built, with ``discretize``'s message, not on the first full
        window."""
        with pytest.raises(ParameterError) as online:
            OnlineDiscretizer(10, paa_size, 3)
        with pytest.raises(ParameterError) as offline:
            discretize(np.arange(20.0), 10, paa_size, 3)
        assert str(online.value) == str(offline.value)

    @given(
        st.integers(0, 10_000),
        st.integers(8, 40),
        st.integers(2, 6),
        st.integers(3, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_online_equals_offline(self, seed, window, paa, alpha):
        """For arbitrary noisy periodic series and parameters, the
        streaming discretizer's token stream is byte-identical to the
        offline one."""
        if paa > window:
            return
        rng = np.random.default_rng(seed)
        t = np.arange(300)
        series = (
            np.sin(2 * np.pi * t / (window + 7))
            + rng.normal(0, 0.2, 300)
        )
        offline = discretize(series, window, paa, alpha)
        online = OnlineDiscretizer(window, paa, alpha)
        emitted = [w for w in (online.push(v) for v in series) if w is not None]
        assert [(w.word, w.offset) for w in offline.words] == [
            (w.word, w.offset) for w in emitted
        ]


class TestIncrementalSequitur:
    def test_snapshot_matches_offline(self):
        tokens = "ab cd ab cd ef ab cd".split()
        inc = IncrementalSequitur()
        inc.push_many(tokens)
        online = inc.snapshot()
        offline = induce_grammar(tokens)
        assert online.start_rule.expansion == offline.start_rule.expansion
        assert online.grammar_size() == offline.grammar_size()

    def test_snapshot_is_non_destructive(self):
        inc = IncrementalSequitur()
        inc.push_many(list("abab"))
        first = inc.snapshot()
        inc.push_many(list("abab"))
        second = inc.snapshot()
        first.verify()
        second.verify()
        assert second.start_rule.expansion == list("abababab")

    def test_uncovered_token_runs_match_snapshot(self):
        tokens = "ab ab xx yy ab ab".split()
        inc = IncrementalSequitur()
        inc.push_many(tokens)
        runs = inc.uncovered_token_runs()
        grammar = inc.snapshot()
        # recompute runs from the frozen start rule
        expected = []
        pos = 0
        run = None
        for item in grammar.start_rule.rhs:
            if isinstance(item, int):
                if run is not None:
                    expected.append((run, pos - 1))
                    run = None
                pos += grammar.rules[item].expansion_length
            else:
                if run is None:
                    run = pos
                pos += 1
        if run is not None:
            expected.append((run, pos - 1))
        assert runs == expected
        # and the anomalous tokens are inside some run
        assert any(first <= 2 <= last for first, last in runs)
        assert any(first <= 3 <= last for first, last in runs)

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_property_incremental_equals_offline(self, tokens):
        inc = IncrementalSequitur()
        inc.push_many(tokens)
        snapshot = inc.snapshot()
        snapshot.verify()
        assert snapshot.start_rule.expansion == tokens

    def test_counts(self):
        inc = IncrementalSequitur()
        inc.push_many(list("abab"))
        assert inc.token_count == 4
        assert inc.rule_count >= 2  # R0 + the ab rule
        assert inc.tokens() == list("abab")


class TestStreamingAnomalyDetector:
    def test_detects_planted_bump(self):
        series = _bump_series()
        detector = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        alarms = detector.push_many(series) + detector.flush()
        assert any(a.start < 1150 and 950 < a.end for a in alarms), (
            f"no alarm near the bump: {[(a.start, a.end) for a in alarms]}"
        )

    def test_no_alarms_on_clean_periodic_data(self):
        t = np.arange(3000)
        series = np.sin(2 * np.pi * t / 100)
        detector = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        alarms = detector.push_many(series)
        assert alarms == [], f"false alarms: {[(a.start, a.end) for a in alarms]}"

    def test_alarm_fires_before_stream_end(self):
        """Early detection: the alarm fires long before the data ends."""
        series = _bump_series(length=4000, at=1000)
        detector = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        alarms = detector.push_many(series)
        hits = [a for a in alarms if a.start < 1150 and 950 < a.end]
        assert hits
        assert hits[0].detected_at < 2000  # well before the stream ends
        assert hits[0].delay < 900

    def test_no_duplicate_alarms(self):
        series = _bump_series()
        detector = StreamingAnomalyDetector(50, 4, 4)
        alarms = detector.push_many(series) + detector.flush()
        spans = [(a.first_token, a.last_token) for a in alarms]
        assert len(set(spans)) == len(spans)
        # and no two alarms overlap in token space
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                a, b = spans[i], spans[j]
                assert a[1] < b[0] or b[1] < a[0]

    def test_matches_offline_gap_semantics(self):
        """flush() reports exactly the offline uncovered token runs
        (of sufficient length)."""
        series = _bump_series()
        detector = StreamingAnomalyDetector(
            50, 4, 4, confirmation_tokens=10_000  # never mature in-stream
        )
        in_stream = detector.push_many(series)
        assert in_stream == []
        final = detector.flush()
        grammar = detector.grammar_snapshot()
        offline_runs = []
        pos = 0
        run = None
        for item in grammar.start_rule.rhs:
            if isinstance(item, int):
                if run is not None:
                    offline_runs.append((run, pos - 1))
                    run = None
                pos += grammar.rules[item].expansion_length
            else:
                if run is None:
                    run = pos
                pos += 1
        if run is not None:
            offline_runs.append((run, pos - 1))
        expected = [(f, l) for f, l in offline_runs if l - f + 1 >= 2]
        assert [(a.first_token, a.last_token) for a in final] == expected

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=0)
        with pytest.raises(ParameterError):
            StreamingAnomalyDetector(50, 4, 4, check_every=0)
        with pytest.raises(ParameterError):
            StreamingAnomalyDetector(50, 4, 4, min_run_tokens=0)

    def test_counters(self):
        series = _bump_series(length=600)
        detector = StreamingAnomalyDetector(50, 4, 4)
        detector.push_many(series)
        assert detector.points_consumed == 600
        assert detector.tokens_emitted > 0


class TestSnapshotRestore:
    def test_snapshot_restore_continues_identically(self):
        """Snapshot mid-stream, restore, and finish: same alarms, same
        counters as an uninterrupted run."""
        series = _bump_series()
        reference = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        ref_alarms = reference.push_many(series)

        first = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        head = first.push_many(series[:1100])
        snapshot = json.loads(json.dumps(first.snapshot()))  # JSON round-trip
        second = StreamingAnomalyDetector.restore(snapshot)
        tail = second.push_many(series[1100:])

        assert [
            (a.start, a.end, a.first_token, a.last_token, a.detected_at)
            for a in head + tail
        ] == [
            (a.start, a.end, a.first_token, a.last_token, a.detected_at)
            for a in ref_alarms
        ]
        assert second.points_consumed == reference.points_consumed
        assert second.tokens_emitted == reference.tokens_emitted
        assert [
            (a.first_token, a.last_token) for a in second.flush()
        ] == [(a.first_token, a.last_token) for a in reference.flush()]

    def test_snapshot_preserves_reported_set(self):
        """Alarms already reported before the snapshot are not re-raised
        by the restored detector."""
        series = _bump_series()
        detector = StreamingAnomalyDetector(50, 4, 4, confirmation_tokens=20)
        alarms = detector.push_many(series)
        assert alarms  # the bump fired before end of stream
        restored = StreamingAnomalyDetector.restore(detector.snapshot())
        # replaying a quiet continuation produces no duplicate alarm
        quiet = np.sin(2 * np.pi * np.arange(2000, 2500) / 100)
        assert restored.push_many(quiet) == []

    def test_restore_rejects_wrong_format(self):
        with pytest.raises(CheckpointError):
            StreamingAnomalyDetector.restore({"format": "something-else"})

    def test_restore_rejects_malformed_document(self):
        detector = StreamingAnomalyDetector(50, 4, 4)
        snapshot = detector.snapshot()
        del snapshot["discretizer"]
        with pytest.raises(CheckpointError):
            StreamingAnomalyDetector.restore(snapshot)

    def test_discretizer_state_roundtrip_is_exact(self):
        source = OnlineDiscretizer(window=8, paa_size=4, alphabet_size=4)
        values = _bump_series(length=500)
        for value in values[:300]:
            source.push(value)
        clone = OnlineDiscretizer(window=8, paa_size=4, alphabet_size=4)
        clone.load_state(json.loads(json.dumps(source.state_dict())))
        for value in values[300:]:
            assert source.push(value) == clone.push(value)

    def test_discretizer_state_param_mismatch(self):
        source = OnlineDiscretizer(window=8, paa_size=4, alphabet_size=4)
        other = OnlineDiscretizer(window=16, paa_size=4, alphabet_size=4)
        with pytest.raises(CheckpointError):
            other.load_state(source.state_dict())


class TestNonfinitePolicy:
    def test_default_raises(self):
        detector = StreamingAnomalyDetector(20, 4, 4)
        with pytest.raises(DataQualityError, match="nonfinite_policy"):
            detector.push(float("inf"))

    def test_skip_policy_drops_and_counts(self):
        series = _bump_series(length=800)
        dirty = series.copy()
        dirty[100] = np.nan
        dirty[300] = np.inf
        dirty[301] = -np.inf
        clean_detector = StreamingAnomalyDetector(
            50, 4, 4, confirmation_tokens=20
        )
        skip_detector = StreamingAnomalyDetector(
            50, 4, 4, confirmation_tokens=20, nonfinite_policy="skip"
        )
        clean_reference = np.delete(series, [100, 300, 301])
        clean_alarms = clean_detector.push_many(clean_reference)
        dirty_alarms = skip_detector.push_many(dirty)
        assert skip_detector.dropped_points == 3
        # a skipped point is as if it never arrived: identical to feeding
        # the compacted series
        assert [(a.first_token, a.last_token) for a in dirty_alarms] == [
            (a.first_token, a.last_token) for a in clean_alarms
        ]
        assert skip_detector.points_consumed == clean_detector.points_consumed

    def test_invalid_policy_rejected(self):
        with pytest.raises(ParameterError):
            StreamingAnomalyDetector(20, 4, 4, nonfinite_policy="quietly")
