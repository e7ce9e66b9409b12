"""Tests for repro.grammar.intervals (rule -> series interval mapping)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GrammarAnomalyDetector
from repro.grammar.grammar import Grammar, _FrozenRuleMap
from repro.grammar.intervals import (
    RuleInterval,
    RuleIntervalList,
    rule_intervals,
    uncovered_intervals,
    zero_coverage_gaps,
)
from repro.grammar.repair import repair_grammar
from repro.grammar.sequitur import (
    induce_grammar,
    induce_grammar_interned,
    intern_tokens,
)
from repro.sax.discretize import Discretization, NumerosityReduction, discretize
from tests.oracles import rule_intervals_oracle, uncovered_intervals_oracle
from tests.test_grammar_fastpath import ENGINES, forced_engine


def _pipeline(series, window=40, paa=4, alpha=4):
    disc = discretize(np.asarray(series, dtype=float), window, paa, alpha)
    grammar = induce_grammar(disc.tokens())
    return disc, grammar


def _periodic_with_blip(length=800, period=50, blip_at=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 60] += 2.5
    return series


class TestRuleInterval:
    def test_length(self):
        assert RuleInterval(1, 10, 25, usage=2).length == 15

    def test_overlaps(self):
        a = RuleInterval(1, 0, 10, usage=1)
        assert a.overlaps(RuleInterval(2, 5, 15, usage=1))
        assert not a.overlaps(RuleInterval(2, 10, 20, usage=1))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            RuleInterval(1, 5, 5, usage=0)
        with pytest.raises(ValueError):
            RuleInterval(1, -1, 5, usage=0)


class TestRuleIntervals:
    def test_every_occurrence_produces_interval(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        intervals = rule_intervals(grammar, disc)
        expected = sum(r.usage for r in grammar.non_start_rules())
        assert len(intervals) == expected

    def test_start_rule_excluded_by_default(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        intervals = rule_intervals(grammar, disc)
        assert all(iv.rule_id != 0 for iv in intervals)

    def test_start_rule_included_on_request(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        intervals = rule_intervals(grammar, disc, include_start_rule=True)
        r0 = [iv for iv in intervals if iv.rule_id == 0]
        assert len(r0) == 1
        assert r0[0].start == 0
        assert r0[0].end == disc.series_length

    def test_intervals_inside_series(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        for iv in rule_intervals(grammar, disc):
            assert 0 <= iv.start < iv.end <= disc.series_length

    def test_interval_at_least_window_long(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        # each interval covers at least its last token's full window
        # (unless clipped by the series end)
        for iv in rule_intervals(grammar, disc):
            assert iv.length >= min(disc.window, disc.series_length - iv.start)

    def test_sorted_by_position(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        intervals = rule_intervals(grammar, disc)
        keys = [(iv.start, iv.end, iv.rule_id) for iv in intervals]
        assert keys == sorted(keys)

    def test_usage_matches_rule(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        for iv in rule_intervals(grammar, disc):
            assert iv.usage == grammar.rules[iv.rule_id].usage

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_property_intervals_well_formed(self, seed):
        series = _periodic_with_blip(seed=seed)
        disc, grammar = _pipeline(series)
        for iv in rule_intervals(grammar, disc):
            assert 0 <= iv.start < iv.end <= series.size
            assert iv.usage >= 2


def _hand_discretization(tokens, offsets, window, series_length):
    """A :class:`Discretization` over *tokens* at the given window offsets."""
    ids, vocab = intern_tokens(tokens)
    return Discretization(
        offsets=np.asarray(offsets, dtype=np.int64),
        token_ids=ids,
        vocabulary=vocab,
        window=window,
        paa_size=1,
        alphabet_size=4,
        series_length=series_length,
        strategy=NumerosityReduction.EXACT,
        raw_word_count=len(tokens),
    )


def _induce(algorithm, tokens, disc):
    if algorithm == "repair":
        return repair_grammar(tokens)
    if algorithm == "hand":
        # The Sequitur grammar rebuilt from its rule objects: no freeze
        # arrays, so every projection reads the objects.
        frozen = induce_grammar_interned(disc.token_ids, disc.vocabulary)
        return Grammar(tokens=list(frozen.tokens), rules=dict(frozen.rules))
    with forced_engine(algorithm):
        return induce_grammar_interned(disc.token_ids, disc.vocabulary)


def _rows(intervals):
    return [(iv.rule_id, iv.start, iv.end, iv.usage) for iv in intervals]


#: Sequitur on each available engine, Re-Pair, and a hand-built grammar.
ALGORITHMS = (*ENGINES, "repair", "hand")


class TestProjectionOracle:
    """The array projection against the per-occurrence loop."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(
        tokens=st.lists(st.sampled_from(["ab", "ba", "cc", "d"]), max_size=120),
        steps=st.lists(st.integers(1, 9), min_size=120, max_size=120),
        window=st.integers(2, 30),
        clip=st.integers(0, 29),
        include_start_rule=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(
        self, algorithm, tokens, steps, window, clip, include_start_rule
    ):
        offsets = np.cumsum([0] + steps[: max(len(tokens) - 1, 0)])[: len(tokens)]
        # Clip the last windows at the series end, never past a start.
        last = int(offsets[-1]) if tokens else 0
        series_length = max(last + 1, last + window - clip)
        disc = _hand_discretization(tokens, offsets, window, series_length)
        grammar = _induce(algorithm, tokens, disc)
        got = rule_intervals(grammar, disc, include_start_rule=include_start_rule)
        want = rule_intervals_oracle(
            grammar, disc, include_start_rule=include_start_rule
        )
        starts, ends = got.endpoint_arrays()
        assert starts.dtype == ends.dtype == np.int64
        assert starts.tolist() == [iv.start for iv in want]
        assert ends.tolist() == [iv.end for iv in want]
        assert _rows(got) == _rows(want)
        assert got == want

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_oracle_on_a_series(self, algorithm):
        series = _periodic_with_blip()
        disc = discretize(series, 40, 4, 4)
        tokens = disc.tokens()
        grammar = _induce(algorithm, tokens, disc)
        for include_start_rule in (False, True):
            got = rule_intervals(grammar, disc, include_start_rule=include_start_rule)
            want = rule_intervals_oracle(
                grammar, disc, include_start_rule=include_start_rule
            )
            assert len(got) > 10
            assert _rows(got) == _rows(want)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_malformed_span_raises_value_error(self, algorithm):
        # Word 2 starts at offset 2, at the declared series end: the
        # occurrence of "ab" over tokens [2, 3] projects to [2, 2).
        tokens = ["a", "b", "a", "b"]
        disc = _hand_discretization(tokens, [0, 1, 2, 3], 2, 2)
        grammar = _induce(algorithm, tokens, disc)
        with pytest.raises(ValueError, match=r"malformed interval \[2, 2\)"):
            rule_intervals_oracle(grammar, disc)
        with pytest.raises(ValueError, match=r"malformed interval \[2, 2\)"):
            rule_intervals(grammar, disc)


def _sample_list():
    return RuleIntervalList(
        [
            RuleInterval(2, 0, 10, usage=2),
            RuleInterval(1, 5, 15, usage=3),
            RuleInterval(2, 20, 30, usage=2),
        ]
    )


class TestRuleIntervalList:
    def test_sequence_protocol(self):
        intervals = _sample_list()
        assert len(intervals) == 3
        assert intervals[1] == RuleInterval(1, 5, 15, usage=3)
        assert intervals[-1].start == 20
        assert intervals[1:] == [
            RuleInterval(1, 5, 15, usage=3),
            RuleInterval(2, 20, 30, usage=2),
        ]
        assert [iv.rule_id for iv in intervals] == [2, 1, 2]
        assert RuleInterval(1, 5, 15, usage=3) in intervals
        assert list(reversed(intervals))[0].start == 20

    def test_equality(self):
        intervals = _sample_list()
        assert intervals == list(_sample_list())
        assert list(_sample_list()) == intervals
        assert intervals == tuple(_sample_list())
        assert intervals == _sample_list()
        assert intervals != _sample_list()[:2]
        assert intervals != RuleIntervalList()
        assert RuleIntervalList() == []

    def test_plus_list_is_a_list(self):
        gap = RuleInterval(-1, 40, 50, usage=0)
        joined = _sample_list() + [gap]
        assert type(joined) is list
        assert joined == list(_sample_list()) + [gap]
        assert [gap] + _sample_list() == [gap] + list(_sample_list())

    def test_immutable(self):
        intervals = _sample_list()
        assert not hasattr(intervals, "append")
        with pytest.raises(TypeError):
            intervals[0] = RuleInterval(1, 0, 5, usage=1)
        starts, ends = intervals.endpoint_arrays()
        with pytest.raises(ValueError):
            starts[0] = 7
        assert ends.tolist() == [10, 15, 30]

    def test_unhashable_like_a_list(self):
        with pytest.raises(TypeError):
            hash(_sample_list())

    def test_pickle_round_trip(self):
        intervals = rule_intervals(*reversed(_pipeline(_periodic_with_blip())))
        restored = pickle.loads(pickle.dumps(intervals))
        assert type(restored) is RuleIntervalList
        assert restored == intervals
        assert restored._items is None
        assert not restored.endpoint_arrays()[0].flags.writeable

    def test_objects_built_on_first_element_access(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        intervals = rule_intervals(grammar, disc)
        assert intervals._items is None
        starts, _ = intervals.endpoint_arrays()
        assert len(intervals) == starts.size
        assert intervals._items is None
        first = intervals[0]
        assert intervals._items is not None
        assert intervals[0] is first


class TestNothingBuiltOnTheDensityPath:
    def test_fit_and_density_build_no_words_or_interval_objects(self):
        detector = GrammarAnomalyDetector(40, 4, 4)
        result = detector.fit(_periodic_with_blip())
        detector.density_curve()
        assert "words" not in vars(result.discretization)
        assert result.intervals._items is None
        assert result.gaps._items is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fit_and_density_build_no_rule_token_or_occurrence_objects(
        self, engine, monkeypatch
    ):
        built = []
        real = _FrozenRuleMap._build
        monkeypatch.setattr(
            _FrozenRuleMap, "_build", lambda self, pid: built.append(pid) or real(self, pid)
        )
        monkeypatch.setattr(
            Discretization, "tokens", lambda self: pytest.fail("tokens() built")
        )
        detector = GrammarAnomalyDetector(40, 4, 4)
        with forced_engine(engine):
            result = detector.fit(_periodic_with_blip())
        detector.density_curve()
        grammar = result.grammar
        assert built == []
        assert grammar._rules is None and grammar._tokens is None
        assert len(grammar) > 10 and grammar.grammar_size() > len(grammar)
        assert built == []


class TestUncoveredIntervals:
    def test_anomaly_region_is_uncovered(self):
        """The planted blip's tokens form no rule -> a gap covers it."""
        series = _periodic_with_blip()
        disc, grammar = _pipeline(series)
        gaps = uncovered_intervals(grammar, disc)
        assert any(gap.start < 460 and 400 < gap.end for gap in gaps)

    def test_gap_usage_zero_and_tagged(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        for gap in uncovered_intervals(grammar, disc):
            assert gap.usage == 0
            assert gap.rule_id == -1

    def test_gaps_match_terminal_runs_in_r0(self):
        disc, grammar = _pipeline(_periodic_with_blip())
        gaps = uncovered_intervals(grammar, disc)
        terminal_runs = 0
        in_run = False
        for item in grammar.start_rule.rhs:
            if isinstance(item, str):
                if not in_run:
                    terminal_runs += 1
                    in_run = True
            else:
                in_run = False
        assert len(gaps) == terminal_runs

    def test_fully_compressed_input_has_no_gaps(self):
        # perfectly periodic, noiseless series: R0 should be all rules
        t = np.arange(640)
        series = np.sin(2 * np.pi * t / 40)
        disc, grammar = _pipeline(series, window=40)
        gaps = uncovered_intervals(grammar, disc)
        # tolerate tiny head/tail runs, but the bulk must be covered
        uncovered_points = sum(g.length for g in gaps)
        assert uncovered_points < 0.2 * series.size


class TestUncoveredOracle:
    """The array gaps against the walk over R0's right-hand side."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @given(
        tokens=st.lists(st.sampled_from(["ab", "ba", "cc", "d", "e"]), max_size=120),
        steps=st.lists(st.integers(1, 9), min_size=120, max_size=120),
        window=st.integers(2, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, algorithm, tokens, steps, window):
        offsets = np.cumsum([0] + steps[: max(len(tokens) - 1, 0)])[: len(tokens)]
        last = int(offsets[-1]) if tokens else 0
        disc = _hand_discretization(tokens, offsets, window, last + window)
        grammar = _induce(algorithm, tokens, disc)
        got = uncovered_intervals(grammar, disc)
        want = uncovered_intervals_oracle(grammar, disc)
        assert _rows(got) == _rows(want)
        assert got == want

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_oracle_on_a_series(self, algorithm):
        disc = discretize(_periodic_with_blip(), 40, 4, 4)
        grammar = _induce(algorithm, disc.tokens(), disc)
        got = uncovered_intervals(grammar, disc)
        assert len(got) > 0
        assert _rows(got) == _rows(uncovered_intervals_oracle(grammar, disc))


class TestZeroCoverageGaps:
    def test_empty_intervals_whole_series_gap(self):
        gaps = zero_coverage_gaps([], 100)
        assert len(gaps) == 1
        assert (gaps[0].start, gaps[0].end) == (0, 100)

    def test_full_coverage_no_gaps(self):
        intervals = [RuleInterval(1, 0, 100, usage=2)]
        assert zero_coverage_gaps(intervals, 100) == []

    def test_gap_between_intervals(self):
        intervals = [
            RuleInterval(1, 0, 40, usage=2),
            RuleInterval(2, 60, 100, usage=2),
        ]
        gaps = zero_coverage_gaps(intervals, 100)
        assert [(g.start, g.end) for g in gaps] == [(40, 60)]

    def test_min_length_filter(self):
        intervals = [
            RuleInterval(1, 0, 50, usage=2),
            RuleInterval(2, 51, 100, usage=2),
        ]
        assert zero_coverage_gaps(intervals, 100, min_length=2) == []
        gaps = zero_coverage_gaps(intervals, 100, min_length=1)
        assert [(g.start, g.end) for g in gaps] == [(50, 51)]

    def test_consistent_with_density_zero(self):
        from repro.core.rule_density import rule_density_curve

        series = _periodic_with_blip()
        disc, grammar = _pipeline(series)
        intervals = rule_intervals(grammar, disc)
        gaps = zero_coverage_gaps(intervals, series.size, min_length=1)
        curve = rule_density_curve(intervals, series.size)
        for gap in gaps:
            assert (curve[gap.start : gap.end] == 0).all()
