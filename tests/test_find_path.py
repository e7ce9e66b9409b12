"""The ``find`` path on interval tables.

After :func:`repro.grammar.intervals.rule_intervals`, a ``find`` request
reads the ``(4, n)`` table of its :class:`RuleIntervalList`: the
candidate set, RRA's admissible filter, exclusions and outer order, and
the cache key.  These tests pin each
step to the per-object loop it replaced (``tests/oracles.py``) and check
that a request builds no :class:`RuleInterval` it does not report.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import discord_search_key
from repro.cli import main
from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import _outer_order, find_discords, nearest_neighbor_distances
from repro.datasets import sine_with_anomaly
from repro.grammar.intervals import RuleInterval, RuleIntervalList
from repro.resilience.checkpoint import search_fingerprint
from repro.timeseries import eq1core
from tests.oracles import outer_order_oracle, search_fingerprint_oracle
from tests.test_rra import c_core_gate, needs_core


def _walk_series() -> np.ndarray:
    """An integer random walk with a step: exact in floating point, so
    its digests are the same on every platform."""
    rng = np.random.default_rng(2015)
    series = np.cumsum(rng.integers(-3, 4, size=1200)).astype(float)
    series[600:640] += 40.0
    return series


def _fitted(quality_policy="raise", series=None):
    detector = GrammarAnomalyDetector(40, 4, 4, quality_policy=quality_policy)
    return detector.fit(_walk_series() if series is None else series)


@pytest.fixture
def built_intervals(monkeypatch):
    """Every :class:`RuleInterval` constructed while the test runs."""
    built: list[RuleInterval] = []
    original = RuleInterval.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(RuleInterval, "__post_init__", counting)
    return built


class TestCandidates:
    def test_candidates_are_one_table(self):
        fitted = _fitted()
        candidates = fitted.candidates
        assert type(candidates) is RuleIntervalList
        assert candidates._items is None
        assert candidates == list(fitted.intervals) + list(fitted.gaps)

    def test_mask_policy_is_the_overlap_filter(self):
        series = _walk_series()
        series[200:210] = np.nan
        series[900:905] = np.inf
        fitted = _fitted("mask", series)
        assert fitted.masked_spans == ((200, 210), (900, 905))
        expected = [
            iv
            for iv in list(fitted.intervals) + list(fitted.gaps)
            if not any(iv.start < e and s < iv.end for s, e in fitted.masked_spans)
        ]
        assert expected
        assert fitted.candidates == expected

    def test_plus_of_two_tables_is_a_table(self):
        fitted = _fitted()
        joined = fitted.intervals + fitted.gaps
        assert type(joined) is RuleIntervalList
        assert np.array_equal(
            joined.table, np.concatenate((fitted.intervals.table, fitted.gaps.table), axis=1)
        )


#: Rows ``(rule_id, start, end, usage)`` drawn from small ranges, so
#: duplicate ``(usage, start, end)`` keys are common.
_rows = st.lists(
    st.tuples(
        st.integers(-1, 3), st.integers(0, 6), st.integers(1, 4), st.integers(0, 3)
    ),
    max_size=40,
)


class TestOuterOrder:
    @settings(max_examples=200, deadline=None)
    @given(_rows)
    def test_equals_the_stable_sort(self, rows):
        intervals = [RuleInterval(r, s, s + length, u) for r, s, length, u in rows]
        table = RuleIntervalList(intervals).table
        assert _outer_order(table).tolist() == outer_order_oracle(intervals)

    def test_duplicate_keys_keep_list_order(self):
        intervals = [
            RuleInterval(5, 10, 20, 2),
            RuleInterval(-1, 0, 5, 0),
            RuleInterval(7, 10, 20, 2),
            RuleInterval(3, 10, 20, 2),
            RuleInterval(-1, 0, 5, 0),
            RuleInterval(2, 10, 15, 2),
        ]
        order = _outer_order(RuleIntervalList(intervals).table).tolist()
        assert order == outer_order_oracle(intervals) == [1, 4, 5, 0, 2, 3]


class TestFingerprint:
    def test_equals_the_per_object_loop(self):
        fitted = _fitted()
        table = fitted.candidates
        params = {"num_discords": 3}
        want = search_fingerprint_oracle(fitted.series, list(table), params)
        for intervals in (table, list(table), tuple(table)):
            assert search_fingerprint(fitted.series, intervals, params) == want

    @pytest.mark.parametrize("empty", [(), [], RuleIntervalList()])
    def test_empty_sequence(self, empty):
        series = _walk_series()
        assert search_fingerprint(series, empty, {}) == search_fingerprint_oracle(
            series, [], {}
        )

    def test_negative_and_large_values(self):
        series = _walk_series()
        intervals = [RuleInterval(-1, 0, 2**40, 0), RuleInterval(2**33, 7, 9, 2**35)]
        assert search_fingerprint(
            series, RuleIntervalList(intervals), {"k": 1}
        ) == search_fingerprint_oracle(series, intervals, {"k": 1})

    def test_discord_search_key_is_pinned(self):
        """A silent change of the key would orphan every cache directory.
        (Re-pinned at key version 4, whose params hold the seed.)"""
        fitted = _fitted()
        key = discord_search_key(
            fitted.series, fitted.candidates, engine="rra",
            params={"num_discords": 3, "seed": 0},
        )
        assert key == "ebbbe4da864f1ee18f22401804ecc1865b97a17199dfd021ba39c22ac4a30905"


def _signature(result):
    return (
        [(d.start, d.end, d.rank, d.rule_id, d.nn_distance.hex()) for d in result.discords],
        result.distance_calls,
        result.status,
    )


class TestTableAndListInputs:
    @pytest.mark.parametrize("core", ["", "off"])
    def test_same_search(self, core):
        fitted = _fitted()
        table = fitted.candidates
        with c_core_gate(core):
            results = []
            for intervals in (table, list(table), iter(list(table))):
                result = find_discords(fitted.series, intervals, num_discords=3, seed=5)
                results.append(_signature(result))
        assert results[0][0]
        assert results[0] == results[1] == results[2]

    def test_nearest_neighbor_distances_of_a_list(self):
        fitted = _fitted()
        from_table = nearest_neighbor_distances(fitted.series, fitted.candidates)
        from_list = nearest_neighbor_distances(fitted.series, list(fitted.candidates))
        assert [(iv, d.hex()) for iv, d in from_table] == [
            (iv, d.hex()) for iv, d in from_list
        ]


@pytest.fixture
def series_file(tmp_path):
    ds = sine_with_anomaly(length=1200, period=80, anomaly_start=600,
                           anomaly_length=80, anomaly_kind="bump", seed=3)
    path = tmp_path / "series.csv"
    np.savetxt(path, ds.series)
    return str(path)


class TestNoObjectsOnTheFindPath:
    def test_cache_hit_builds_no_interval(self, series_file, tmp_path, capsys, built_intervals):
        argv = ["find", series_file, "--window", "40", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        built_intervals.clear()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "answered from cache" in warm.err
        assert warm.out == cold.out
        assert built_intervals == []

    @needs_core
    def test_search_builds_no_candidate_interval(self, series_file, capsys, built_intervals):
        """With the core on, the search reads the table: the discords are
        built from its columns, and no candidate becomes an object."""
        eq1core.load()  # the core's first-load parity probe builds its own
        built_intervals.clear()
        assert main(["find", series_file, "--window", "40", "-k", "3"]) == 0
        assert "rra" in capsys.readouterr().out
        assert built_intervals == []
