"""Tests for repro.core.rra — the Rare Rule Anomaly algorithm."""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _cbuild
from repro.core.rra import (
    RRAResult,
    _CandidateSet,
    _InnerOrdering,
    find_discord,
    find_discords,
    nearest_neighbor_distances,
)
from repro.exceptions import CheckpointError, DiscordSearchError, ParameterError
from repro.grammar.intervals import RuleInterval
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.resilience.checkpoint import (
    load_checkpoint,
    rng_state_to_json,
    save_checkpoint,
    search_fingerprint,
)
from repro.timeseries import eq1core, kernels
from repro.timeseries.distance import DistanceCounter
from tests.oracles import is_non_self_match

#: Skipped only where the core is switched off or cannot be compiled; a
#: core that builds but fails its parity probe fails these tests.
needs_core = pytest.mark.skipif(
    _cbuild._gate() == "off" or _cbuild._find_compiler() is None,
    reason="the Eq. 1 C core is off or cannot be built on this host",
)


@contextlib.contextmanager
def c_core_gate(value):
    """Run the block with ``REPRO_C_CORE=value`` and a fresh core load."""
    old = os.environ.get("REPRO_C_CORE")
    os.environ["REPRO_C_CORE"] = value
    eq1core.reset_for_testing()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_C_CORE", None)
        else:
            os.environ["REPRO_C_CORE"] = old
        eq1core.reset_for_testing()


@pytest.fixture
def python_path():
    """The RRA inner loop on its Python path (``REPRO_C_CORE=off``)."""
    with c_core_gate("off"):
        yield


def _blip_series(length=800, period=50, blip_at=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 60] += 2.5
    return series


def _candidates_for(series, window=40, paa=4, alpha=4):
    from repro.grammar.intervals import rule_intervals, uncovered_intervals
    from repro.grammar.sequitur import induce_grammar
    from repro.sax.discretize import discretize

    disc = discretize(series, window, paa, alpha)
    grammar = induce_grammar(disc.tokens())
    return rule_intervals(grammar, disc) + uncovered_intervals(grammar, disc)


class TestNonSelfMatch:
    def test_overlap_excluded(self):
        p = RuleInterval(1, 100, 150, usage=1)
        q = RuleInterval(2, 120, 170, usage=1)
        assert not is_non_self_match(p, q)

    def test_far_apart_allowed(self):
        p = RuleInterval(1, 100, 150, usage=1)
        q = RuleInterval(2, 200, 260, usage=1)
        assert is_non_self_match(p, q)

    def test_paper_boundary(self):
        # |p0 - q0| must be STRICTLY greater than Length(p)
        p = RuleInterval(1, 100, 150, usage=1)  # length 50
        assert not is_non_self_match(p, RuleInterval(2, 150, 190, usage=1))
        assert is_non_self_match(p, RuleInterval(2, 151, 190, usage=1))


class TestFindDiscord:
    def test_finds_planted_blip(self):
        series = _blip_series()
        discord, counter = find_discord(series, _candidates_for(series))
        assert discord is not None
        assert discord.start < 470 and discord.end > 390
        assert counter.calls > 0

    def test_no_candidates(self):
        discord, _ = find_discord(np.zeros(100), [])
        assert discord is None

    def test_single_candidate_has_no_match(self):
        discord, _ = find_discord(
            np.random.default_rng(0).normal(size=100),
            [RuleInterval(1, 10, 40, usage=1)],
        )
        assert discord is None

    def test_exclusion_removes_winner(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        first, _ = find_discord(series, candidates)
        second, _ = find_discord(
            series, candidates, exclude=[(first.start, first.end)]
        )
        assert second is not None
        assert (second.start, second.end) != (first.start, first.end)

    def test_rejects_2d_series(self):
        with pytest.raises(DiscordSearchError):
            find_discord(np.zeros((5, 5)), [])

    def test_counter_accumulates(self):
        series = _blip_series()
        counter = DistanceCounter()
        find_discord(series, _candidates_for(series), counter=counter)
        before = counter.calls
        find_discord(series, _candidates_for(series), counter=counter)
        assert counter.calls > before

    def test_deterministic_given_seed(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        d1, _ = find_discord(series, candidates, rng=np.random.default_rng(3))
        d2, _ = find_discord(series, candidates, rng=np.random.default_rng(3))
        assert (d1.start, d1.end, d1.nn_distance) == (d2.start, d2.end, d2.nn_distance)

    def test_discord_metadata(self):
        series = _blip_series()
        discord, _ = find_discord(series, _candidates_for(series))
        assert discord.source == "rra"
        assert discord.score == discord.nn_distance > 0

    def test_result_is_true_max_nn_distance(self):
        """The reported discord maximizes NN distance over candidates."""
        series = _blip_series(length=500)
        candidates = _candidates_for(series)
        discord, _ = find_discord(series, candidates)
        profile = nearest_neighbor_distances(series, candidates)
        finite = [(iv, d) for iv, d in profile if np.isfinite(d)]
        best_iv, best_d = max(finite, key=lambda x: x[1])
        assert discord.nn_distance == pytest.approx(best_d)
        assert (discord.start, discord.end) == (best_iv.start, best_iv.end)


class TestFindDiscords:
    def test_requested_count(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        assert isinstance(result, RRAResult)
        assert 1 <= len(result.discords) <= 3
        assert result.distance_calls > 0

    def test_ranks_sequential(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        assert [d.rank for d in result.discords] == list(range(len(result.discords)))

    def test_discords_do_not_repeat(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        spans = [(d.start, d.end) for d in result.discords]
        assert len(set(spans)) == len(spans)

    def test_invalid_count(self):
        with pytest.raises(DiscordSearchError):
            find_discords(np.zeros(10), [], num_discords=0)

    def test_best_property(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=2)
        assert result.best is result.discords[0]
        assert RRAResult().best is None

    def test_iterator_input_equals_list_input(self):
        """*intervals* is read once, so an iterator gives the list result
        instead of a used-up, empty candidate set."""
        series = _blip_series()
        candidates = _candidates_for(series)
        from_list = find_discords(series, candidates, num_discords=2)
        from_iter = find_discords(series, iter(candidates), num_discords=2)
        assert from_list.discords
        assert from_iter.discords == from_list.discords
        assert from_iter.distance_calls == from_list.distance_calls
        assert from_iter.status is from_list.status

    def test_scores_non_increasing(self):
        series = _blip_series()
        result = find_discords(series, _candidates_for(series), num_discords=3)
        scores = [d.nn_distance for d in result.discords]
        # Later discords exclude earlier ones, so scores should not grow
        # (modulo candidates whose NN was inside an excluded region).
        assert all(a >= b - 0.25 for a, b in zip(scores, scores[1:]))


class TestNearestNeighborDistances:
    def test_profile_covers_candidates(self):
        series = _blip_series(length=400)
        candidates = _candidates_for(series)
        profile = nearest_neighbor_distances(series, candidates)
        valid = [iv for iv in candidates if iv.end <= series.size and iv.length >= 2]
        assert len(profile) == len(valid)

    def test_same_rule_occurrences_have_small_nn(self):
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        profile = nearest_neighbor_distances(series, candidates)
        frequent = [
            d for iv, d in profile
            if iv.usage >= 4 and np.isfinite(d)
        ]
        if frequent:
            assert min(frequent) < 0.5


def _reference_pair_distance(values_p, values_q):
    """Eq. 1 distance as the pre-fusion code computed it.

    Equal lengths: the dot-product identity.  Unequal lengths: the
    minimum of the clamped :func:`kernels.sliding_alignment_sq_profile`.
    """
    if values_p.size == values_q.size:
        sq = (
            float(np.dot(values_p, values_p))
            + float(np.dot(values_q, values_q))
            - 2.0 * float(np.dot(values_p, values_q))
        )
        return float(np.sqrt(max(sq, 0.0) / values_p.size))
    short, long_ = (
        (values_p, values_q) if values_p.size < values_q.size else (values_q, values_p)
    )
    profile = kernels.sliding_alignment_sq_profile(short, long_)
    return float(np.sqrt(profile.min() / short.size))


@st.composite
def _series_and_intervals(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    length = draw(st.integers(40, 160))
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=length))
    if draw(st.booleans()):
        lo = draw(st.integers(0, length - 10))
        series[lo : lo + 10] = series[lo]  # flat stretch: unscaled znorm
    base_len = draw(st.integers(2, 20))
    intervals = []
    for rule_id in range(draw(st.integers(2, 10))):
        # Equal, shorter and longer partners around a shared length.
        n = max(2, base_len + draw(st.sampled_from([0, 0, -1, 1, -7, 9])))
        start = draw(st.integers(0, length - n))
        intervals.append(RuleInterval(rule_id, start, start + n, usage=1))
    return series, intervals


class TestFusedPairDistance:
    @given(_series_and_intervals(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_in_both_orders_and_from_memo(self, data, order_rng):
        series, intervals = data
        cache = _CandidateSet(series)
        pairs = [(p, q) for p in intervals for q in intervals]
        order_rng.shuffle(pairs)
        for p, q in pairs:
            expected = _reference_pair_distance(cache.values(p), cache.values(q))
            # First call may compute or hit the memo (the reverse pair
            # can come earlier); the repeat and the swap always hit it.
            assert cache.pair_distance(p, q) == expected
            assert cache.pair_distance(p, q) == expected
            assert cache.pair_distance(q, p) == expected
            fresh = _CandidateSet(series)
            assert fresh.pair_distance(q, p) == expected

    @given(_series_and_intervals())
    @settings(max_examples=30, deadline=None)
    def test_public_kernel_shares_the_definition(self, data):
        series, intervals = data
        cache = _CandidateSet(series)
        for p in intervals:
            for q in intervals:
                a, b = cache.values(p), cache.values(q)
                if a.size < b.size:
                    assert kernels.sliding_min_normalized_distance(
                        a, b
                    ) == _reference_pair_distance(a, b)


class TestLazyInnerOrdering:
    @given(_series_and_intervals(), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_sequence_and_rng_state_as_list_form(self, data, seed, draws):
        _, intervals = data
        # Gaps (negative rule ids) and repeated rules exercise every bucket.
        candidates = [
            RuleInterval(iv.rule_id % 3 - 1, iv.start, iv.end, iv.usage)
            for iv in intervals
        ]
        ordering = _InnerOrdering(candidates)
        lazy_rng = np.random.default_rng(seed)
        list_rng = np.random.default_rng(seed)
        for p in candidates:
            lazy = ordering.order(p, lazy_rng)
            # The old list form: same-rule bucket, then the shuffled rest.
            if p.rule_id >= 0:
                same = [iv for iv in candidates if iv.rule_id == p.rule_id]
                rest = [iv for iv in candidates if iv.rule_id != p.rule_id]
            else:
                same, rest = [], candidates
            expected = same + [rest[j] for j in list_rng.permutation(len(rest))]
            # The permutation is drawn on the call, not on iteration.
            assert lazy_rng.bit_generator.state == list_rng.bit_generator.state
            taken = draws.draw(st.integers(0, len(expected)))
            got = [q for q, _ in zip(lazy, range(taken))]
            assert [id(q) for q in got] == [id(q) for q in expected[:taken]]
        assert lazy_rng.bit_generator.state == list_rng.bit_generator.state


@pytest.mark.usefixtures("python_path")
class TestInterruptedInnerLoopAccounting:
    @pytest.mark.parametrize("interrupt_at", [1, 125, 540, 1000])
    def test_interrupt_mid_scan_counts_like_per_pair_counting(
        self, tmp_path, monkeypatch, interrupt_at
    ):
        """A KeyboardInterrupt inside the inner loop counts every pair
        visited so far — the interrupted one included — while the
        checkpoint keeps the last outer boundary and resumes exactly."""
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        reference = find_discords(series, candidates, num_discords=2)
        original = _CandidateSet.pair_distance
        seen = []  # the outer candidate p of every distance call

        def interrupting(self, p, q):
            seen.append(p)
            if len(seen) == interrupt_at:
                raise KeyboardInterrupt
            return original(self, p, q)

        monkeypatch.setattr(_CandidateSet, "pair_distance", interrupting)
        checkpoint = tmp_path / "ck.json"
        counter = DistanceCounter()
        result = find_discords(
            series, candidates, num_discords=2,
            counter=counter, budget=SearchBudget.unlimited(),
            checkpoint_path=str(checkpoint),
        )
        monkeypatch.setattr(_CandidateSet, "pair_distance", original)

        assert result.status is SearchStatus.CANCELLED
        assert counter.calls == interrupt_at
        assert result.distance_calls == interrupt_at
        # The boundary before the interrupted candidate: every call made
        # for earlier candidates, none of the aborted one's.
        boundary = len(seen) - 1
        while boundary > 0 and seen[boundary - 1] is seen[-1]:
            boundary -= 1
        saved = load_checkpoint(str(checkpoint))
        assert saved["distance_calls"] == boundary
        assert saved["ledger"] == {"calls": boundary}
        resumed = find_discords(
            series, candidates, num_discords=2, resume_from=str(checkpoint),
        )
        assert resumed.discords == reference.discords
        assert resumed.distance_calls == reference.distance_calls


@needs_core
class TestInterruptedCoreScanAccounting:
    @pytest.mark.parametrize("interrupt_after", [1, 2, 7, 16])
    def test_interrupt_after_core_returns(self, tmp_path, monkeypatch, interrupt_after):
        """A KeyboardInterrupt right after a core rank call returns counts
        that call's pairs exactly once, while the checkpoint keeps the
        boundary before the call and resumes exactly."""
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        reference = find_discords(series, candidates, num_discords=2)
        original = eq1core.RankRun.__call__
        counter = DistanceCounter()
        through = []  # counter value through each core call

        def interrupting(self, *args):
            returned = original(self, *args)
            through.append(counter.calls + self.calls.value)
            if len(through) == interrupt_after:
                raise KeyboardInterrupt
            return returned

        monkeypatch.setattr(eq1core.RankRun, "__call__", interrupting)
        checkpoint = tmp_path / "ck.json"
        result = find_discords(
            series, candidates, num_discords=2,
            counter=counter, budget=SearchBudget.unlimited(),
            checkpoint_path=str(checkpoint),
        )
        monkeypatch.setattr(eq1core.RankRun, "__call__", original)

        assert result.status is SearchStatus.CANCELLED
        assert len(through) == interrupt_after
        assert counter.calls == through[-1]
        assert result.distance_calls == through[-1]
        boundary = through[-2] if interrupt_after > 1 else 0
        saved = load_checkpoint(str(checkpoint))
        assert saved["distance_calls"] == boundary
        assert saved["ledger"] == {"calls": boundary}
        resumed = find_discords(
            series, candidates, num_discords=2, resume_from=str(checkpoint),
        )
        assert resumed.discords == reference.discords
        assert resumed.distance_calls == reference.distance_calls


@st.composite
def _long_series_and_intervals(draw):
    """Intervals of length 2–1100 over a random walk with flat stretches."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = 2400
    series = np.cumsum(rng.normal(size=length))
    for _ in range(draw(st.integers(0, 2))):
        # Near-constant windows: flat up to noise far below the z-norm
        # flatness threshold, or exactly flat.
        lo = draw(st.integers(0, length - 200))
        eps = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
        series[lo : lo + 200] = series[lo] + eps * rng.normal(size=200)
    intervals = []
    for rule_id in range(draw(st.integers(2, 5))):
        n = draw(st.one_of(st.integers(2, 16), st.integers(2, 1100)))
        for _ in range(draw(st.integers(1, 2))):  # equal-length partners
            start = draw(st.integers(0, length - n))
            intervals.append(RuleInterval(rule_id, start, start + n, usage=1))
    return series, intervals


def _rra_dump(result, rng):
    return (
        [
            (d.start, d.end, d.rank, d.score.hex(), d.nn_distance.hex(), d.rule_id)
            for d in result.discords
        ],
        result.distance_calls,
        result.status,
        result.rank_complete,
        rng.bit_generator.state,
    )


@needs_core
class TestCoreParity:
    @given(_long_series_and_intervals(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_core_distance_equals_pair_distance(self, data, order_rng):
        series, intervals = data
        reference = _CandidateSet(series, core=False)
        fast = _CandidateSet(series)
        assert fast.tables is not None
        pairs = [(p, q) for p in intervals for q in intervals]
        order_rng.shuffle(pairs)
        for p, q in pairs:
            want = reference.pair_distance(p, q).hex()
            a, b = fast.idents([p, q]).tolist()
            # Computed or read from the memo (the reverse pair can come
            # first); the repeat, the swap and pair_distance always read it.
            assert fast.tables.distance(a, b).hex() == want
            assert fast.tables.distance(b, a).hex() == want
            assert fast.pair_distance(q, p).hex() == want
            assert _CandidateSet(series).pair_distance(q, p).hex() == want

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(300, 1200),
        st.sampled_from([(20, 4, 3), (40, 4, 4), (60, 6, 4)]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 50, 700]),
    )
    @settings(max_examples=25, deadline=None)
    def test_find_discords_core_on_equals_off(
        self, series_seed, length, params, seed, max_calls
    ):
        rng = np.random.default_rng(series_seed)
        series = np.cumsum(rng.normal(size=length))
        series[length // 2 : length // 2 + 30] += 4.0
        candidates = _candidates_for(series, *params)

        def run():
            search_rng = np.random.default_rng(seed)
            budget = None if max_calls is None else SearchBudget(max_calls=max_calls)
            result = find_discords(
                series, candidates, num_discords=3, rng=search_rng, budget=budget,
            )
            return _rra_dump(result, search_rng)

        with c_core_gate("require"):
            on = run()
        with c_core_gate("off"):
            off = run()
        assert on == off


    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox]
    )
    def test_budgets_and_resume_core_on_equals_off(self, tmp_path, bit_generator):
        """Discords, ``calls``, status, checkpoints and the final generator
        state are byte-equal with the core on and off, under call budgets
        and across a checkpoint resume, for bit generators with and
        without a buffered 32-bit half-word."""
        series = _blip_series(length=1500)
        candidates = _candidates_for(series)

        def run(tag):
            dumps = []
            for max_calls in (None, 1, 60, 2500):
                rng = np.random.Generator(bit_generator(7))
                budget = None if max_calls is None else SearchBudget(max_calls=max_calls)
                result = find_discords(
                    series, candidates, num_discords=3, rng=rng, budget=budget,
                )
                dumps.append(_rra_dump(result, rng)[:4] + (rng_state_to_json(rng),))
            path = str(tmp_path / f"{tag}.json")
            find_discords(
                series, candidates, num_discords=3,
                rng=np.random.Generator(bit_generator(7)),
                budget=SearchBudget(max_calls=3000),
                checkpoint_path=path, checkpoint_every=5,
            )
            saved = load_checkpoint(path)
            resumed = find_discords(
                series, candidates, num_discords=3, resume_from=path,
            )
            dumps.append(
                [saved[k] for k in ("rank", "outer_index", "distance_calls", "rng_state")]
            )
            dumps.append(_rra_dump(resumed, np.random.default_rng(0))[:4])
            return dumps

        with c_core_gate("require"):
            on = run("on")
        with c_core_gate("off"):
            off = run("off")
        assert on == off
        # The resumed run finishes with the uninterrupted answer.
        assert on[-1][:2] == on[0][:2]

    @pytest.mark.parametrize("core", [True, False])
    def test_span_past_the_series_end_is_rejected(self, core):
        """A span outside the series raises before the core reads it, as
        on the Python path."""
        cache = _CandidateSet(_blip_series(length=300), core=core)
        with pytest.raises(ParameterError):
            cache.pair_distance(RuleInterval(0, 0, 50, usage=1), RuleInterval(0, 280, 320, usage=1))

    @pytest.mark.parametrize("every", [1, 3, 7, 32])
    def test_checkpoint_writes_core_on_equal_off(self, tmp_path, monkeypatch, every):
        """Checkpoints land at the same boundaries with the same payloads
        with the core on and off: a core run stops at a checkpoint
        boundary and counts the boundaries it crosses, across ranks."""
        from repro.core import rra

        series = _blip_series(length=1500)
        candidates = _candidates_for(series)
        writes = []
        original = rra.save_checkpoint

        def recording(path, payload):
            writes.append(json.dumps(payload, sort_keys=True))
            original(path, payload)

        monkeypatch.setattr(rra, "save_checkpoint", recording)

        def run():
            writes.clear()
            find_discords(
                series, candidates, num_discords=3, rng=np.random.default_rng(5),
                checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=every,
            )
            return list(writes)

        with c_core_gate("require"):
            on = run()
        with c_core_gate("off"):
            off = run()
        assert on == off
        assert len(on) > 3


@needs_core
class TestCoreShuffle:
    #: Edge lengths first; the other seeds draw n from [0, 70,000].
    EDGE = (0, 1, 2, 3, 4, 63, 64, 65, 1024, 4097, 70_000)
    BIT_GENERATORS = (
        np.random.PCG64, np.random.MT19937, np.random.Philox,
        np.random.SFC64, np.random.PCG64DXSM,
    )

    def test_core_shuffle_equals_generator_shuffle(self):
        """The core's Fisher-Yates gives ``rng.shuffle``'s permutation and
        leaves the generator in the same state, over 200 seeds.  One seed
        in three makes an odd number of 32-bit draws first, so the
        shuffle starts on a buffered half-word."""
        lib = eq1core.load()
        for seed in range(200):
            n = (
                self.EDGE[seed]
                if seed < len(self.EDGE)
                else int(np.random.default_rng(seed).integers(0, 70_001))
            )
            bit_generator = self.BIT_GENERATORS[seed % len(self.BIT_GENERATORS)]
            core, numpy_ = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for generator in (core, numpy_):
                for _ in range(seed % 3):
                    generator.shuffle(np.arange(2))  # exactly one 32-bit draw
            got, want = np.arange(n), np.arange(n)
            eq1core.shuffle(lib, core, got)
            numpy_.shuffle(want)
            assert np.array_equal(got, want), (seed, n)
            assert rng_state_to_json(core) == rng_state_to_json(numpy_), (seed, n)

    def test_shuffled_ids_are_the_permutation_of_the_ids(self):
        """Shuffling the ids in place is ``ids[rng.permutation(n)]``, the
        Python path's inner order."""
        lib = eq1core.load()
        ids = np.random.default_rng(1).integers(0, 10**6, size=5000)
        got = ids.copy()
        eq1core.shuffle(lib, np.random.default_rng(2), got)
        assert np.array_equal(got, ids[np.random.default_rng(2).permutation(ids.size)])

    def test_probe_rejects_a_shuffle_that_differs(self, monkeypatch):
        """A core whose shuffle does not match NumPy's fails its probe, so
        RRA falls back to Python instead of giving other answers."""
        lib = eq1core.load()
        monkeypatch.setattr(
            eq1core, "shuffle", lambda lib, rng, ids: ids.__setitem__(slice(None), ids[::-1])
        )
        assert not eq1core._probe(lib)


class TestNearestNeighborProfile:
    @pytest.mark.parametrize("gate", ["", "off"])
    def test_profile_is_the_pair_distance_minimum(self, gate):
        """Each profile value is the minimum of ``pair_distance`` over the
        candidate's non-self matches, bit for bit, and each discord's
        ``nn_distance`` is the profile value at its interval."""
        series = _blip_series(length=1200)
        candidates = _candidates_for(series)
        with c_core_gate(gate):
            profile = nearest_neighbor_distances(series, candidates)
            result = find_discords(series, candidates, num_discords=3)
        reference = _CandidateSet(series, core=False)
        for p, value in profile:
            nearest = math.inf
            for q in candidates:
                if is_non_self_match(p, q):
                    dist = reference.pair_distance(p, q)
                    if dist < nearest:
                        nearest = dist
            assert value.hex() == nearest.hex()

        excluded = []
        for discord in result.discords:
            remaining = [
                iv for iv in candidates
                if not any(iv.start < e and s < iv.end for s, e in excluded)
            ]
            with c_core_gate(gate):
                values = {
                    (iv.start, iv.end): d
                    for iv, d in nearest_neighbor_distances(series, remaining)
                }
            assert values[(discord.start, discord.end)].hex() == discord.nn_distance.hex()
            excluded.append((discord.start, discord.end))


class TestCheckpointFingerprint:
    def test_checkpoint_with_prune_in_fingerprint_is_rejected(self, tmp_path):
        """Checkpoints from before the ledger held only ``calls`` were
        fingerprinted with a ``prune`` parameter; resuming one fails with
        a fingerprint mismatch instead of adopting its ledger."""
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        path = str(tmp_path / "ck.json")
        find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget(max_calls=50),
            checkpoint_path=path, checkpoint_every=1,
        )
        data = load_checkpoint(path)
        # The untouched checkpoint resumes: only the fingerprint matters.
        find_discords(series, candidates, num_discords=2, resume_from=path)
        valid = [
            iv for iv in candidates if iv.end <= series.size and iv.length >= 2
        ]
        data["fingerprint"] = search_fingerprint(
            series, valid, {"num_discords": 2, "backend": "kernel", "prune": False}
        )
        save_checkpoint(path, data)
        with pytest.raises(CheckpointError):
            find_discords(series, candidates, num_discords=2, resume_from=path)

    def test_checkpoint_with_backend_in_fingerprint_is_rejected(self, tmp_path):
        """Checkpoints written while searches took a ``backend`` carry it
        in their fingerprint and payload; resuming one fails with
        :class:`CheckpointError` instead of being adopted."""
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        path = str(tmp_path / "ck.json")
        find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget(max_calls=400),
            checkpoint_path=path, checkpoint_every=1,
        )
        data = load_checkpoint(path)
        valid = [
            iv for iv in candidates if iv.end <= series.size and iv.length >= 2
        ]
        # The old format: backend in the fingerprint and the payload, and
        # discords encoded without their source tag.
        data["fingerprint"] = search_fingerprint(
            series, valid, {"num_discords": 2, "backend": "kernel"}
        )
        data["backend"] = "kernel"
        for entry in data["discords"]:
            entry.pop("source")
        save_checkpoint(path, data)
        with pytest.raises(CheckpointError):
            find_discords(series, candidates, num_discords=2, resume_from=path)


class TestOffsetInvariance:
    """Adding a constant to the series must not change the answer: every
    window statistic comes from prefix sums of the centred series."""

    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.sampled_from([1e8, -1e8, 1e6]), st.floats(-1e8, 1e8)),
    )
    @settings(max_examples=25, deadline=None)
    def test_discords_and_calls_unchanged_under_offset(self, seed, offset):
        # The series and the offset sit on a 2**-16 grid and stay below
        # 2**27 in magnitude, so ``series + offset`` is exact: what is
        # tested is the search's arithmetic, not the rounding of the
        # shifted input.
        rng = np.random.default_rng(seed)
        series = np.round(np.cumsum(rng.normal(size=600)) * 2**16) / 2**16
        series[300:330] += 4.0
        offset = round(offset * 2**16) / 2**16
        candidates = _candidates_for(series)

        def run(values):
            result = find_discords(
                values, candidates, num_discords=3,
                rng=np.random.default_rng(seed),
            )
            return (
                [(d.start, d.end, d.rank) for d in result.discords],
                result.distance_calls,
            )

        assert run(series + offset) == run(series)

    def test_ecg_qtdb_0606_at_offset_1e6(self):
        """Uncentred window statistics moved this row's discord from
        ``[1133, 1269)`` to ``[1951, 2075)`` at +1e6."""
        from repro.core.pipeline import GrammarAnomalyDetector
        from repro.datasets.registry import get_row

        row = get_row("ecg_qtdb_0606")
        detector = GrammarAnomalyDetector(
            window=row.window, paa_size=row.paa_size,
            alphabet_size=row.alphabet_size,
        )
        detector.fit(row.factory().series + 1e6)
        best = detector.discords().best
        assert (best.start, best.end) == (1133, 1269)
