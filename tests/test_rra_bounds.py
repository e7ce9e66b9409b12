"""Exactness of the RRA core's lower bounds (DESIGN.md §20).

The core skips a pair, or an alignment offset inside a pair, only where
a PAA lower bound less a rounding margin proves it cannot change the
answer.  These tests compare the core with the unbounded Python loop
(``REPRO_C_CORE=off``) on inputs built to sit at that margin: series of
repeated integer-level motifs, stretched in blocks, on which the bound
is tight (each segment difference is constant, so Cauchy–Schwarz holds
with equality) and many distances are ties or near-ties.  A core whose
margin is zero skips or prunes some of those and gives other floats; the
parity probe then rejects it, and with the probe bypassed these
comparisons fail.  The same comparisons cover the rest of the core's
waste cuts, whose only observable effect must be speed: pruning against
the scan's nearest, the rank's key index and the parked value pool.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rra import _CandidateSet, find_discords, nearest_neighbor_distances
from repro.exceptions import DiscordSearchError
from repro.grammar.intervals import RuleInterval
from repro.observability.metrics import MetricsRegistry
from repro.resilience.budget import SearchBudget
from repro.timeseries import eq1core
from repro.timeseries.distance import DistanceCounter
from tests.oracles import is_non_self_match
from tests.test_rra import c_core_gate, needs_core

#: The core's PAA segment count: shorter candidates get no bound.
SEGMENTS = 32

#: Input families: the tie structure plus one stress each.
KINDS = ("ties", "flat", "short", "ratio", "budget")


def _tie_levels(rng: np.random.Generator) -> np.ndarray:
    """Repeats of one integer-level motif, a few of them perturbed: the
    repeats are exact ties, the perturbed ones near-ties."""
    motif = rng.integers(0, 4, size=int(rng.integers(16, 48))).astype(float)
    parts = []
    for _ in range(int(rng.integers(6, 12))):
        part = motif.copy()
        if rng.random() < 0.5:
            part[rng.integers(0, part.size)] += rng.choice([1.0, 0.5, 2.0**-20])
        parts.append(part)
    return np.concatenate(parts)


def adversarial(kind: str, seed: int) -> tuple[np.ndarray, list[RuleInterval], int | None]:
    """``(series, candidates, max_calls)`` of one input of family *kind*."""
    rng = np.random.default_rng(seed)
    block = int(rng.choice([1, 2, 4]))
    levels = _tie_levels(rng)
    if kind == "flat":  # zero-variance windows are left unscaled
        at = int(rng.integers(0, levels.size))
        levels = np.insert(levels, at, np.full(int(rng.integers(40, 120)), levels[at]))
    series = np.repeat(levels, block)
    size = series.size
    lengths = [32, 48, 64, 96]
    if kind == "short":
        lengths += [2, 5, 11, 12, 31]
    if kind == "ratio":  # many offsets, and the scratch grows mid-scan
        lengths += [size // 3, size // 2, size - 2 * block]
    intervals = []
    for _ in range(int(rng.integers(6, 20))):
        n = int(rng.choice(lengths)) * block // int(rng.choice([1, 2]))
        n = min(max(n, 2), size - block)
        start = int(rng.integers(0, (size - n) // block + 1)) * block
        if rng.random() < 0.2:  # off the block grid
            start = int(rng.integers(0, size - n + 1))
        rule = int(rng.integers(-1, 3))
        intervals.append(RuleInterval(rule, start, start + n, usage=int(rng.integers(0, 3))))
    max_calls = int(rng.choice([1, 7, 50, 200])) if kind == "budget" else None
    return series, intervals, max_calls


def _answers(series, intervals, seed, max_calls, metrics=None):
    """Everything a search reports, floats as hex."""
    with np.errstate(all="ignore"):  # NaN arithmetic of non-finite inputs
        return _search(series, intervals, seed, max_calls, metrics)


def _search(series, intervals, seed, max_calls, metrics):
    counter = DistanceCounter()
    budget = SearchBudget(max_calls=max_calls) if max_calls is not None else None
    result = find_discords(
        series, intervals, num_discords=3, seed=seed, counter=counter, budget=budget,
        metrics=metrics,
    )
    discords = [
        (d.start, d.end, d.rank, d.rule_id, d.score.hex(), d.nn_distance.hex())
        for d in result.discords
    ]
    nn_counter = DistanceCounter()
    profile = nearest_neighbor_distances(series, intervals, counter=nn_counter)
    return {
        "discords": discords,
        "status": result.status,
        "calls": counter.calls,
        "profile": [(p.start, p.end, value.hex()) for p, value in profile],
        "profile_calls": nn_counter.calls,
    }


def assert_core_equals_python(series, intervals, seed=0, max_calls=None):
    with c_core_gate("require"):
        got = _answers(series, intervals, seed, max_calls)
    with c_core_gate("off"):
        want = _answers(series, intervals, seed, max_calls)
    assert got == want


@st.composite
def tie_inputs(draw):
    """A motif series with ties, flat stretches, short and long
    candidates, rule keys, a seed and maybe a call budget."""
    block = draw(st.sampled_from([1, 2, 4]))
    motif = draw(st.lists(st.integers(0, 3), min_size=16, max_size=40))
    levels = np.tile(np.asarray(motif, dtype=float), draw(st.integers(5, 10)))
    for at, bump in draw(st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([1.0, 0.5, 2.0**-20])), max_size=4
    )):
        levels[at % levels.size] += bump
    if draw(st.booleans()):
        at = draw(st.integers(0, levels.size - 1))
        levels = np.insert(levels, at, np.full(draw(st.integers(8, 80)), levels[at]))
    series = np.repeat(levels, block)
    size = series.size
    length = st.one_of(
        st.sampled_from([2, 5, 31, 32, 33, 48, 64, 65, 96, 128]).map(lambda n: n * block),
        st.integers(2, size - 1),
    )
    intervals = []
    for n, where, rule, usage in draw(st.lists(
        st.tuples(length, st.floats(0, 1), st.integers(-1, 3), st.integers(0, 3)),
        min_size=2, max_size=16,
    )):
        n = min(n, size - 1)
        start = int(where * (size - n)) // block * block
        intervals.append(RuleInterval(rule, start, start + n, usage=usage))
    seed = draw(st.integers(0, 2**32 - 1))
    max_calls = draw(st.one_of(st.none(), st.integers(1, 300)))
    return series, intervals, seed, max_calls


@needs_core
class TestCoreEqualsPython:
    @given(tie_inputs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_property(self, case):
        """Discords (hex), ranks, ``calls``, status, the final RNG state
        and the nearest-neighbour profile are the Python loop's."""
        series, intervals, seed, max_calls = case
        assert_core_equals_python(series, intervals, seed, max_calls)

    @pytest.mark.parametrize("kind", KINDS)
    def test_adversarial_family(self, kind):
        """Exact ties at nearest-so-far, flat stretches, candidates shorter
        than the segment count, extreme length ratios with scratch growth
        and ``max_calls`` cut-offs."""
        for seed in range(40):
            series, intervals, max_calls = adversarial(kind, seed)
            assert_core_equals_python(series, intervals, seed, max_calls)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_values(self, value):
        """A non-finite value (or one whose square overflows) gives no
        bound: the core's scans then give the Python pair distances (NaN
        ones included) bit for bit.  A search refuses a non-finite series
        on either path; one whose square overflows it runs, and the same
        series without the value stays exact."""
        for seed in range(20):
            series, intervals, max_calls = adversarial("ties", seed)
            assert_core_equals_python(series, intervals, seed, max_calls)
            at = int(np.random.default_rng(seed).integers(0, series.size))
            series[at] = value
            if np.isfinite(value):
                assert_core_equals_python(series, intervals, seed, max_calls)
                continue
            for gate in ("require", "off"):
                with c_core_gate(gate), pytest.raises(DiscordSearchError, match=f"index {at}"):
                    find_discords(series, intervals, seed=seed)
            with np.errstate(all="ignore"), c_core_gate("require"):
                cache, reference = _CandidateSet(series), _CandidateSet(series, core=False)
                ids = cache.idents(intervals)
                for p, p_id in zip(intervals, ids.tolist()):
                    nearest = math.inf  # the scan's update: a NaN never lowers it
                    for q in intervals:
                        if is_non_self_match(p, q) and reference.pair_distance(p, q) < nearest:
                            nearest = reference.pair_distance(p, q)
                    assert cache.tables.nearest(p_id, ids)[0].hex() == nearest.hex()


def _reference_nearest(series, intervals):
    reference = _CandidateSet(series, core=False)
    return [
        min(
            (reference.pair_distance(p, q) for q in intervals if is_non_self_match(p, q)),
            default=math.inf,
        )
        for p in intervals
    ]


@needs_core
class TestBoundsSkipWork:
    def test_scans_skip_pairs_and_prune_offsets(self):
        """Core scans evaluate fewer pairs than they visit and fewer
        offsets than those pairs have, and still find each nearest
        distance bit for bit."""
        visited = offsets = 0
        work = np.zeros(2, dtype=np.int64)
        with c_core_gate("require"):
            for seed in range(60):
                series, intervals, _ = adversarial("ties", seed)
                cache = _CandidateSet(series)
                ids = cache.idents(intervals)
                for p, p_id, want in zip(intervals, ids.tolist(),
                                         _reference_nearest(series, intervals)):
                    got, calls = cache.tables.nearest(p_id, ids)
                    assert got.hex() == want.hex()
                    visited += calls
                    offsets += sum(
                        abs(q.length - p.length) + 1
                        for q in intervals if is_non_self_match(p, q)
                    )
                work += cache.tables.work
        pairs_evaluated, offsets_evaluated = work.tolist()
        assert 0 < pairs_evaluated < visited / 2
        assert 0 < offsets_evaluated < offsets / 4

    def test_rank_counters_report_physical_work(self):
        """``search.pairs_evaluated`` and ``search.offsets_evaluated`` are
        emitted next to the logical calls when metrics are enabled, and
        the answers are the Python loop's with and without them."""
        for seed in range(40):
            series, intervals, _ = adversarial("ties", seed)
            metrics = MetricsRegistry()
            with c_core_gate("require"):
                got = _answers(series, intervals, seed, None, metrics)
                plain = _answers(series, intervals, seed, None)
            with c_core_gate("off"):
                want = _answers(series, intervals, seed, None)
            assert got == plain == want
            counters = metrics.snapshot()["counters"]
            pairs = counters.get("search.pairs_evaluated", 0)
            assert pairs <= got["calls"]
            assert counters.get("search.offsets_evaluated", 0) >= pairs
            if seed == 0:
                assert 0 < pairs < got["calls"]

    def test_short_candidates_get_no_bound(self):
        """Below the segment count every visited pair is evaluated, and
        mixing such candidates with bounded ones stays exact."""
        rng = np.random.default_rng(3)
        series = np.cumsum(rng.normal(size=600))
        intervals = [RuleInterval(0, s, s + SEGMENTS - 1, usage=1) for s in range(0, 560, 40)]
        with c_core_gate("require"):
            cache = _CandidateSet(series)
            ids = cache.idents(intervals)
            visited = 0
            for p_id, want in zip(ids.tolist(), _reference_nearest(series, intervals)):
                got, calls = cache.tables.nearest(p_id, ids)
                assert got.hex() == want.hex()
                visited += calls
        # Each unordered pair is computed once (the memo has the other
        # order), at its one offset.
        assert cache.tables.work.tolist() == [visited // 2, visited // 2]
        for seed in range(40):
            series, intervals, _ = adversarial("short", seed)
            assert_core_equals_python(series, intervals, seed)


def _scan_reference(reference, p, subset):
    """The nearest distance of *p* over *subset*, as the Python loop's
    ``min`` takes it."""
    nearest = math.inf
    for q in subset:
        if is_non_self_match(p, q):
            dist = reference.pair_distance(p, q)
            if dist < nearest:
                nearest = dist
    return nearest


def _assert_memo_exact(cache, reference, intervals):
    """Every pair's distance read through the core's memo after the scans
    is the Python path's."""
    ids = cache.idents(intervals).tolist()
    for p, a in zip(intervals, ids):
        for q, b in zip(intervals, ids):
            assert cache.tables.distance(a, b).hex() == reference.pair_distance(p, q).hex()


@needs_core
class TestCappedPruning:
    """Offsets are pruned against ``min(m, T)``, ``T`` the scan's nearest
    squared and scaled, and a pair whose evaluation ends above ``T`` is
    proved to be at least ``nearest``: it yields no distance and is not
    memoized (DESIGN.md §20)."""

    def test_revisits_with_smaller_and_larger_nearest(self):
        """Scans of random subsets in random orders share one memo: a
        pair proved against one scan's nearest is revisited by scans whose
        nearest is smaller or larger, and by distance reads, and every
        scan's nearest is the Python minimum over its subset.  A build
        that kept a capped minimum as the pair's distance fails here."""
        draws = np.random.default_rng(11)
        with c_core_gate("require"):
            for seed in range(40):
                series, intervals, _ = adversarial("ties", seed)
                cache, reference = _CandidateSet(series), _CandidateSet(series, core=False)
                ids = cache.idents(intervals)
                for _ in range(4 * len(intervals)):
                    at = draws.permutation(len(intervals))[: int(draws.integers(1, len(intervals) + 1))]
                    p = int(draws.integers(0, len(intervals)))
                    got, _ = cache.tables.nearest(int(ids[p]), np.ascontiguousarray(ids[at]))
                    want = _scan_reference(reference, intervals[p], [intervals[j] for j in at])
                    assert got.hex() == want.hex()
                _assert_memo_exact(cache, reference, intervals)

    def test_proved_pairs_are_not_memoized(self):
        """Repeating the same scans evaluates again only the pairs that
        were proved after evaluating offsets (every other evaluated pair
        is memoized, and a skipped one is not counted), with the same
        answers; the proved pairs read back exact afterwards."""
        proved = 0
        with c_core_gate("require"):
            for seed in range(40):
                series, intervals, _ = adversarial("ratio", seed)
                cache, reference = _CandidateSet(series), _CandidateSet(series, core=False)
                ids = cache.idents(intervals)
                first = [cache.tables.nearest(p, ids) for p in ids.tolist()]
                before = cache.tables.work.tolist()
                again = [cache.tables.nearest(p, ids) for p in ids.tolist()]
                assert again == first
                repeated = cache.tables.work[0] - before[0]
                assert 0 <= repeated <= before[0]
                proved += repeated
                _assert_memo_exact(cache, reference, intervals)
        assert proved > 0

    def test_ties_at_the_cap(self):
        """Exact repeats of one window tie the scan's nearest, so their
        capped evaluations end within rounding of ``T``: whichever side of
        ``T`` they land, the nearest, the discords and the memo are
        exact.  (A pair that ends exactly at ``T`` is taken as exact; had
        it been proved instead, its distance would still be at least the
        nearest, so no decision could differ.)"""
        rng = np.random.default_rng(4)
        motif = rng.integers(0, 4, size=40).astype(float)
        series = np.tile(motif, 8)
        series[200] += 2.0**-20
        intervals = [
            RuleInterval(int(rng.integers(-1, 2)), s, s + n, usage=1)
            for s, n in ((0, 40), (40, 40), (80, 120), (120, 80), (160, 80),
                         (200, 40), (240, 48), (0, 96), (5, 64), (185, 90))
        ]
        with c_core_gate("require"):
            cache, reference = _CandidateSet(series), _CandidateSet(series, core=False)
            ids = cache.idents(intervals)
            for p, p_id in zip(intervals, ids.tolist()):
                for order in (ids, ids[::-1].copy()):
                    got, _ = cache.tables.nearest(p_id, order)
                    assert got.hex() == _scan_reference(reference, p, intervals).hex()
            _assert_memo_exact(cache, reference, intervals)
        for seed in range(10):
            assert_core_equals_python(series, intervals, seed)

    def test_zero_distances(self):
        """Flat windows are left unscaled and identical ones are at
        distance +0.0, after which a scan computes nothing more (no
        distance is below it)."""
        # The mean is exactly 0.0, so the flat stretches centre to zeros.
        wave = np.tile([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5, 1.5, -1.5], 20)
        series = np.concatenate([np.zeros(120), wave, np.zeros(120)])
        intervals = [RuleInterval(0, s, s + n, usage=1)
                     for s, n in ((0, 40), (60, 40), (330, 40), (380, 60), (130, 64), (200, 90))]
        with c_core_gate("require"):
            cache, reference = _CandidateSet(series), _CandidateSet(series, core=False)
            ids = cache.idents(intervals)
            got, _ = cache.tables.nearest(int(ids[0]), ids)
            assert got.hex() == _scan_reference(reference, intervals[0], intervals).hex() == "0x0.0p+0"
            _assert_memo_exact(cache, reference, intervals)
        for seed in range(5):
            assert_core_equals_python(series, intervals, seed)


@needs_core
class TestKeyIndex:
    def test_gaps_and_rules_of_one_or_many_ids(self):
        """Gap outers (every other candidate, shuffled) and rules with one
        or many same-key candidates, interleaved in candidate order: the
        core's inner orders give the Python loop's discords, ``calls``
        and RNG state."""
        for seed in range(30):
            series, intervals, max_calls = adversarial("ties", seed)
            rng = np.random.default_rng(seed)
            keys = rng.choice([-1, -1, 0, 1, 2, 5, 9], size=len(intervals))
            keys[rng.integers(0, len(intervals))] = 7  # a rule with one id
            intervals = [
                RuleInterval(int(k), iv.start, iv.end, usage=iv.usage)
                for k, iv in zip(keys, intervals)
            ]
            assert_core_equals_python(series, intervals, seed, max_calls)

    def test_one_rule_and_only_gaps(self):
        """All candidates of one rule (the rest is empty) and all gaps
        (no same-rule ids)."""
        series, intervals, _ = adversarial("ties", 3)
        for key in (0, -1):
            same = [RuleInterval(key, iv.start, iv.end, usage=1) for iv in intervals]
            assert_core_equals_python(series, same, 3)


def _parked():
    return eq1core.load().eq1_parked()


def _in_child(run):
    """``run()`` in a forked child, which starts with no pool of its own
    parked; returns its result (a ``repr``-able value)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.write(write, repr(run()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as pipe:
        report = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, report
    return eval(report)


def _pool_case(seed, length):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=length))
    intervals = [
        RuleInterval(int(rng.integers(-1, 3)), int(s), int(s + n), usage=int(rng.integers(0, 3)))
        for s, n in zip(rng.integers(0, length // 2, size=20),
                        rng.integers(20, length // 2, size=20))
    ]
    return series, intervals


@needs_core
class TestParkedPool:
    LENGTHS = (300, 1200, 200, 2400, 600, 2400, 100)

    def test_reuse_across_growing_and_shrinking_searches(self):
        """The pool of the last freed table serves the next search when it
        is large enough and is replaced by a larger one otherwise; every
        search is the Python loop's."""
        cases = [_pool_case(seed, n) for seed, n in enumerate(self.LENGTHS)]
        with c_core_gate("off"):
            want = [_answers(s, iv, seed, None) for seed, (s, iv) in enumerate(cases)]

        def searches():
            sizes = []
            for seed, (series, intervals) in enumerate(cases):
                assert _answers(series, intervals, seed, None) == want[seed]
                sizes.append(_parked())
            return sizes

        with c_core_gate("require"):
            eq1core.load()
            sizes = _in_child(searches)
        assert all(sizes)
        # A pool is replaced only by a larger one, and kept otherwise.
        assert sizes == list(np.maximum.accumulate(sizes))
        assert 1 < len(set(sizes)) < len(sizes)

    def test_search_in_a_forked_child(self):
        """A child forked after the parent parked a pool neither sees nor
        reuses it, and its search is the parent's."""
        series, intervals, _ = adversarial("ratio", 5)
        with c_core_gate("require"):
            want = _answers(series, intervals, 5, None)
            parked = _parked()
            assert parked > 0
            seen, same = _in_child(
                lambda: (_parked(), _answers(series, intervals, 5, None) == want)
            )
            assert (seen, same) == (0, True)
            assert _parked() == parked
