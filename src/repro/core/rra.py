"""RRA — Rare Rule Anomaly discord discovery (paper Section 4.2, Algorithm 1).

RRA is a HOTSAX-style exact discord search whose candidate set is not the
set of all fixed-length sliding windows but the *variable-length*
subsequences corresponding to grammar rules (plus the zero-coverage gaps
that never made it into any rule):

* **Outer loop** — candidates in ascending order of their rule's usage
  frequency (gaps have frequency 0 and come first): the rarer the rule,
  the more likely its subsequence is the discord, and an early good
  ``best_so_far`` maximizes later pruning.
* **Inner loop** — for a candidate from rule R, other subsequences of the
  same rule R are visited first (they are near-identical, so a small
  distance is found quickly and the candidate is abandoned early); the
  remaining candidates follow in random order.
* **Distance** — Euclidean normalized by subsequence length (paper
  Eq. 1), computed between z-normalized subsequences; unequal lengths are
  aligned by sliding the shorter inside the longer (see DESIGN.md §5).
* **Early abandoning** — the inner loop breaks as soon as a distance
  below ``best_so_far`` is seen; the candidate cannot be the discord.

Every distance is drawn through a
:class:`~repro.timeseries.distance.DistanceCounter`, so call counts are
comparable with HOTSAX and brute force (Table 1).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core.anomaly import Anomaly, Discord
from repro.cache.results import discords_from_json, discords_to_json
from repro.discord.search import SearchSession, emit_rank_event
from repro.exceptions import CheckpointError, DiscordSearchError
from repro.grammar.intervals import RuleInterval
from repro.observability.metrics import ensure_metrics
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.resilience.checkpoint import (
    load_checkpoint,
    restore_rng,
    rng_state_to_json,
    save_checkpoint,
    search_fingerprint,
)
from repro.timeseries import eq1core, kernels
from repro.timeseries.distance import DistanceCounter


@dataclass
class RRAResult:
    """Outcome of an RRA search.

    Attributes
    ----------
    discords:
        Ranked discords (strongest first).
    distance_calls:
        Total distance-function invocations (Table 1 metric).
    candidate_count:
        Number of candidate intervals considered.
    status:
        How the search ended — ``COMPLETE`` (exact), or
        ``BUDGET_EXHAUSTED`` / ``CANCELLED`` with best-so-far contents.
    rank_complete:
        One flag per returned discord: True when that rank's scan
        visited every candidate (the discord is exact), False when the
        rank was truncated and its discord is only the best seen so far.
    degraded:
        True when the pipeline substituted rule-density intervals for
        missing discord ranks (see
        :meth:`repro.core.pipeline.GrammarAnomalyDetector.discords`).
    fallback:
        Ranked rule-density anomalies supplied as a degraded substitute
        for the ranks the budget did not allow RRA to compute.
    """

    discords: list[Discord] = field(default_factory=list)
    distance_calls: int = 0
    candidate_count: int = 0
    status: SearchStatus = SearchStatus.COMPLETE
    rank_complete: list[bool] = field(default_factory=list)
    degraded: bool = False
    fallback: list[Anomaly] = field(default_factory=list)
    from_cache: bool = False

    @property
    def best(self) -> Optional[Discord]:
        return self.discords[0] if self.discords else None

    @property
    def complete(self) -> bool:
        """True when the search ran to exact completion."""
        return self.status is SearchStatus.COMPLETE


@dataclass
class _RankState:
    """Mutable per-rank search state at an outer-loop boundary.

    The boundary before outer candidate *outer_index* is a deterministic
    point of the search: candidates ``outer[:outer_index]`` are fully
    processed, the counter reads *calls*, and the RNG (captured *before*
    the candidate's inner-loop shuffle) is in *rng_state*.  Restoring
    these four values and re-entering the loop reproduces the
    uninterrupted run bit-for-bit.
    """

    outer_index: int = 0
    best_dist: float = 0.0
    best_key: Optional[tuple[int, int, int]] = None
    calls: int = 0
    rng_state: Optional[dict] = None
    complete: bool = False


class _CandidateSet:
    """Candidate intervals with cached kernel statistics.

    Z-normalization of every interval comes from one O(m) pass of
    cumulative sums over the series (:class:`~repro.timeseries.kernels.
    SeriesStats`) instead of a per-window ``znorm`` call.  Each distinct
    interval gets one cached entry ``(values, sqnorm, sq_cumsum)``: the
    normalized values, their squared norm, and their squared cumulative
    sum (the window energies when the interval plays the "long" role of
    an unequal-length comparison).  One instance is shared across the
    ranks of an iterative :func:`find_discords` extraction.
    """

    def __init__(
        self,
        series: np.ndarray,
        *,
        stats: Optional[kernels.SeriesStats] = None,
        core=True,
    ):
        self.series = np.ascontiguousarray(series, dtype=float)
        # A prebuilt SeriesStats (from a SearchContext) is reused instead
        # of re-deriving the cumulative sums.
        self._stats = stats if stats is not None else kernels.SeriesStats(self.series)
        self._entries: dict[
            tuple[int, int], tuple[np.ndarray, float, np.ndarray]
        ] = {}
        # The C core's tables: ``core=True`` loads the core (None when it
        # is unavailable), ``False`` keeps the set on the Python path, and
        # a loaded library is used as given (the core's parity probe).
        lib = eq1core.load() if core is True else (core or None)
        self.tables = eq1core.Eq1Tables(lib) if lib is not None else None
        self._ids: dict[tuple[int, int], int] = {}
        # Pair distances are symmetric and depend only on the interval
        # positions, so each distinct unordered pair is computed once —
        # within a search and, when a SearchContext keeps this set
        # alive, across repeated searches over the same candidates.  With
        # the core loaded the memo lives in its tables.
        self._pair_distances: dict[tuple[int, int, int, int], float] = {}

    @property
    def stats(self) -> kernels.SeriesStats:
        """The cumulative-sum window statistics behind this cache."""
        return self._stats

    def _entry(
        self, start: int, end: int, *, keep: bool = True
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """``(values, sqnorm, sq_cumsum)`` of ``[start, end)``, cached
        unless *keep* is False."""
        entry = self._entries.get((start, end))
        if entry is None:
            values = self._stats.znorm(start, end)
            entry = (values, float(np.dot(values, values)), kernels.sq_cumsum(values))
            if keep:
                self._entries[(start, end)] = entry
        return entry

    def values(self, interval: RuleInterval) -> np.ndarray:
        """Z-normalized subsequence of *interval* (cached)."""
        return self._entry(interval.start, interval.end)[0]

    def idents(self, intervals: Sequence[RuleInterval]) -> np.ndarray:
        """The core's table ids of *intervals*' spans, as int64.

        Spans seen for the first time are copied from their entries into
        the core's tables, a few hundred per call.  The copy is the only
        one kept: the core path never reads the Python entries again, and
        :meth:`pair_distance` recomputes the same floats if it needs them.
        """
        ids = self._ids
        new = [
            span
            for span in dict.fromkeys((iv.start, iv.end) for iv in intervals)
            if span not in ids
        ]
        for lo in range(0, len(new), 256):
            spans = new[lo : lo + 256]
            first = self.tables.add_many(
                [start for start, _ in spans],
                [self._entry(*span, keep=False) for span in spans],
            )
            ids.update(zip(spans, range(first, first + len(spans))))
        return np.fromiter(
            (ids[iv.start, iv.end] for iv in intervals), dtype=np.int64,
            count=len(intervals),
        )

    def pair_distance(self, p: RuleInterval, q: RuleInterval) -> float:
        """Vectorized Eq. 1 distance between two cached candidates.

        Equal lengths use the dot-product identity with the cached squared
        norms; unequal lengths take the minimum of the sliding-alignment
        profile (:func:`~repro.timeseries.kernels.aligned_min_distance`).
        The result is memoized per unordered pair (the distance is
        symmetric by construction: the shorter interval always plays the
        query role).  This is the reference the C core reproduces bit
        for bit; with the core loaded it reads and writes the core's memo.
        """
        ps, pe, qs, qe = p.start, p.end, q.start, q.end
        tables = self.tables
        if tables is not None:
            a, b = self.idents([p, q]).tolist()
            distance = tables.memo_get(a, b)
        else:
            if ps < qs or (ps == qs and pe <= qe):
                key = (ps, pe, qs, qe)
            else:
                key = (qs, qe, ps, pe)
            distance = self._pair_distances.get(key)
        if distance is not None:
            return distance
        a_values, a_sqnorm, a_cumsum = self._entry(ps, pe)
        b_values, b_sqnorm, b_cumsum = self._entry(qs, qe)
        n = pe - ps
        if n == qe - qs:
            sq = a_sqnorm + b_sqnorm - 2.0 * float(np.dot(a_values, b_values))
            distance = math.sqrt(max(sq, 0.0) / n)
        elif n < qe - qs:
            distance = kernels.aligned_min_distance(a_values, a_sqnorm, b_values, b_cumsum)
        else:
            distance = kernels.aligned_min_distance(b_values, b_sqnorm, a_values, a_cumsum)
        if tables is not None:
            tables.memo_put(a, b, distance)
        else:
            self._pair_distances[key] = distance
        return distance


class _InnerOrdering:
    """Precomputed same-rule buckets for the RRA inner-loop ordering.

    Built once per :func:`find_discord` invocation over the (exclusion-
    filtered) candidate list, so ordering a candidate's inner loop no
    longer rescans all candidates with a Python predicate per outer
    iteration — it chains a cached bucket with a lazily permuted cached
    complement.
    """

    #: Bucket key for gap candidates (any negative rule id).
    _GAP = -1

    def __init__(self, candidates: list[RuleInterval]):
        self._candidates = candidates
        self._same_rule: dict[int, list[RuleInterval]] = defaultdict(list)
        for iv in candidates:
            if iv.rule_id >= 0:
                self._same_rule[iv.rule_id].append(iv)
        self._rest: dict[int, list[RuleInterval]] = {}

    def _rest_for(self, candidate: RuleInterval) -> list[RuleInterval]:
        key = candidate.rule_id if candidate.rule_id >= 0 else self._GAP
        rest = self._rest.get(key)
        if rest is None:
            if key == self._GAP:
                rest = self._candidates
            else:
                rest = [iv for iv in self._candidates if iv.rule_id != key]
            self._rest[key] = rest
        return rest

    def order(
        self, candidate: RuleInterval, rng: np.random.Generator
    ) -> Iterator[RuleInterval]:
        """Same-rule intervals first, then the rest shuffled.

        The shuffle is one ``Generator.permutation(len(rest))`` draw
        (vectorized index permutation rather than an in-place Python-list
        Fisher–Yates): faster, and its RNG consumption depends only on
        the tail *length*.
        The permutation is drawn here, on the call; the returned iterator
        then maps indices to intervals lazily, since most candidates are
        abandoned after the first pair or two.
        """
        key = candidate.rule_id if candidate.rule_id >= 0 else self._GAP
        rest = self._rest_for(candidate)
        same_rule = self._same_rule[key] if key != self._GAP else ()
        perm = rng.permutation(len(rest))
        return chain(same_rule, map(rest.__getitem__, perm))


class _CoreScan:
    """:func:`find_discord`'s inner loop in the C core, one outer candidate
    per call.

    The same order as :class:`_InnerOrdering` — the same-rule bucket in
    candidate order, then the rest permuted — but as table-id arrays
    whose addresses are taken once per rule, so a call passes nothing it
    has to compute.  The permutation is ``rng.permutation(len(rest))``
    written into a per-rule buffer: that call is ``arange`` then
    ``shuffle``, so resetting the buffer to ``arange`` and shuffling it
    in place makes the same draws and the same permutation.
    """

    def __init__(self, cache: _CandidateSet, candidates: list[RuleInterval]):
        self.tables = cache.tables
        self._ids = cache.idents(candidates)
        self._span_ids = cache._ids
        self._rules = np.asarray([iv.rule_id for iv in candidates], dtype=np.int64)
        self._buckets: dict[int, tuple] = {}

    def _bucket(self, key: int) -> tuple:
        if key == _InnerOrdering._GAP:
            same, rest = self._ids[:0], self._ids
        else:
            same = self._ids[self._rules == key]
            rest = self._ids[self._rules != key]
        identity = np.arange(rest.size)
        perm = identity.copy()
        # The last field keeps the id arrays (and so their addresses) alive.
        bucket = (
            same.ctypes.data, same.size, rest.ctypes.data, rest.size,
            identity, perm, perm.ctypes.data, (same, rest),
        )
        self._buckets[key] = bucket
        return bucket

    def __call__(
        self, p: RuleInterval, rng: np.random.Generator, best_dist: float
    ) -> tuple[bool, float]:
        """``(abandoned, nearest)`` for outer candidate *p*.

        The visited-pair count stays in ``tables.calls`` for the caller
        to flush.
        """
        key = p.rule_id if p.rule_id >= 0 else _InnerOrdering._GAP
        bucket = self._buckets.get(key) or self._bucket(key)
        same, n_same, rest, n_rest, identity, perm, perm_ptr, _ = bucket
        np.copyto(perm, identity)
        rng.shuffle(perm)
        abandoned = self.tables.scan(
            self._span_ids[p.start, p.end], same, n_same, rest, perm_ptr,
            n_rest, best_dist,
        )
        return abandoned, self.tables.nearest.value


def find_discord(
    series: np.ndarray,
    intervals: Sequence[RuleInterval],
    *,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    exclude: Sequence[tuple[int, int]] = (),
    cache: Optional[_CandidateSet] = None,
    budget: Optional[SearchBudget] = None,
    metrics=None,
    _state: Optional[_RankState] = None,
    _on_boundary: Optional[Callable[[_RankState, list[RuleInterval]], None]] = None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """Find the single best variable-length discord (paper Algorithm 1).

    Parameters
    ----------
    series:
        The raw time series.
    intervals:
        Candidate intervals: rule intervals plus zero-coverage gaps.
    counter:
        Distance counter to accumulate into; a fresh one by default.
    rng:
        Source of randomness for the inner-loop ordering.
    exclude:
        Half-open ``(start, end)`` ranges; candidates overlapping any of
        them are skipped (used for iterative multi-discord extraction).
    cache:
        Prebuilt :class:`_CandidateSet` over *series*,
        reused across the ranks of an iterative extraction so the znorm
        and kernel-statistic caches are computed once.
    budget:
        Optional :class:`~repro.resilience.budget.SearchBudget` checked
        once per outer candidate.  When it trips (deadline, call
        ceiling, cancellation, or a ``KeyboardInterrupt`` during the
        scan) the function returns its best-so-far discord instead of
        raising; read the outcome from ``budget.status``.  Without a
        budget the search behaves exactly as before (and a
        ``KeyboardInterrupt`` propagates, since there would be no way to
        report the truncation).
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`.
        When enabled, the search counts candidates visited / abandoned /
        survived, histograms early-abandon depths, and routes budget
        trips into the trace-event stream.  The default (disabled) sink
        adds no work to the hot loop: results and logical call counts
        are byte-identical with or without it.

    Returns
    -------
    (discord or None, counter)
        None when no candidate has a non-self match (degenerate input).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise DiscordSearchError(f"series must be 1-d, got shape {series.shape}")
    if counter is None:
        counter = DistanceCounter()
    if rng is None:
        rng = np.random.default_rng(0)
    # A budget or an externally owned state object gives the caller a
    # channel to observe truncation; only then may interrupts be
    # swallowed into a best-so-far return.
    has_channel = budget is not None or _state is not None
    if budget is None:
        budget = SearchBudget.unlimited()
    metrics = ensure_metrics(metrics)
    budget.bind_metrics(metrics)
    state = _state if _state is not None else _RankState()
    capture_rng = _on_boundary is not None

    candidates = [
        iv
        for iv in intervals
        if iv.end <= series.size
        and iv.length >= 2
        and not any(iv.start < ex_end and ex_start < iv.end for ex_start, ex_end in exclude)
    ]
    if not candidates:
        state.complete = True
        return None, counter

    if cache is None:
        cache = _CandidateSet(series)
    if cache.tables is not None:
        scan: Optional[_CoreScan] = _CoreScan(cache, candidates)
    else:
        scan = None
        ordering = _InnerOrdering(candidates)
        distance = cache.pair_distance

    # Outer ordering: ascending rule usage (gaps first), deterministic
    # tie-break by position.
    outer = sorted(candidates, key=lambda iv: (iv.usage, iv.start, iv.end))
    by_key = {(iv.start, iv.end, iv.rule_id): iv for iv in candidates}

    best_dist = state.best_dist
    best_candidate: Optional[RuleInterval] = (
        by_key.get(state.best_key) if state.best_key is not None else None
    )

    instrumented = metrics.enabled
    if instrumented:
        metrics.gauge("search.candidate_count").set(len(outer))
        m_visited = metrics.counter("search.candidates_visited")
        m_abandoned = metrics.counter("search.candidates_abandoned")
        m_survived = metrics.counter("search.candidates_survived")
        m_best = metrics.counter("search.best_updates")
        m_depth = metrics.histogram("search.abandon_depth")

    try:
        for i in range(state.outer_index, len(outer)):
            # Record the boundary *before* consuming any randomness or
            # distance calls for candidate i: this is the deterministic
            # point a checkpoint resumes from.
            state.outer_index = i
            state.calls = counter.calls
            if capture_rng:
                state.rng_state = rng_state_to_json(rng)
            if budget.interrupted(counter.calls) is not None:
                break
            if _on_boundary is not None:
                _on_boundary(state, outer)
            p = outer[i]
            # Pair visits are tallied per candidate and flushed once; the
            # flush sits in ``finally`` so an interrupt mid-scan (or right
            # after the core returns) leaves the counter exactly where
            # per-pair counting would have, the interrupted pair included.
            if scan is not None:
                try:
                    abandoned, nearest = scan(p, rng, best_dist)
                finally:
                    counter.batch(scan.tables.take_calls())
            else:
                p_start = p.start
                p_length = p.end - p_start
                nearest = math.inf
                abandoned = False
                kernel_calls = 0
                try:
                    for q in ordering.order(p, rng):
                        # Paper line 7: skip p itself and trivial self matches.
                        if abs(p_start - q.start) <= p_length:
                            continue
                        kernel_calls += 1
                        dist = distance(p, q)
                        if dist < best_dist:
                            # p cannot beat the current best discord.
                            abandoned = True
                            break
                        if dist < nearest:
                            nearest = dist
                finally:
                    counter.batch(kernel_calls)
            if instrumented:
                m_visited.inc()
                if abandoned:
                    m_abandoned.inc()
                    # state.calls still holds the boundary value, so the
                    # delta is this candidate's inner-loop cost.
                    m_depth.observe(counter.calls - state.calls)
                else:
                    m_survived.inc()
            if not abandoned and nearest < math.inf and nearest > best_dist:
                best_dist = nearest
                best_candidate = p
                state.best_dist = nearest
                state.best_key = (p.start, p.end, p.rule_id)
                if instrumented:
                    m_best.inc()
        else:
            state.outer_index = len(outer)
            state.calls = counter.calls
            if capture_rng:
                state.rng_state = rng_state_to_json(rng)
            state.complete = True
    except KeyboardInterrupt:
        if not has_channel:
            raise
        # The aborted candidate's partial work is discarded: the state
        # still describes the last completed boundary, so a resumed run
        # replays candidate i in full and stays bit-identical.
        budget.note_cancelled()

    if best_candidate is None:
        return None, counter
    discord = Discord(
        start=best_candidate.start,
        end=best_candidate.end,
        score=best_dist,
        rank=0,
        nn_distance=best_dist,
        rule_id=best_candidate.rule_id,
        source="rra",
    )
    return discord, counter


def find_discords(
    series: np.ndarray,
    intervals: Sequence[RuleInterval],
    *,
    num_discords: int = 1,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    budget: Optional[SearchBudget] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 32,
    resume_from: Optional[str] = None,
    metrics=None,
    cache=None,
    context=None,
) -> RRAResult:
    """Iteratively extract up to *num_discords* ranked discords.

    After each discovery the found interval is excluded (paper: "when run
    iteratively, excluding the current best discord from Intervals list,
    RRA outputs a ranked list of multiple co-existing discords of
    variable length").  The candidate cache (z-normalized subsequences
    and kernel statistics) is built once and shared across ranks.

    The search is *anytime*: give it a
    :class:`~repro.resilience.budget.SearchBudget` and it returns its
    best-so-far ranked list with ``status != COMPLETE`` when the budget
    trips (or on ``KeyboardInterrupt``) instead of raising.

    Parameters
    ----------
    budget:
        Wall-clock / distance-call / cancellation budget, checked at
        every outer-loop boundary.
    checkpoint_path:
        When set, the search state is autosaved to this JSON file every
        *checkpoint_every* outer candidates, after every completed rank,
        and on interruption, so a killed run can be resumed.
    checkpoint_every:
        Autosave cadence in outer-loop boundaries.
    resume_from:
        Path of a checkpoint written by a previous (interrupted) run
        over the *same* series, intervals, and parameters.  The run
        continues from the recorded boundary and its final output —
        discords and distance-call count — is bit-identical to an
        uninterrupted run.  Raises
        :class:`~repro.exceptions.CheckpointError` on a fingerprint
        mismatch.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`.
        Each rank becomes a ``search.rank`` span closed by a
        ``search.rank_complete`` event carrying the rank's ledger slice;
        checkpoint writes/resumes and budget trips join the event
        stream, and checkpoints persist the registry snapshot so a
        resumed run's report reads as one continuous stream.
    cache:
        Optional :class:`~repro.cache.store.ResultCache`.  An identical
        previous search (same series, candidates, parameters and RNG
        state) is served from disk: same discords, same
        call-ledger increments applied to *counter*, flagged
        ``from_cache=True`` — and the hit short-circuits checkpointing
        entirely.  Only complete, untruncated results are ever stored;
        a resumed search that runs to completion populates the cache
        with the full-run ledger, exactly as an uninterrupted run would
        have.
    context:
        Optional :class:`~repro.cache.context.SearchContext` sharing the
        series' cumulative-sum statistics across searches.
    """
    session = SearchSession(
        "rra", num_discords=num_discords, counter=counter,
        budget=budget, metrics=metrics, cache=cache,
    )
    if checkpoint_every < 1:
        raise DiscordSearchError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    counter, budget, metrics = session.counter, session.budget, session.metrics
    series = np.asarray(series, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)

    # Materialized once: an iterator would be used up by the count.
    intervals = list(intervals)
    result = RRAResult(candidate_count=len(intervals))
    valid = [
        iv for iv in intervals if iv.end <= series.size and iv.length >= 2
    ]

    cached = session.lookup(
        series, valid, {"num_discords": int(num_discords)}, rng=rng
    )
    if cached is not None:
        # Hit: the stored discords and ledger increments, applied to the
        # live counter — and no candidate set, no checkpoint writes.
        result.discords = cached
        result.rank_complete = [True] * len(cached)
        result.distance_calls = counter.calls
        result.from_cache = True
        return result

    if context is not None:
        # The context keeps the whole candidate set (normalized values,
        # norms, pair distances) alive across searches over the same
        # grammar — a repeated search recomputes no distances.
        candidate_cache = context.rra_candidate_set(series, valid)
    else:
        candidate_cache = _CandidateSet(series)

    fingerprint: Optional[str] = None
    if checkpoint_path is not None or resume_from is not None:
        fingerprint = search_fingerprint(
            series, valid, {"num_discords": num_discords}
        )

    exclusions: list[tuple[int, int]] = []
    start_rank = 0
    resumed_state: Optional[_RankState] = None
    if resume_from is not None:
        data = load_checkpoint(resume_from)
        if data.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {resume_from} was written for different search "
                f"inputs (series/candidates/parameters changed)"
            )
        result.discords = discords_from_json(data.get("discords", []))
        result.rank_complete = [True] * len(result.discords)
        exclusions = [tuple(pair) for pair in data.get("exclusions", [])]
        # restore_ledger is an absolute overwrite: the counter now holds
        # the prior partial run's full tally.
        counter.restore_ledger(data["ledger"])
        session.restart_ledger()
        start_rank = int(data["rank"])
        if data.get("rng_state") is not None:
            rng = restore_rng(data["rng_state"])
        if metrics.enabled:
            metrics.restore(data.get("metrics"), data.get("metric_events"))
            metrics.event(
                "checkpoint.resumed",
                path=resume_from,
                rank=start_rank,
                outer_index=int(data["outer_index"]),
            )
        if data.get("done"):
            result.distance_calls = counter.calls
            session.store(result.discords, result.rank_complete, result.status)
            return result
        best_key = data.get("best_key")
        resumed_state = _RankState(
            outer_index=int(data["outer_index"]),
            best_dist=float(data["best_dist"]),
            best_key=tuple(best_key) if best_key is not None else None,
            calls=counter.calls,
        )

    # -- checkpoint plumbing -------------------------------------------
    current_rank = [start_rank]
    boundary_count = [0]

    def _write(state: _RankState, outer: list[RuleInterval], done: bool) -> None:
        if metrics.enabled:
            # Emitted before the snapshot so the persisted event stream
            # includes its own save marker.
            metrics.event(
                "checkpoint.saved",
                rank=current_rank[0],
                outer_index=state.outer_index,
                done=done,
            )
        save_checkpoint(
            checkpoint_path,
            {
                "fingerprint": fingerprint,
                "num_discords": num_discords,
                "discords": discords_to_json(
                    d
                    for d, ok in zip(result.discords, result.rank_complete)
                    if ok
                ),
                "exclusions": [list(pair) for pair in exclusions],
                "rank": current_rank[0],
                "outer_index": state.outer_index,
                "visited": [
                    [iv.start, iv.end] for iv in outer[: state.outer_index]
                ],
                "best_dist": state.best_dist,
                "best_key": list(state.best_key) if state.best_key else None,
                "distance_calls": state.calls,
                "ledger": {"calls": state.calls},
                "rng_state": state.rng_state,
                "candidate_count": len(valid),
                "done": done,
                "status": budget.status.value,
                **(
                    {
                        "metrics": metrics.snapshot(),
                        "metric_events": metrics.events,
                    }
                    if metrics.enabled
                    else {}
                ),
            },
        )

    def _on_boundary(state: _RankState, outer: list[RuleInterval]) -> None:
        boundary_count[0] += 1
        if boundary_count[0] % checkpoint_every == 0:
            _write(state, outer, done=False)

    on_boundary = _on_boundary if checkpoint_path is not None else None
    last_outer: list[RuleInterval] = []

    for rank in range(start_rank, num_discords):
        current_rank[0] = rank
        state = resumed_state if rank == start_rank and resumed_state else _RankState()
        if checkpoint_path is not None:
            state.rng_state = rng_state_to_json(rng)
        rank_ledger = counter.ledger() if metrics.enabled else None
        with metrics.span("search.rank", source="rra", rank=rank):
            discord, counter = find_discord(
                series,
                valid,
                counter=counter,
                rng=rng,
                exclude=exclusions,
                cache=candidate_cache,
                budget=budget,
                metrics=metrics,
                _state=state,
                _on_boundary=on_boundary,
            )
        if metrics.enabled:
            emit_rank_event(
                metrics, "rra", rank, rank_ledger, counter, discord,
                exact=state.complete,
            )
        if checkpoint_path is not None:
            # Only needed for the final interruption write below.
            last_outer = sorted(
                (
                    iv
                    for iv in valid
                    if not any(
                        iv.start < ex_end and ex_start < iv.end
                        for ex_start, ex_end in exclusions
                    )
                ),
                key=lambda iv: (iv.usage, iv.start, iv.end),
            )
        if not state.complete:
            result.status = budget.status
            if discord is not None:
                result.discords.append(
                    Discord(
                        start=discord.start,
                        end=discord.end,
                        score=discord.score,
                        rank=rank,
                        nn_distance=discord.nn_distance,
                        rule_id=discord.rule_id,
                        source="rra",
                    )
                )
                result.rank_complete.append(False)
            if checkpoint_path is not None:
                _write(state, last_outer, done=False)
            break
        if discord is None:
            if checkpoint_path is not None:
                current_rank[0] = rank
                _write(state, last_outer, done=True)
            break
        ranked = Discord(
            start=discord.start,
            end=discord.end,
            score=discord.score,
            rank=rank,
            nn_distance=discord.nn_distance,
            rule_id=discord.rule_id,
            source="rra",
        )
        result.discords.append(ranked)
        result.rank_complete.append(True)
        exclusions.append((discord.start, discord.end))
        if checkpoint_path is not None:
            current_rank[0] = rank + 1
            _write(
                _RankState(calls=counter.calls, rng_state=rng_state_to_json(rng)),
                [],
                done=(rank + 1 >= num_discords),
            )
    result.distance_calls = counter.calls
    session.store(result.discords, result.rank_complete, result.status)
    return result


def nearest_neighbor_distances(
    series: np.ndarray,
    intervals: Sequence[RuleInterval],
    *,
    counter: Optional[DistanceCounter] = None,
) -> list[tuple[RuleInterval, float]]:
    """Exact nearest-non-self-match distance for every candidate interval.

    This is what the bottom panels of the paper's Figures 2, 3 and 7
    plot: a vertical line at each rule-interval start whose height is the
    distance to the interval's nearest non-self match.  O(k^2) distance
    calls — intended for analysis/visualization, not for search.

    Every value is the minimum of :meth:`_CandidateSet.pair_distance`
    over the candidate's non-self matches, so the profile at a discord's
    interval equals the search's ``nn_distance``.  With the C core loaded
    each candidate is one core scan with ``best_dist = 0.0``, which never
    abandons.  Accounting is one logical call per non-self-match pair.
    """
    series = np.asarray(series, dtype=float)
    if counter is None:
        counter = DistanceCounter()
    candidates = [iv for iv in intervals if iv.end <= series.size and iv.length >= 2]
    cache = _CandidateSet(series)
    tables = cache.tables
    results: list[tuple[RuleInterval, float]] = []
    if tables is not None:
        ids = cache.idents(candidates)
        for p, p_id in zip(candidates, ids.tolist()):
            try:
                tables.scan(p_id, None, 0, ids.ctypes.data, None, ids.size, 0.0)
            finally:
                counter.batch(tables.take_calls())
            results.append((p, tables.nearest.value))
        return results
    for p in candidates:
        nearest = math.inf
        calls = 0
        for q in candidates:
            # Paper line 7: skip p itself and trivial self matches.
            if abs(p.start - q.start) <= p.length:
                continue
            calls += 1
            dist = cache.pair_distance(p, q)
            if dist < nearest:
                nearest = dist
        counter.batch(calls)
        results.append((p, nearest))
    return results
