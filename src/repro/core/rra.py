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
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.anomaly import Discord
from repro.cache.results import discords_from_json, discords_to_json
from repro.discord.search import (
    DiscordSearchResult,
    RankState,
    ScanRun,
    SearchSession,
    iterated_search,
    rank_search,
)
from repro.exceptions import CheckpointError, DiscordSearchError
from repro.grammar.intervals import RuleInterval, RuleIntervalList, interval_endpoints
from repro.resilience.budget import SearchBudget
from repro.resilience.checkpoint import (
    load_checkpoint,
    restore_rng,
    rng_state_to_json,
    save_checkpoint,
    search_fingerprint,
)
from repro.timeseries import eq1core, kernels
from repro.timeseries.distance import DistanceCounter


def _admissible(intervals: Iterable[RuleInterval], size: int) -> RuleIntervalList:
    """The intervals RRA can search: inside the series, at least 2 long.

    Any iterable is converted to a :class:`RuleIntervalList` once.  A
    :class:`RuleIntervalList` whose intervals all qualify is returned
    as is, so a search that passes its admissible set on to each rank
    keeps one table (and one :meth:`_CandidateSet.idents` result) for
    all of them.
    """
    intervals = RuleIntervalList.of(intervals)
    _, starts, ends, _ = intervals.table
    keep = (ends <= size) & (ends - starts >= 2)
    return intervals if keep.all() else intervals.subset(keep)


def _outer_order(table: np.ndarray) -> np.ndarray:
    """RRA's outer order of the ``(4, n)`` candidate *table*: ascending
    rule usage (gaps first), ties by start, then end, then table row.

    ``np.lexsort`` is stable, so this is the stable ``sorted`` on the key
    ``(usage, start, end)``.
    """
    return np.lexsort((table[2], table[1], table[3]))


@dataclass
class _RankState(RankState):
    """:class:`~repro.discord.search.RankState` with what an RRA
    checkpoint records besides: the rank's ``(start, end, rule)``
    columns in outer order, a ``(3, n)`` int64 array, for its
    ``visited`` list and ``best_key``; and a resumed rank's
    ``best_key``, which :func:`_rra_rank` turns into ``best``.
    """

    outer: np.ndarray = field(
        default_factory=lambda: np.empty((3, 0), dtype=np.int64), repr=False
    )
    best_key: Optional[tuple[int, int, int]] = None


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

    def __init__(self, series: np.ndarray, *, core=True):
        self.series = np.ascontiguousarray(series, dtype=float)
        self._stats = kernels.SeriesStats(self.series)
        self._entries: dict[
            tuple[int, int], tuple[np.ndarray, float, np.ndarray]
        ] = {}
        # The C core's tables: ``core=True`` loads the core (None when it
        # is unavailable), ``False`` keeps the set on the Python path, and
        # a loaded library is used as given (the core's parity probe).
        lib = eq1core.load() if core is True else (core or None)
        self.tables = eq1core.Eq1Tables(lib) if lib is not None else None
        self._ids: dict[tuple[int, int], int] = {}
        # The last interval sequence given to idents() and its ids: every
        # rank of one search passes the same admissible table.
        self._last_idents: tuple[object, Optional[np.ndarray]] = (None, None)
        # Pair distances are symmetric and depend only on the interval
        # positions, so each distinct unordered pair is computed once per
        # search.  With the core loaded the memo lives in its tables.
        self._pair_distances: dict[tuple[int, int, int, int], float] = {}

    @property
    def stats(self) -> kernels.SeriesStats:
        """The cumulative-sum window statistics behind this cache."""
        return self._stats

    def _entry(self, start: int, end: int) -> tuple[np.ndarray, float, np.ndarray]:
        """``(values, sqnorm, sq_cumsum)`` of ``[start, end)``, cached."""
        entry = self._entries.get((start, end))
        if entry is None:
            values = self._stats.znorm(start, end)
            entry = (values, float(np.dot(values, values)), kernels.sq_cumsum(values))
            self._entries[(start, end)] = entry
        return entry

    def values(self, interval: RuleInterval) -> np.ndarray:
        """Z-normalized subsequence of *interval* (cached)."""
        return self._entry(interval.start, interval.end)[0]

    def idents(self, intervals: Sequence[RuleInterval]) -> np.ndarray:
        """The core's table ids of *intervals*' spans, as int64.

        Spans seen for the first time get their table entries built in
        the core, from the centred prefix sums of :attr:`stats`, in one
        call.  :meth:`pair_distance` computes the same floats in Python
        if it needs them.  A :class:`RuleIntervalList` is immutable, so
        asking again with the same one returns the ids computed the
        first time.
        """
        last, last_ids = self._last_idents
        if intervals is last:
            return last_ids
        starts, ends = interval_endpoints(intervals)
        ids = self._span_ids(list(zip(starts.tolist(), ends.tolist())))
        if isinstance(intervals, RuleIntervalList):
            self._last_idents = (intervals, ids)
        return ids

    def _span_ids(self, spans: list[tuple[int, int]]) -> np.ndarray:
        ids = self._ids
        new = [span for span in dict.fromkeys(spans) if span not in ids]
        if new:
            first = self.tables.add_spans(new, self._stats)
            ids.update(zip(new, range(first, first + len(new))))
        return np.fromiter(map(ids.__getitem__, spans), dtype=np.int64, count=len(spans))

    def pair_distance(self, p: RuleInterval, q: RuleInterval) -> float:
        """Vectorized Eq. 1 distance between two cached candidates.

        Equal lengths use the dot-product identity with the cached squared
        norms; unequal lengths take the minimum of the sliding-alignment
        profile (:func:`~repro.timeseries.kernels.aligned_min_distance`).
        The result is memoized per unordered pair (the distance is
        symmetric by construction: the shorter interval always plays the
        query role).  This is the reference the C core reproduces bit
        for bit; with the core loaded the core computes it.
        """
        if self.tables is not None:
            return self.tables.distance(
                *self._span_ids([(p.start, p.end), (q.start, q.end)]).tolist()
            )
        ps, pe, qs, qe = p.start, p.end, q.start, q.end
        key = (ps, pe, qs, qe) if ps < qs or (ps == qs and pe <= qe) else (qs, qe, ps, pe)
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
        self._pair_distances[key] = distance
        return distance


class _InnerOrdering:
    """Precomputed same-rule buckets for the RRA inner-loop ordering.

    Built once per :func:`_rra_rank` invocation over the (exclusion-
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


class _PythonRankRun(ScanRun):
    """An outer candidate of a rank without the C core: paper Algorithm 1's
    per-pair inner loop over :class:`_InnerOrdering`, with
    :meth:`_CandidateSet.pair_distance` as the distance."""

    def __init__(self, cache: _CandidateSet, candidates, order: np.ndarray, rng):
        super().__init__()
        objects = list(candidates)
        self._outer = [objects[j] for j in order.tolist()]
        self._ordering = _InnerOrdering(objects)
        self._distance = cache.pair_distance
        self._rng = rng

    def scan(self, i: int, best_dist: float) -> tuple[float, bool]:
        p = self._outer[i]
        p_start, p_length = p.start, p.end - p.start
        nearest, visited = math.inf, 0
        try:
            for q in self._ordering.order(p, self._rng):
                # Paper line 7: skip p itself and trivial self matches.
                if abs(p_start - q.start) <= p_length:
                    continue
                visited += 1
                dist = self._distance(p, q)
                if dist < best_dist:
                    return nearest, True  # p cannot beat the current best discord
                if dist < nearest:
                    nearest = dist
            return nearest, False
        finally:
            self.calls += visited

    def take_work(self) -> list[int]:
        """The core's work counters, which the Python loop leaves at zero."""
        return [0, 0]


def _rank_run(cache: _CandidateSet, valid: RuleIntervalList, rows: np.ndarray,
              order: np.ndarray, rng: np.random.Generator):
    """The stretch runner of the rank over *valid*'s *rows* in outer
    *order*: the C core's when *cache* has its tables, else the Python
    loop."""
    candidates = valid.subset(rows)
    if cache.tables is None:
        return _PythonRankRun(cache, candidates, order, rng)
    return eq1core.RankRun(
        cache.tables,
        cache.idents(valid)[rows],
        candidates.table[0].clip(_InnerOrdering._GAP),
        order.astype(np.int64),
        rng,
    )


def _rra_rank(
    series: np.ndarray,
    valid: RuleIntervalList,
    spans: Sequence[tuple[int, int]],
    *,
    cache: _CandidateSet,
    rng: np.random.Generator,
    counter: DistanceCounter,
    budget: SearchBudget,
    metrics,
    state: _RankState,
    on_boundary: Optional[Callable[[_RankState, int], int]] = None,
) -> Optional[Discord]:
    """One rank of :func:`find_discords` (paper Algorithm 1): the best
    discord among the admissible candidates *valid* that overlap no
    found discord's span in *spans*.

    *cache* is the search's :class:`_CandidateSet` over *series*, shared
    by every rank so the znorm and kernel-statistic caches are computed
    once; *counter*, *budget* and *metrics* are the search session's.
    The rank runs in :func:`~repro.discord.search.rank_search`, the
    outer-candidate loop of every engine, which records its boundaries
    in *state* and calls *on_boundary* (the checkpoint hook) at them.
    The budget's call ceiling is checked before every outer candidate;
    the whole budget (deadline, cancellation, a ``KeyboardInterrupt``)
    at every return of the C core, which runs at most
    :attr:`~repro.timeseries.eq1core.RankRun.MAX_OUTERS` outer
    candidates per call, and before every outer candidate on the Python
    path.  Returns ``None`` when no candidate has a non-self match.
    """
    # The rank's candidates are rows of the admissible table: the search
    # reads its columns, and only the Python runner builds objects.
    rows = np.flatnonzero(~valid.overlapping(spans))
    table = valid.table[:, rows]
    order = _outer_order(table)
    outer = table[[1, 2, 0]][:, order]
    state.outer = outer
    if state.best_key is not None:
        match = np.flatnonzero((outer.T == state.best_key).all(axis=1))
        state.best = int(match[0]) if match.size else None
    if rows.size:
        metrics.gauge("search.candidate_count").set(rows.size)
    run = _rank_run(cache, valid, rows, order, rng)
    return rank_search(
        outer[:2], run, source="rra", best_dist=0.0, rule_ids=outer[2],
        counter=counter, budget=budget, metrics=metrics,
        state=state, on_boundary=on_boundary,
        capture_rng=(lambda: rng_state_to_json(rng)) if on_boundary is not None else None,
        take_work=run.take_work,
    )


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
) -> DiscordSearchResult:
    """Iteratively extract up to *num_discords* ranked discords.

    Paper Algorithm 1 finds one discord among the candidate *intervals*
    (rule intervals plus zero-coverage gaps, a
    :class:`~repro.grammar.intervals.RuleIntervalList` or any iterable
    of :class:`~repro.grammar.intervals.RuleInterval`) of the 1-d
    *series*.  After each discovery the found interval is excluded
    (paper: "when run iteratively, excluding the current best discord
    from Intervals list, RRA outputs a ranked list of multiple
    co-existing discords of variable length"): each rank searches the
    candidates that overlap no discord found so far, run by the shared
    rank loop :func:`~repro.discord.search.iterated_search`.  The
    candidate cache (z-normalized subsequences and kernel statistics) is
    built once and shared across ranks.  *rng* orders each inner loop's
    tail; *counter* accumulates the distance calls.

    The search is *anytime*: give it a
    :class:`~repro.resilience.budget.SearchBudget` and it returns its
    best-so-far ranked list with ``status != COMPLETE`` when the budget
    trips (or on ``KeyboardInterrupt``) instead of raising.

    Parameters
    ----------
    budget:
        Wall-clock / distance-call / cancellation budget, checked at
        every outer-loop boundary.  Without one a ``KeyboardInterrupt``
        also ends the search with its best-so-far list, status
        ``CANCELLED``.
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
        call increment added to *counter*, flagged
        ``from_cache=True`` — and the hit short-circuits checkpointing
        entirely.  Only complete, untruncated results are ever stored;
        a resumed search that runs to completion populates the cache
        with the full run's calls, exactly as an uninterrupted run would
        have.
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
    if series.ndim != 1:
        raise DiscordSearchError(f"series must be 1-d, got shape {series.shape}")
    if rng is None:
        rng = np.random.default_rng(0)
    # One table for the whole search: the cache key, the fingerprint and
    # every rank read it.
    valid = _admissible(intervals, series.size)

    hit = session.lookup(series, valid, {"num_discords": int(num_discords)}, rng=rng)
    if hit is not None:
        # No candidate set and no checkpoint writes on a hit.
        return hit

    candidate_cache = _CandidateSet(series)

    fingerprint: Optional[str] = None
    if checkpoint_path is not None or resume_from is not None:
        fingerprint = search_fingerprint(
            series, valid, {"num_discords": num_discords}
        )

    # The exact discords so far, as a checkpoint records them (their
    # count is the rank being searched), and the state of that rank.
    exact: list[Discord] = []
    state = _RankState()
    if resume_from is not None:
        data = load_checkpoint(resume_from)
        if data.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {resume_from} was written for different search "
                f"inputs (series/candidates/parameters changed)"
            )
        exact = discords_from_json(data.get("discords", []))
        # An absolute overwrite: the counter now holds the prior partial
        # run's full tally, all of which the cache entry must count.
        counter.calls = int(data["ledger"]["calls"])
        session.calls_before = 0
        if data.get("rng_state") is not None:
            rng = restore_rng(data["rng_state"])
        if metrics.enabled:
            metrics.restore(data.get("metrics"), data.get("metric_events"))
            metrics.event(
                "checkpoint.resumed",
                path=resume_from,
                rank=int(data["rank"]),
                outer_index=int(data["outer_index"]),
            )
        if data.get("done"):
            return session.finish(exact, [True] * len(exact))
        best_key = data.get("best_key")
        state = _RankState(
            outer_index=int(data["outer_index"]),
            best_dist=float(data["best_dist"]),
            best_key=tuple(best_key) if best_key is not None else None,
            calls=counter.calls,
        )

    # -- checkpoint plumbing -------------------------------------------
    boundaries = 0

    def write(done: bool) -> None:
        if checkpoint_path is None:
            return
        if metrics.enabled:
            # Emitted before the snapshot so the persisted event stream
            # includes its own save marker.
            metrics.event(
                "checkpoint.saved",
                rank=len(exact),
                outer_index=state.outer_index,
                done=done,
            )
        save_checkpoint(
            checkpoint_path,
            {
                "fingerprint": fingerprint,
                "num_discords": num_discords,
                "discords": discords_to_json(exact),
                # Kept for the format; a resume derives them from "discords".
                "exclusions": [[d.start, d.end] for d in exact],
                "rank": len(exact),
                "outer_index": state.outer_index,
                "visited": state.outer[:2, : state.outer_index].T.tolist(),
                "best_dist": state.best_dist,
                "best_key": (
                    state.outer[:, state.best].tolist() if state.best is not None else None
                ),
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

    def on_boundary(rank_state: _RankState, crossed: int) -> int:
        """Count *crossed* more boundaries; at an open boundary whose count
        is a multiple of *checkpoint_every*, write a checkpoint.  Returns
        how many outer candidates may run before the next such boundary,
        so the core never runs past one."""
        nonlocal boundaries
        boundaries += crossed
        if not rank_state.complete and boundaries % checkpoint_every == 0:
            write(done=False)
        return checkpoint_every - boundaries % checkpoint_every

    def search(spans: tuple[tuple[int, int], ...]) -> Optional[Discord]:
        if checkpoint_path is not None:
            state.rng_state = rng_state_to_json(rng)
        return _rra_rank(
            series, valid, spans, cache=candidate_cache, rng=rng,
            counter=counter, budget=budget, metrics=metrics, state=state,
            on_boundary=on_boundary if checkpoint_path is not None else None,
        )

    def after_rank(found: Optional[Discord], complete: bool) -> None:
        """Checkpoint the end of a rank: a truncated rank at its last
        boundary, an exact one as boundary 0 of the next rank."""
        nonlocal state
        if found is None or not complete:
            write(done=complete)
            return
        exact.append(found)
        state = _RankState(calls=counter.calls)
        if checkpoint_path is not None:
            state.rng_state = rng_state_to_json(rng)
        write(done=len(exact) >= num_discords)

    return iterated_search(session, search, found=exact, after_rank=after_rank)


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
    candidates = _admissible(intervals, series.size)
    cache = _CandidateSet(series)
    tables = cache.tables
    results: list[tuple[RuleInterval, float]] = []
    if tables is not None:
        ids = cache.idents(candidates)
        for p, p_id in zip(candidates, ids.tolist()):
            nearest, calls = tables.nearest(p_id, ids)
            counter.batch(calls)
            results.append((p, nearest))
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
