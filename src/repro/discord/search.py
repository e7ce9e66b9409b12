"""The shared discord-search driver.

Each engine has one entry point, its ``*_discords`` top-k search (RRA,
HOTSAX, Haar, brute force).  This module holds what the four share:

* :class:`SearchSession` — ``num_discords`` validation, the counter and
  budget defaults, metrics binding, and the result-cache lookup, call
  replay and store;
* :func:`iterated_search` — top-k extraction by repeated search, each
  rank excluding the candidates that overlap a discord already found:
  the one loop over ranks of all four engines;
* :func:`rank_search` — one rank, the one outer-candidate loop of all
  four engines: budget checks, interrupts, call accounting, search
  metrics, the best-so-far update and the returned discord.  Each
  engine hands it its outer candidates and a stretch runner: the RRA
  core's :class:`~repro.timeseries.eq1core.RankRun`, or a
  :class:`ScanRun` over a Python inner loop;
* :class:`DiscordSearchResult` — the one search result;
* :func:`fixed_length_discords` — the fixed-length engines' top-k
  search, and :func:`bucket_rank`, the one rank of HOTSAX (SAX words)
  and the Haar-transform variant (paper related work: Fu et al. 2006,
  Bu et al. 2007), which differ only in *how candidate windows are
  grouped into buckets*: outer loop over candidates in ascending bucket
  size, inner loop visiting same-bucket windows first with early
  abandoning.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.core.anomaly import Anomaly, Discord
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import ensure_metrics
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.windows import num_windows

#: One rank's search: the ``(start, end)`` spans of the discords found
#: so far -> the best discord among the candidates overlapping none.
RankSearch = Callable[[tuple[tuple[int, int], ...]], Optional[Discord]]


@dataclass
class DiscordSearchResult:
    """Outcome of a discord search, shared by all four engines.

    Attributes
    ----------
    discords:
        Ranked discords (strongest first).  Sequence-compatible with a
        plain ``list[Discord]``: ``len`` / indexing / iteration delegate
        to this list.
    distance_calls:
        The counter's total distance calls (Table 1 metric).
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
        for the ranks the budget did not allow the search to compute.
    from_cache:
        True when the result was served from a result cache.
    """

    discords: list[Discord] = field(default_factory=list)
    distance_calls: int = 0
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

    def __len__(self) -> int:
        return len(self.discords)

    def __getitem__(self, index):
        return self.discords[index]

    def __iter__(self) -> Iterator[Discord]:
        return iter(self.discords)


class SearchSession:
    """Set-up and result-cache bookkeeping around one ``*_discords`` call.

    Validates *num_discords*, supplies the default counter and budget,
    and binds *metrics* to the budget.  With a *cache* (a
    :class:`~repro.cache.store.ResultCache`), :meth:`lookup` serves an
    identical previous search — its discords, with the stored call
    increment replayed onto :attr:`counter` — and :meth:`finish` saves
    a complete, untruncated result.  Without one, both only build the
    result.

    A cache entry's ``"ledger"`` is ``{"calls": counter.calls -
    calls_before}``: what the search added to a counter that callers
    may thread through several searches.  :meth:`lookup` sets
    :attr:`calls_before` to the counter's reading; a resumed search,
    whose counter holds the interrupted run's whole tally, sets it to 0
    so the entry equals an uninterrupted run's.
    """

    def __init__(
        self,
        engine: str,
        *,
        num_discords: int,
        counter: Optional[DistanceCounter] = None,
        budget: Optional[SearchBudget] = None,
        metrics=None,
        cache=None,
    ):
        if num_discords < 1:
            raise DiscordSearchError(
                f"num_discords must be >= 1, got {num_discords}"
            )
        self.engine = engine
        self.num_discords = num_discords
        self.counter = counter if counter is not None else DistanceCounter()
        self.budget = budget if budget is not None else SearchBudget.unlimited()
        self.metrics = ensure_metrics(metrics)
        self.budget.bind_metrics(self.metrics)
        self.cache = cache
        self._key: Optional[str] = None
        self.calls_before = 0

    def lookup(
        self,
        series: np.ndarray,
        intervals,
        params: dict,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[DiscordSearchResult]:
        """The cached result of this search, or ``None`` on a miss.

        *params* must hold everything besides the series, *intervals*
        and the *rng* state that can change the discords or the ledger.
        """
        if self.cache is None:
            return None
        # Imported here, and called through the module attribute, so the
        # cache layer stays off the import path of uncached searches.
        from repro.cache import keys
        from repro.cache.results import discords_from_json

        self._key = keys.discord_search_key(
            series, intervals, engine=self.engine, params=params, rng=rng
        )
        entry = self.cache.get(self._key)
        if entry is not None:
            self.counter.calls += int(entry["ledger"]["calls"])
            discords = discords_from_json(entry["discords"])
            return DiscordSearchResult(
                discords, self.counter.calls,
                rank_complete=[True] * len(discords), from_cache=True,
            )
        self.calls_before = self.counter.calls
        return None

    def finish(
        self, discords: list[Discord], rank_complete: list[bool]
    ) -> DiscordSearchResult:
        """The search's result; a complete, untruncated one is cached."""
        status = self.budget.status
        if self._key is not None and status is SearchStatus.COMPLETE and all(rank_complete):
            from repro.cache.results import discords_to_json

            self.cache.put(
                self._key,
                {
                    "engine": self.engine,
                    "discords": discords_to_json(discords),
                    "ledger": {"calls": self.counter.calls - self.calls_before},
                },
            )
        return DiscordSearchResult(discords, self.counter.calls, status, rank_complete)


def search_windows(series: np.ndarray, window: int) -> kernels.WindowMatrix:
    """The one :class:`~repro.timeseries.kernels.WindowMatrix` of a
    fixed-length search, which its bucketing and its distances share.

    Raises :class:`DiscordSearchError` when the series has fewer than
    two windows.
    """
    if num_windows(series.size, window) < 2:
        raise DiscordSearchError(
            f"series of length {series.size} too short for window {window}"
        )
    return kernels.WindowMatrix(series, window)


def fixed_length_discords(
    engine: str,
    series: np.ndarray,
    window: int,
    build_rank: Callable[[kernels.WindowMatrix], Callable[..., Optional[Discord]]],
    *,
    params: dict,
    num_discords: int,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
) -> DiscordSearchResult:
    """The driver behind ``hotsax_discords``, ``haar_discords`` and
    ``brute_force_discords``.

    Opens a :class:`SearchSession`, answers from *cache* when it can,
    and otherwise runs :func:`iterated_search` over the engine's
    one-rank function that *build_rank* returns for the search's one
    :class:`~repro.timeseries.kernels.WindowMatrix`, shared by every
    rank; each rank calls it with the spans of the discords found so
    far and the session's counter, budget and metrics.  The cache key
    holds *engine*, *window*, *num_discords*, the engine's *params* and
    the *rng* state (engines that draw no random numbers pass none).
    """
    session = SearchSession(
        engine, num_discords=num_discords, counter=counter,
        budget=budget, metrics=metrics, cache=cache,
    )
    if series.ndim != 1:
        raise DiscordSearchError(f"series must be 1-d, got shape {series.shape}")
    hit = session.lookup(
        series,
        (),
        {"window": int(window), "num_discords": int(num_discords), **params},
        rng=rng,
    )
    if hit is not None:
        return hit
    rank = build_rank(search_windows(series, window))
    return iterated_search(
        session,
        lambda spans: rank(
            spans, counter=session.counter, budget=session.budget, metrics=session.metrics
        ),
    )


#: The runner's physical work behind its logical calls, in the order
#: its ``take_work`` reports them.
WORK_METRICS = ("search.pairs_evaluated", "search.offsets_evaluated")


@dataclass
class RankState:
    """One rank's search state at a boundary of :func:`rank_search`.

    The boundary before outer candidate *outer_index* is a deterministic
    point of the search: candidates ``[0, outer_index)`` are done, the
    counter reads *calls*, the best-so-far discord is outer candidate
    *best* at distance *best_dist* (``None`` before there is one), and
    the RNG state, when it is captured, is *rng_state*, taken before
    the candidate's inner-loop shuffle.  Restoring these values and
    re-entering the loop reproduces the uninterrupted run bit for bit.
    """

    outer_index: int = 0
    best_dist: float = 0.0
    best: Optional[int] = None
    calls: int = 0
    rng_state: Optional[dict] = None
    complete: bool = False


class ScanRun:
    """A stretch runner over a one-candidate scan, with
    :class:`~repro.timeseries.eq1core.RankRun`'s contract: the engines'
    Python inner loops.

    A subclass implements :meth:`scan`.  :func:`rank_search` asks for one
    outer candidate per call (:attr:`MAX_OUTERS`), so the budget is
    checked before every candidate; called directly, a run takes any
    stretch.
    """

    #: Most outer candidates :func:`rank_search` asks of one call.
    MAX_OUTERS = 1

    def __init__(self):
        self.calls = 0
        self.flags: list[int] = []
        self.outer_calls: list[int] = []

    def scan(self, i: int, best_dist: float) -> tuple[float, bool]:
        """``(nearest, abandoned)`` of outer candidate *i* against
        *best_dist*; adds the pairs it visits to :attr:`calls`, also
        when it raises."""
        raise NotImplementedError

    def __call__(
        self, first: int, stop: int, calls_left: int, best_dist: float
    ) -> tuple[int, float, int]:
        """Run outer positions ``first`` up to *stop*; ``(end, best_dist,
        best)``, as :meth:`RankRun.__call__ <repro.timeseries.eq1core.
        RankRun.__call__>`."""
        self.flags, self.outer_calls = [], []
        best, spent = -1, 0
        for i in range(first, stop):
            before = self.calls
            nearest, abandoned = self.scan(i, best_dist)
            visited = self.calls - before
            flag = int(abandoned)
            if not abandoned and nearest < math.inf and nearest > best_dist:
                best_dist, best, flag = nearest, i, 2
            self.flags.append(flag)
            self.outer_calls.append(visited)
            spent += visited
            if spent >= calls_left:
                return i + 1, best_dist, best
        return stop, best_dist, best

    def take_calls(self) -> int:
        """Read :attr:`calls` and reset it to zero."""
        calls, self.calls = self.calls, 0
        return calls


def rank_search(
    spans: np.ndarray,
    run,
    *,
    source: str,
    best_dist: float,
    counter: DistanceCounter,
    budget: SearchBudget,
    metrics,
    rule_ids: Optional[np.ndarray] = None,
    state: Optional[RankState] = None,
    on_boundary: Optional[Callable[[RankState, int], int]] = None,
    capture_rng: Optional[Callable[[], dict]] = None,
    take_work: Optional[Callable[[], Sequence[int]]] = None,
) -> Optional[Discord]:
    """One rank of any engine: the outer-candidate loop all four share.

    *spans* is the ``(2, n)`` array of the outer candidates' ``(start,
    end)``, in outer order, with the engine's exclusions already
    applied, and *rule_ids* their rule ids (``None`` for fixed-length
    candidates).  *run* scans stretches of them with
    :class:`~repro.timeseries.eq1core.RankRun`'s contract:
    ``run(first, stop, calls_left, best_dist) -> (end, best_dist,
    best)``, per-candidate ``flags`` and ``outer_calls`` (depths),
    ``take_calls()`` and ``MAX_OUTERS``.  The first call of a rank runs
    one outer candidate and each later one twice as many, up to
    ``run.MAX_OUTERS``, so a tight deadline or a cancelled token is seen
    early and a long rank pays few boundaries.

    *counter*, *budget* and *metrics* are the :class:`SearchSession`'s.
    At every boundary the loop records *state*, checks the budget, and
    lets *on_boundary(state, crossed)* (a checkpoint hook) see the
    boundaries the last run crossed and cap the next run.  Visited pairs
    are flushed into *counter* even when a run raises.  With metrics
    enabled it counts candidates visited, abandoned and survived and
    best-so-far updates, histograms abandon depths, and adds *take_work*'s
    figures to :data:`WORK_METRICS`.  *best_dist* is the engine's
    initial best, which a given *state* replaces with its own: a
    candidate becomes the discord only with a nearest neighbour strictly
    farther than it.  *capture_rng* is called at each boundary for
    :attr:`RankState.rng_state`.

    A ``KeyboardInterrupt`` becomes a best-so-far return, with
    ``budget.status`` saying the search was cancelled.  Returns the
    rank's discord, or ``None`` when no candidate has a non-self match.
    """
    if state is None:
        state = RankState(best_dist=best_dist)
    n_outer = spans.shape[1]
    if not n_outer:
        state.complete = True
        return None

    instrumented = metrics.enabled
    m_work = []
    if instrumented:
        m_visited, m_abandoned, m_survived, m_best = (
            metrics.counter(f"search.{name}")
            for name in (
                "candidates_visited", "candidates_abandoned",
                "candidates_survived", "best_updates",
            )
        )
        m_depth = metrics.histogram("search.abandon_depth")
        if take_work is not None:
            m_work = [metrics.counter(name) for name in WORK_METRICS]
    max_calls = budget.max_calls if budget.max_calls is not None else 2**63 - 1

    best_dist, best = state.best_dist, state.best
    i, span, crossed = state.outer_index, 1, 1
    try:
        while True:
            # A boundary: outer candidates [0, i) are done, and no
            # randomness or distance call of candidate i is spent yet.
            state.outer_index, state.calls = i, counter.calls
            state.best_dist, state.best = best_dist, best
            if capture_rng is not None:
                state.rng_state = capture_rng()
            if i == n_outer:
                state.complete = True
                if on_boundary is not None:
                    on_boundary(state, crossed - 1)  # the last run's boundaries
                break
            if budget.interrupted(counter.calls) is not None:
                break
            stop = min(n_outer, i + span)
            if on_boundary is not None:
                stop = min(stop, i + on_boundary(state, crossed))
            # Pair visits are flushed in ``finally``, so an interrupt that
            # lands as a run returns leaves the counter exactly where
            # per-pair counting would have, and the state at the boundary
            # before the run.
            try:
                end, found, new_best = run(i, stop, max_calls - counter.calls, best_dist)
            finally:
                counter.batch(run.take_calls())
                for m, done in zip(m_work, take_work() if m_work else ()):
                    m.inc(done)
            span = min(2 * span, run.MAX_OUTERS)
            if instrumented:
                for flag, depth in zip(run.flags[: end - i], run.outer_calls[: end - i]):
                    m_visited.inc()
                    if flag == 1:
                        m_abandoned.inc()
                        m_depth.observe(int(depth))
                    else:
                        m_survived.inc()
                        if flag == 2:
                            m_best.inc()
            if new_best >= 0:
                best_dist, best = found, new_best
            crossed, i = end - i, end
    except KeyboardInterrupt:
        # The aborted run's partial work is discarded: the state still
        # describes the last completed boundary, so a resumed run
        # replays the run in full and stays bit-identical.
        budget.note_cancelled()

    if best is None:
        return None
    start, stop = spans[:, best].tolist()
    return Discord(
        start=start,
        end=stop,
        score=best_dist,
        rank=0,
        nn_distance=best_dist,
        rule_id=None if rule_ids is None else int(rule_ids[best]),
        source=source,
    )


def starts_clear_of(
    starts: np.ndarray, spans: Sequence[tuple[int, int]], window: int
) -> np.ndarray:
    """The entries of *starts* whose windows overlap no ``(start, end)``
    span of *spans*, in their order: a window overlaps ``[s, e)`` when
    it starts in ``(s - window, e)``."""
    keep = np.ones(starts.size, dtype=bool)
    for start, end in spans:
        keep &= (starts <= start - window) | (starts >= end)
    return starts[keep]


def bucket_rank(
    windows: kernels.WindowMatrix,
    keys: Sequence,
    spans: Sequence[tuple[int, int]],
    *,
    source: str,
    rng: np.random.Generator,
    counter: DistanceCounter,
    budget: SearchBudget,
    metrics,
) -> Optional[Discord]:
    """One rank of a bucket-ordered search (HOTSAX, Haar) over the
    search's window matrix, its only source of series and window, and
    *keys*, one bucket key per window: rare keys are searched first
    (outer), same-key windows are compared first (inner).  Windows that
    overlap a found discord's span in *spans* are no candidates."""
    buckets: dict[str, list[int]] = defaultdict(list)
    for pos, key in enumerate(keys):
        buckets[key].append(pos)
    # Ascending bucket size, ties by start: a stable sort of the sizes.
    sizes = np.fromiter((len(buckets[key]) for key in keys), dtype=np.int64, count=len(keys))
    outer = starts_clear_of(np.argsort(sizes, kind="stable"), spans, windows.window)
    return rank_search(
        np.stack((outer, outer + windows.window)),
        _BucketScan(windows, keys, buckets, outer, rng),
        source=source, best_dist=-1.0,
        counter=counter, budget=budget, metrics=metrics,
    )


class _BucketScan(ScanRun):
    """An outer window of a bucket-ordered rank: same-bucket windows
    first, then the rest in a fresh random order.

    The scan pulls positions from that lazy order in geometrically
    growing blocks, evaluates each block's distances with one
    matrix-vector product, and replays the per-pair early abandon on
    them, so the logical call count is that of the pair-by-pair loop.
    Laziness matters as much as vectorization: a candidate abandoned
    after a handful of same-bucket comparisons (the common HOTSAX case)
    must not pay for materializing its full O(k) inner ordering.
    """

    def __init__(self, windows, keys, buckets, outer, rng):
        super().__init__()
        self._normalized, self._sqnorms = windows.normalized, windows.sqnorms
        self._window = windows.window
        self._keys, self._buckets, self._outer, self._rng = keys, buckets, outer, rng

    def scan(self, i: int, best_dist: float) -> tuple[float, bool]:
        p = int(self._outer[i])
        normalized, sqnorms = self._normalized, self._sqnorms
        same_bucket = [q for q in self._buckets[self._keys[p]] if q != p]
        tail = self._rng.permutation(len(self._keys))
        order = (
            q
            for q in _inner_sequence(same_bucket, tail, p)
            if abs(p - q) > self._window
        )
        nearest, block = math.inf, 8
        while True:
            idx = np.fromiter(islice(order, block), dtype=np.intp)
            if idx.size == 0:
                return nearest, False
            sq = kernels.one_vs_all_sq_euclidean(
                normalized[p], normalized[idx], query_sqnorm=sqnorms[p], sqnorms=sqnorms[idx]
            )
            dists = np.sqrt(sq)
            hit = kernels.first_below(dists, best_dist)
            if hit >= 0:
                self.calls += hit + 1
                return nearest, True
            self.calls += idx.size
            nearest = min(nearest, float(dists.min()))
            block = min(block * 4, 2048)


def _inner_sequence(same_bucket: list[int], tail: np.ndarray, p: int):
    """Same-bucket positions first, then the shuffled remainder."""
    seen = set(same_bucket)
    seen.add(p)
    for q in same_bucket:
        yield q
    for q in tail:
        q = int(q)
        if q not in seen:
            yield q


def iterated_search(
    session: SearchSession,
    search: RankSearch,
    *,
    found: Sequence[Discord] = (),
    after_rank: Optional[Callable[[Optional[Discord], bool], None]] = None,
) -> DiscordSearchResult:
    """Top-k discords by repeated *search*, each rank excluding the spans
    of the discords already found.

    Runs ranks ``len(found)`` up to ``session.num_discords - 1``; *found*
    seeds the ranking with the exact discords of an interrupted run.
    *search* runs one rank over the candidates that overlap no found
    discord, and must draw its distances through the session's counter
    and check its budget.  The loop stops at the first rank that finds
    nothing or is truncated by the budget; the result's
    ``rank_complete`` flags, per returned discord, whether its rank
    scanned every candidate (True) or is only the best seen so far
    (False).  A complete result goes to the session's cache.

    Each rank runs in a ``search.rank`` span and, with metrics enabled,
    emits one ``search.rank_complete`` event carrying that rank's slice
    of the call ledger (the paper's Table 1 number, per rank).  Then
    *after_rank* gets the rank's discord (``None`` when it found none)
    and whether the rank was exact.
    """
    counter, budget, metrics = session.counter, session.budget, session.metrics
    discords = list(found)
    rank_complete = [True] * len(discords)
    for rank in range(len(discords), session.num_discords):
        calls_before = counter.calls
        with metrics.span("search.rank", source=session.engine, rank=rank):
            best = search(tuple((d.start, d.end) for d in discords))
        exact = budget.status is SearchStatus.COMPLETE
        if metrics.enabled:
            _emit_rank_event(
                metrics, session.engine, rank, counter.calls - calls_before, best,
                exact=exact,
            )
        if best is not None:
            best = replace(best, rank=rank)
            discords.append(best)
            rank_complete.append(exact)
        if after_rank is not None:
            after_rank(best, exact)
        if not exact or best is None:
            break
    return session.finish(discords, rank_complete)


def _emit_rank_event(
    metrics,
    source: str,
    rank: int,
    calls: int,
    found: Optional[Discord],
    *,
    exact: bool,
) -> None:
    """Emit one ``search.rank_complete`` event with the rank's ledger slice.

    The attrs carry the rank's distance *calls* as ``ledger: {"calls":
    n}`` — the paper's Table 1 metric broken down by rank — plus the
    discord the rank produced.  Shared by all four engines so run
    reports have one schema.
    """
    attrs = {"source": source, "rank": rank, "exact": exact, "ledger": {"calls": calls}}
    if found is not None:
        attrs["start"] = found.start
        attrs["end"] = found.end
        attrs["score"] = found.score
    metrics.event("search.rank_complete", **attrs)
