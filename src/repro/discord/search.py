"""The shared discord-search driver.

HOTSAX (SAX words) and the Haar-transform variant (paper related work:
Fu et al. 2006, Bu et al. 2007) differ only in *how candidate windows
are grouped into buckets*; the search itself — outer loop over
candidates in ascending bucket size, inner loop visiting same-bucket
windows first with early abandoning — is identical.  This module hosts
that engine so each baseline supplies only its bucketing function.

It also holds what all four ``*_discords`` entry points (RRA, HOTSAX,
Haar, brute force) share around their searches:

* :class:`SearchSession` — ``num_discords`` validation, the counter and
  budget defaults, metrics binding, and the result-cache lookup, ledger
  replay and store;
* :func:`iterated_search` — top-k extraction by repeated search, each
  rank excluding the candidates that overlap a discord already found:
  the one rank loop of all four engines;
* :class:`DiscordSearchResult` — the one search result;
* :func:`fixed_length_discords` — the fixed-length engines' top-k
  driver.
"""

from __future__ import annotations

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

#: A bucketing function: (series, window) -> one hashable key per window.
BucketFn = Callable[[np.ndarray, int], Sequence[str]]

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
    identical previous search — its discords, with the stored ledger
    increments replayed onto :attr:`counter` — and :meth:`finish` saves
    a complete, untruncated result.  Without one, both only build the
    result.
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
        self._ledger_before: Optional[dict] = None

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
        from repro.cache.results import apply_ledger_delta, discords_from_json

        self._key = keys.discord_search_key(
            series, intervals, engine=self.engine, params=params, rng=rng
        )
        entry = self.cache.get(self._key)
        if entry is not None:
            apply_ledger_delta(self.counter, entry["ledger"])
            discords = discords_from_json(entry["discords"])
            return DiscordSearchResult(
                discords, self.counter.calls,
                rank_complete=[True] * len(discords), from_cache=True,
            )
        self._ledger_before = self.counter.ledger()
        return None

    def restart_ledger(self) -> None:
        """Store the counter's whole tally, not its growth since lookup.

        A resumed search restores the interrupted run's ledger into the
        counter, so counting from zero makes the stored delta equal to
        what an uninterrupted search would have cached.
        """
        if self._key is not None:
            self._ledger_before = {name: 0 for name in self.counter.ledger()}

    def finish(
        self, discords: list[Discord], rank_complete: list[bool]
    ) -> DiscordSearchResult:
        """The search's result; a complete, untruncated one is cached."""
        status = self.budget.status
        if self._key is not None and status is SearchStatus.COMPLETE and all(rank_complete):
            from repro.cache.results import discords_to_json, ledger_delta

            self.cache.put(
                self._key,
                {
                    "engine": self.engine,
                    "discords": discords_to_json(discords),
                    "ledger": ledger_delta(self._ledger_before, self.counter.ledger()),
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
    build_search: Callable[[SearchSession, kernels.WindowMatrix], RankSearch],
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
    and otherwise runs :func:`iterated_search` over the one-rank search
    that *build_search* returns for the session and the search's one
    :class:`~repro.timeseries.kernels.WindowMatrix`, shared by every
    rank.  The cache key holds *engine*, *window*, *num_discords*, the
    engine's *params* and the *rng* state (engines that draw no random
    numbers pass none).
    """
    session = SearchSession(
        engine, num_discords=num_discords, counter=counter,
        budget=budget, metrics=metrics, cache=cache,
    )
    hit = session.lookup(
        series,
        (),
        {"window": int(window), "num_discords": int(num_discords), **params},
        rng=rng,
    )
    if hit is not None:
        return hit
    search = build_search(session, search_windows(series, window))
    # A window overlaps the span [s, e) of a found discord when it
    # starts in (s - window, e): the one-rank searches take start ranges.
    return iterated_search(
        session,
        lambda spans: search(tuple((s - window + 1, e) for s, e in spans)),
    )


def ordered_discord_search(
    series: np.ndarray,
    window: int,
    bucket_fn: BucketFn,
    *,
    source: str,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    exclude: tuple[tuple[int, int], ...] = (),
    budget: Optional[SearchBudget] = None,
    windows: Optional[kernels.WindowMatrix] = None,
    metrics=None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """Exact fixed-length discord via bucket-driven loop orderings.

    The inner loop is evaluated in vectorized blocks via
    :mod:`repro.timeseries.kernels`, replaying the per-pair
    early-abandon decisions so the logical call count is that of the
    pair-by-pair loop.

    Parameters
    ----------
    series, window:
        The input and the discord length.
    bucket_fn:
        Maps every sliding window to a bucket key; windows sharing a
        key are presumed similar.  Rare keys are searched first (outer),
        same-key windows are compared first (inner).
    source:
        Tag recorded on the returned :class:`Discord`.
    counter, rng, exclude:
        As in :func:`repro.discord.hotsax.hotsax_discord`.
    budget:
        Optional :class:`~repro.resilience.budget.SearchBudget` checked
        once per outer candidate; when it trips (or a
        ``KeyboardInterrupt`` arrives while one was supplied) the
        best-so-far discord is returned and ``budget.status`` reports
        why the scan stopped early.
    windows:
        A prebuilt :class:`~repro.timeseries.kernels.WindowMatrix` over
        the same series/window, so repeated ranks (and callers that
        already normalized the windows for bucketing) reuse one window
        matrix, one set of row norms, and one statistics pass.  Built on
        the fly when absent; results are identical either way.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`.  When
        given, the scan records candidate/abandon counters, the
        early-abandon depth histogram, and trace events (budget trips
        travel through the bound budget).  The default (``None``) routes
        through the no-op sink: results and logical call counts are
        byte-identical either way.
    """
    series = np.asarray(series, dtype=float)
    k = num_windows(series.size, window)
    if k < 2:
        raise DiscordSearchError(
            f"series of length {series.size} too short for window {window}"
        )
    if counter is None:
        counter = DistanceCounter()
    if rng is None:
        rng = np.random.default_rng(0)
    has_channel = budget is not None
    if budget is None:
        budget = SearchBudget.unlimited()
    metrics = ensure_metrics(metrics)
    budget.bind_metrics(metrics)

    keys = list(bucket_fn(series, window))
    if len(keys) != k:
        raise DiscordSearchError(
            f"bucket_fn produced {len(keys)} keys for {k} windows"
        )
    buckets: dict[str, list[int]] = defaultdict(list)
    for pos, key in enumerate(keys):
        buckets[key].append(pos)

    if windows is None:
        windows = kernels.WindowMatrix(series, window)
    normalized = windows.normalized
    sqnorms = windows.sqnorms

    outer = sorted(range(k), key=lambda p: (len(buckets[keys[p]]), p))

    best_dist = -1.0
    best_pos = None
    # Metric handles are hoisted out of the loop; with the disabled
    # sink they are inert null objects and the `instrumented` guard
    # keeps the hot path free of even their method calls.
    instrumented = metrics.enabled
    if instrumented:
        m_visited = metrics.counter("search.candidates_visited")
        m_abandoned = metrics.counter("search.candidates_abandoned")
        m_survived = metrics.counter("search.candidates_survived")
        m_best = metrics.counter("search.best_updates")
        m_depth = metrics.histogram("search.abandon_depth")
    try:
        for p in outer:
            if any(ex_start <= p < ex_end for ex_start, ex_end in exclude):
                continue
            if budget.interrupted(counter.calls) is not None:
                break
            if instrumented:
                calls_at_entry = counter.calls
            same_bucket = [q for q in buckets[keys[p]] if q != p]
            tail = rng.permutation(k)
            order = (
                q
                for q in _inner_sequence(same_bucket, tail, p)
                if abs(p - q) > window
            )
            nearest, consumed, abandoned = _kernel_inner_scan(
                normalized, sqnorms, p, order, best_dist
            )
            counter.batch(consumed)
            if instrumented:
                m_visited.inc()
                if abandoned:
                    m_abandoned.inc()
                    m_depth.observe(counter.calls - calls_at_entry)
                else:
                    m_survived.inc()
            if not abandoned and np.isfinite(nearest) and nearest > best_dist:
                best_dist = nearest
                best_pos = p
                if instrumented:
                    m_best.inc()
    except KeyboardInterrupt:
        if not has_channel:
            raise
        budget.note_cancelled()

    if best_pos is None:
        return None, counter
    discord = Discord(
        start=best_pos,
        end=best_pos + window,
        score=best_dist,
        rank=0,
        nn_distance=best_dist,
        rule_id=None,
        source=source,
    )
    return discord, counter


def _kernel_inner_scan(
    normalized: np.ndarray,
    sqnorms: np.ndarray,
    p: int,
    order,
    best_dist: float,
) -> tuple[float, int, bool]:
    """Replay the per-pair inner loop over lazy *order* in vectorized blocks.

    Pulls candidate positions from the *order* iterator in geometrically
    growing blocks, evaluates each block's distances to window *p* with
    one matrix-vector product, and applies the exact per-pair
    early-abandon logic to the block results in sequence.  Returns
    ``(nearest, consumed, abandoned)`` where *consumed* is the number of
    pairs the per-pair loop would have visited — the logical call count.

    Laziness matters as much as vectorization: a candidate abandoned after
    a handful of same-bucket comparisons (the common HOTSAX case) must
    not pay for materializing its full O(k) inner ordering, so only the
    pairs actually scanned — plus bounded block speculation — are ever
    pulled from the iterator.
    """
    nearest = float("inf")
    consumed = 0
    block = 8
    p_row = normalized[p]
    p_sq = sqnorms[p]
    while True:
        idx = np.fromiter(islice(order, block), dtype=np.intp)
        if idx.size == 0:
            return nearest, consumed, False
        sq = kernels.one_vs_all_sq_euclidean(
            p_row, normalized[idx], query_sqnorm=p_sq, sqnorms=sqnorms[idx]
        )
        dists = np.sqrt(sq)
        hit = kernels.first_below(dists, best_dist)
        if hit >= 0:
            return nearest, consumed + hit + 1, True
        consumed += idx.size
        block_min = float(dists.min())
        if block_min < nearest:
            nearest = block_min
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
        rank_ledger = counter.ledger() if metrics.enabled else None
        with metrics.span("search.rank", source=session.engine, rank=rank):
            best = search(tuple((d.start, d.end) for d in discords))
        exact = budget.status is SearchStatus.COMPLETE
        if metrics.enabled:
            _emit_rank_event(
                metrics, session.engine, rank, rank_ledger, counter, best,
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


def bucket_ordered_search(
    session: SearchSession,
    series: np.ndarray,
    window: int,
    bucket_fn: BucketFn,
    *,
    rng: np.random.Generator,
    windows: Optional[kernels.WindowMatrix],
) -> RankSearch:
    """One rank of :func:`ordered_discord_search`, bound to *session*."""
    return lambda exclude: ordered_discord_search(
        series, window, bucket_fn,
        source=session.engine, counter=session.counter, rng=rng,
        exclude=exclude, budget=session.budget,
        windows=windows, metrics=session.metrics,
    )[0]


def _emit_rank_event(
    metrics,
    source: str,
    rank: int,
    ledger_before: Optional[dict],
    counter: DistanceCounter,
    found: Optional[Discord],
    *,
    exact: bool,
) -> None:
    """Emit one ``search.rank_complete`` event with the rank's ledger slice.

    The attrs carry the per-rank delta of the call ledger (``calls``) —
    the paper's Table 1 metric broken down by rank — plus the discord
    the rank produced.  Shared by all four engines so run reports have one
    schema.
    """
    after = counter.ledger()
    delta = {
        key: after[key] - (ledger_before or {}).get(key, 0) for key in after
    }
    attrs = {"source": source, "rank": rank, "exact": exact, "ledger": delta}
    if found is not None:
        attrs["start"] = found.start
        attrs["end"] = found.end
        attrs["score"] = found.score
    metrics.event("search.rank_complete", **attrs)
