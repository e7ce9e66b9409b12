"""Brute-force discord discovery (the O(m^2) baseline of Table 1).

Considers every sliding window as a candidate and scans every non-self
match for its nearest neighbour.  Early abandoning against the running
best keeps the constant factor down, but every inner comparison still
counts as one distance call — exactly the number the paper's "Brute-force"
column reports.

For the paper-scale datasets (up to 586k points, ~3.4x10^11 calls) the
search is infeasible on any machine, so :func:`brute_force_call_count`
also provides the closed-form call count that the paper tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import emit_rank_event, validate_backend
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import ensure_metrics
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.windows import num_windows


def brute_force_call_count(series_length: int, window: int) -> int:
    """Closed-form distance-call count of the full brute-force search.

    For each of the ``k = m - n + 1`` candidates, every other window at
    offset difference > n is a non-self match.  Without early abandoning
    (the paper's brute-force baseline prunes nothing), the count is::

        sum over p of |{ q : |p - q| > n }|

    Each direction contributes ``sum_{j=1}^{d} j`` pairs with
    ``d = k - n - 1``, so the total collapses to ``d * (d + 1)``.
    """
    k = num_windows(series_length, window)
    d = k - window - 1
    return d * (d + 1) if d > 0 else 0


def brute_force_discord(
    series: np.ndarray,
    window: int,
    *,
    counter: Optional[DistanceCounter] = None,
    early_abandon: bool = False,
    exclude: tuple[tuple[int, int], ...] = (),
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    windows: Optional[kernels.WindowMatrix] = None,
    metrics=None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """Exact fixed-length discord by exhaustive search.

    Parameters
    ----------
    series:
        Raw time series.
    window:
        Discord length n.
    counter:
        Distance counter to accumulate into.
    early_abandon:
        When True, the inner loop breaks once a distance below the
        running best is seen (the candidate is disqualified).  The
        paper's brute-force column counts the non-abandoning variant;
        tests use the abandoning one for speed.
    exclude:
        Candidate start positions falling in any of these half-open
        ranges are skipped (multi-discord extraction).
    backend:
        ``"kernel"`` (default) computes each candidate's distance row
        with one matrix-vector product; ``"scalar"`` keeps the per-pair
        reference loop.  Results and call counts are identical.
    budget:
        Optional anytime budget, checked once per outer candidate.  On
        exhaustion (or ``KeyboardInterrupt`` while one was supplied) the
        best-so-far discord is returned and ``budget.status`` says why.
    windows:
        Prebuilt :class:`~repro.timeseries.kernels.WindowMatrix` to
        reuse across ranks (one normalization + row-norm pass per
        search); built on the fly when absent.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` recording
        search telemetry (candidates visited / abandoned, abandon
        depths, budget trips).  Disabled by default; results and logical
        call counts are byte-identical either way.
    """
    validate_backend(backend)
    series = np.asarray(series, dtype=float)
    k = num_windows(series.size, window)
    if k < 2:
        raise DiscordSearchError(
            f"series of length {series.size} too short for window {window}"
        )
    if counter is None:
        counter = DistanceCounter()
    has_channel = budget is not None
    if budget is None:
        budget = SearchBudget.unlimited()
    metrics = ensure_metrics(metrics)
    budget.bind_metrics(metrics)

    if windows is None:
        windows = kernels.WindowMatrix(series, window)
    normalized = windows.normalized
    sqnorms = windows.sqnorms if backend in ("kernel", "batch") else None

    best_dist = -1.0
    best_pos = None
    try:
        best_dist, best_pos = _brute_force_scan(
            normalized, sqnorms, k, window, counter, budget,
            early_abandon=early_abandon, exclude=exclude, backend=backend,
            metrics=metrics,
        )
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
        source="brute_force",
    )
    return discord, counter


def _brute_force_scan(
    normalized: np.ndarray,
    sqnorms: Optional[np.ndarray],
    k: int,
    window: int,
    counter: DistanceCounter,
    budget: SearchBudget,
    *,
    early_abandon: bool,
    exclude: tuple[tuple[int, int], ...],
    backend: str,
    metrics=None,
) -> tuple[float, Optional[int]]:
    """The exhaustive outer/inner loop; returns (best_dist, best_pos)."""
    metrics = ensure_metrics(metrics)
    if backend == "batch":
        from repro.discord import batch

        active = [
            p for p in range(k)
            if not any(s <= p < e for s, e in exclude)
        ]
        arange = np.arange(k, dtype=np.intp)

        def make_order(p: int) -> np.ndarray:
            return arange[np.abs(arange - p) > window]

        scanner = batch.TileScanner(normalized, sqnorms)
        return batch.batch_serial_scan(
            scanner, active, make_order,
            abandon=early_abandon, counter=counter, budget=budget,
            metrics=metrics, init_best=-1.0, band=window,
        )
    instrumented = metrics.enabled
    if instrumented:
        m_visited = metrics.counter("search.candidates_visited")
        m_abandoned = metrics.counter("search.candidates_abandoned")
        m_survived = metrics.counter("search.candidates_survived")
        m_best = metrics.counter("search.best_updates")
        m_depth = metrics.histogram("search.abandon_depth")
    best_dist = -1.0
    best_pos = None
    for p in range(k):
        if any(ex_start <= p < ex_end for ex_start, ex_end in exclude):
            continue
        if budget.interrupted(counter.calls) is not None:
            break
        if instrumented:
            calls_at_entry = counter.calls
        nearest = float("inf")
        abandoned = False
        if backend == "kernel":
            # One matrix-vector product yields the candidate's entire
            # distance row; the scalar early-abandon logic is replayed on
            # it so the logical call count stays identical.
            sq_row = kernels.one_vs_all_sq_euclidean(
                normalized[p], normalized, query_sqnorm=sqnorms[p], sqnorms=sqnorms
            )
            valid = np.ones(k, dtype=bool)
            valid[max(0, p - window) : p + window + 1] = False
            dists = np.sqrt(sq_row[valid])
            if early_abandon:
                hit = kernels.first_below(dists, best_dist)
                if hit >= 0:
                    counter.batch(hit + 1)
                    abandoned = True
            if not abandoned:
                counter.batch(dists.size)
                if dists.size:
                    nearest = float(dists.min())
        else:
            for q in range(k):
                if abs(p - q) <= window:
                    continue
                # Abandoning beyond `nearest` never loses information:
                # while the candidate is alive, nearest >= best_dist, so
                # an abandoned (inf) result can trigger neither branch
                # below.
                cutoff = nearest if early_abandon else float("inf")
                dist = counter.euclidean(normalized[p], normalized[q], cutoff=cutoff)
                if early_abandon and dist < best_dist:
                    abandoned = True
                    break
                if dist < nearest:
                    nearest = dist
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
    return best_dist, best_pos


@dataclass
class BruteForceResult:
    """Outcome of a multi-discord brute-force search.

    Sequence-compatible with the plain ``list[Discord]`` the function
    used to return (``len`` / indexing / iteration all delegate to
    :attr:`discords`), plus the anytime ``status`` / ``rank_complete``
    flags shared with the other engines.
    """

    discords: list[Discord] = field(default_factory=list)
    distance_calls: int = 0
    window: int = 0
    status: SearchStatus = SearchStatus.COMPLETE
    rank_complete: list[bool] = field(default_factory=list)
    from_cache: bool = False

    @property
    def best(self) -> Optional[Discord]:
        return self.discords[0] if self.discords else None

    @property
    def complete(self) -> bool:
        return self.status is SearchStatus.COMPLETE

    def __len__(self) -> int:
        return len(self.discords)

    def __getitem__(self, index):
        return self.discords[index]

    def __iter__(self) -> Iterator[Discord]:
        return iter(self.discords)


def brute_force_discords(
    series: np.ndarray,
    window: int,
    *,
    num_discords: int = 1,
    counter: Optional[DistanceCounter] = None,
    early_abandon: bool = True,
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
    context=None,
) -> BruteForceResult:
    """Ranked top-k fixed-length discords by exhaustive search (anytime).

    *cache* serves an identical previous search from disk (discords +
    call ledger, ``from_cache=True``); *context* shares the window
    matrix across searches.  Both default to
    ``None`` — the unconfigured path is byte-identical to the pre-cache
    code.
    """
    validate_backend(backend)
    series = np.asarray(series, dtype=float)
    if counter is None:
        counter = DistanceCounter()
    if budget is None:
        budget = SearchBudget.unlimited()
    cache_key = None
    ledger_before = None
    if cache is not None:
        from repro.cache.keys import discord_search_key
        from repro.cache.results import (
            apply_ledger_delta,
            discords_from_json,
            discords_to_json,
            ledger_delta,
        )

        cache_key = discord_search_key(
            series,
            (),
            engine="brute_force",
            params={
                "window": int(window),
                "num_discords": int(num_discords),
                "early_abandon": bool(early_abandon),
                "backend": backend,
            },
        )
        entry = cache.get(cache_key)
        if entry is not None:
            apply_ledger_delta(counter, entry["ledger"])
            cached = discords_from_json(entry["discords"])
            return BruteForceResult(
                discords=cached,
                distance_calls=counter.calls,
                window=window,
                status=SearchStatus.COMPLETE,
                rank_complete=[True] * len(cached),
                from_cache=True,
            )
        ledger_before = counter.ledger()
    metrics = ensure_metrics(metrics)
    budget.bind_metrics(metrics)
    if context is not None:
        windows = context.window_matrix(series, window)
    else:
        # Deferred for degenerate inputs so brute_force_discord still
        # raises its own (tested) validation error.
        windows = (
            kernels.WindowMatrix(series, window)
            if num_windows(series.size, window) >= 2
            else None
        )
    discords: list[Discord] = []
    rank_complete: list[bool] = []
    exclusions: list[tuple[int, int]] = []
    for rank in range(num_discords):
        rank_ledger = counter.ledger() if metrics.enabled else None
        with metrics.span("search.rank", source="brute_force", rank=rank):
            found, counter = brute_force_discord(
                series,
                window,
                counter=counter,
                early_abandon=early_abandon,
                exclude=tuple(exclusions),
                backend=backend,
                budget=budget,
                windows=windows,
                metrics=metrics,
            )
        truncated = budget.status is not SearchStatus.COMPLETE
        if metrics.enabled:
            emit_rank_event(
                metrics, "brute_force", rank, rank_ledger, counter, found,
                exact=not truncated,
            )
        if found is not None:
            discords.append(
                Discord(
                    start=found.start,
                    end=found.end,
                    score=found.score,
                    rank=rank,
                    nn_distance=found.nn_distance,
                    rule_id=None,
                    source="brute_force",
                )
            )
            rank_complete.append(not truncated)
        if truncated or found is None:
            break
        # Exclude a window-sized neighbourhood around the found discord so
        # the next iteration reports a genuinely different anomaly.
        exclusions.append((found.start - window + 1, found.start + window))
    if (
        cache_key is not None
        and budget.status is SearchStatus.COMPLETE
        and all(rank_complete)
    ):
        cache.put(
            cache_key,
            {
                "engine": "brute_force",
                "discords": discords_to_json(discords),
                "ledger": ledger_delta(ledger_before, counter.ledger()),
            },
        )
    return BruteForceResult(
        discords=discords,
        distance_calls=counter.calls,
        window=window,
        status=budget.status,
        rank_complete=rank_complete,
    )

