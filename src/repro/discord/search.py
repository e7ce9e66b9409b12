"""The shared bucket-ordered exact discord search engine.

HOTSAX (SAX words) and the Haar-transform variant (paper related work:
Fu et al. 2006, Bu et al. 2007) differ only in *how candidate windows
are grouped into buckets*; the search itself — outer loop over
candidates in ascending bucket size, inner loop visiting same-bucket
windows first with early abandoning — is identical.  This module hosts
that engine so each baseline supplies only its bucketing function.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.anomaly import Discord
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import ensure_metrics
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.kernels import BACKENDS, validate_backend  # noqa: F401
from repro.timeseries.windows import num_windows

#: A bucketing function: (series, window) -> one hashable key per window.
BucketFn = Callable[[np.ndarray, int], Sequence[str]]


def ordered_discord_search(
    series: np.ndarray,
    window: int,
    bucket_fn: BucketFn,
    *,
    source: str,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    exclude: tuple[tuple[int, int], ...] = (),
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    windows: Optional[kernels.WindowMatrix] = None,
    metrics=None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """Exact fixed-length discord via bucket-driven loop orderings.

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
    backend:
        ``"kernel"`` (default) evaluates the inner loop in vectorized
        blocks via :mod:`repro.timeseries.kernels`; ``"scalar"`` keeps
        the per-pair reference path.  Both visit the same pairs in the
        same order, so results and call counts are identical.
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
    validate_backend(backend)
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
    sqnorms = windows.sqnorms if backend in ("kernel", "batch") else None

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
        if backend == "batch":
            from repro.discord import batch

            # Exclusion filtering up front is equivalent: the serial
            # loop never checks the budget for an excluded candidate.
            active = [
                p for p in outer
                if not any(s <= p < e for s, e in exclude)
            ]

            def make_order(p: int) -> np.ndarray:
                # Vectorized form of _inner_sequence + the window
                # filter: same-bucket first, then the shuffled
                # remainder, identical pair order and RNG consumption.
                same_bucket = np.asarray(
                    [q for q in buckets[keys[p]] if q != p], dtype=np.intp
                )
                tail = rng.permutation(k)
                mask = np.ones(k, dtype=bool)
                mask[same_bucket] = False
                mask[p] = False
                rest = tail[mask[tail]]
                order = (
                    np.concatenate((same_bucket, rest))
                    if same_bucket.size
                    else rest
                )
                return order[np.abs(order - p) > window]

            scanner = batch.TileScanner(normalized, sqnorms)
            best_dist, best_pos = batch.batch_serial_scan(
                scanner, active, make_order,
                abandon=True, counter=counter, budget=budget,
                metrics=metrics, init_best=best_dist,
            )
        else:
            for p in outer:
                if any(ex_start <= p < ex_end for ex_start, ex_end in exclude):
                    continue
                if budget.interrupted(counter.calls) is not None:
                    break
                if instrumented:
                    calls_at_entry = counter.calls
                nearest = float("inf")
                abandoned = False
                same_bucket = [q for q in buckets[keys[p]] if q != p]
                tail = rng.permutation(k)
                if backend == "kernel":
                    order = (
                        q
                        for q in _inner_sequence(same_bucket, tail, p)
                        if abs(p - q) > window
                    )
                    nearest, consumed, abandoned = _kernel_inner_scan(
                        normalized, sqnorms, p, order, best_dist
                    )
                    counter.batch(consumed)
                else:
                    for q in _inner_sequence(same_bucket, tail, p):
                        if abs(p - q) <= window:
                            continue
                        # Abandoning beyond `nearest` is lossless: while the
                        # candidate is alive, nearest >= best_dist (see
                        # hotsax.py).
                        dist = counter.euclidean(
                            normalized[p], normalized[q], cutoff=nearest
                        )
                        if dist < best_dist:
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
    """Replay the scalar inner loop over lazy *order* in vectorized blocks.

    Pulls candidate positions from the *order* iterator in geometrically
    growing blocks, evaluates each block's distances to window *p* with
    one matrix-vector product, and applies the exact scalar
    early-abandon logic to the block results in sequence.  Returns
    ``(nearest, consumed, abandoned)`` where *consumed* is the number of
    pairs the scalar loop would have visited — the logical call count.

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
    series: np.ndarray,
    window: int,
    bucket_fn: BucketFn,
    *,
    source: str,
    num_discords: int,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    windows: Optional[kernels.WindowMatrix] = None,
    metrics=None,
) -> tuple[list[Discord], DistanceCounter, list[bool]]:
    """Top-k discords by repeated search with window-sized exclusion.

    Returns ``(discords, counter, rank_complete)`` — the third element
    flags, per returned discord, whether its rank scanned every
    candidate (True) or was truncated by the *budget* and is only the
    best seen so far (False).  The
    :class:`~repro.timeseries.kernels.WindowMatrix` is built once (or
    adopted from *windows*) and shared across ranks, so the
    normalization and row-norm passes run once per search rather than
    once per rank.  *metrics* wraps every rank in a ``search.rank``
    span and emits one ``search.rank_complete`` event per rank carrying
    that rank's slice of the call ledger (the paper's Table 1 number,
    per rank).
    """
    validate_backend(backend)
    series = np.asarray(series, dtype=float)
    if counter is None:
        counter = DistanceCounter()
    if rng is None:
        rng = np.random.default_rng(0)
    if num_discords < 1:
        raise DiscordSearchError(f"num_discords must be >= 1, got {num_discords}")
    if budget is None:
        budget = SearchBudget.unlimited()
    metrics = ensure_metrics(metrics)
    if windows is None and num_windows(series.size, window) >= 2:
        # Deferred for degenerate inputs so ordered_discord_search still
        # raises its own (tested) validation error.
        windows = kernels.WindowMatrix(series, window)
    discords: list[Discord] = []
    rank_complete: list[bool] = []
    exclusions: list[tuple[int, int]] = []
    for rank in range(num_discords):
        rank_ledger = counter.ledger() if metrics.enabled else None
        with metrics.span("search.rank", source=source, rank=rank):
            found, counter = ordered_discord_search(
                series, window, bucket_fn,
                source=source, counter=counter, rng=rng, exclude=tuple(exclusions),
                backend=backend, budget=budget,
                windows=windows, metrics=metrics,
            )
        truncated = budget.status is not SearchStatus.COMPLETE
        if metrics.enabled:
            emit_rank_event(
                metrics, source, rank, rank_ledger, counter, found,
                exact=not truncated,
            )
        if found is not None:
            discords.append(
                Discord(
                    start=found.start, end=found.end, score=found.score,
                    rank=rank, nn_distance=found.nn_distance, rule_id=None,
                    source=source,
                )
            )
            rank_complete.append(not truncated)
        if truncated or found is None:
            break
        exclusions.append((found.start - window + 1, found.start + window))
    return discords, counter, rank_complete


def emit_rank_event(
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
