"""Shard scanning and serial-order replay — the determinism core.

Sharding an exact discord search is subtle because the searches are
*sequential* algorithms: each outer candidate's inner loop prunes
against the best-so-far discord distance, which evolves as the outer
loop advances.  A worker that owns outer candidates ``[lo, hi)`` cannot
know the serial best-so-far at ``lo`` without running everything before
it.

The layer solves this with a *scan/replay* split:

* **Workers over-scan.**  Each worker runs the ordinary inner loop over
  its shard, pruning against a *local* threshold — the maximum of a
  seed value ``τ0`` (the nearest-neighbour distance of the first outer
  candidate, computed by the parent) and the shard's own best-so-far.
  Both are provably ≤ the serial best-so-far at every point, so the
  local scan always covers at least the pairs the serial scan visits.
* **Workers record prefix minima.**  For each candidate the worker
  records how many pairs it scanned, whether it finished, and the
  positions/values where the running minimum strictly decreased.  The
  serial scan's behaviour over any prefix is a pure function of those
  minima: the serial inner loop breaks at the first distance below the
  serial best, and the first such distance is necessarily a strict
  prefix minimum.
* **The parent replays in serial order.**  Walking the records in the
  serial outer order while carrying the true serial best-so-far yields,
  for every candidate, the exact pair count the serial loop would have
  spent and the exact best/position updates — so discords, ranks, and
  distance-call counts are bit-identical to the serial run for any
  worker count.

Early-abandoned (``inf``) distances in the scalar path never disturb
this: while a candidate is alive its abandon cutoff stays ≥ the serial
best, so any distance that could end the serial scan is fully computed
and therefore recorded.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.rra import _CandidateSet, _InnerOrdering
from repro.discord.search import _inner_sequence
from repro.exceptions import DiscordSearchError
from repro.grammar.intervals import RuleInterval
from repro.observability.metrics import MetricsRegistry, ensure_metrics
from repro.parallel.pool import budget_from_spec
from repro.parallel.shared import attach
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.resilience.checkpoint import restore_rng
from repro.timeseries import kernels
from repro.timeseries.distance import euclidean_early_abandon

__all__ = [
    "CandidateScan",
    "Replay",
    "scan_fixed_positions",
    "scan_fixed_shard",
    "scan_rra_positions",
    "scan_rra_shard",
]


@dataclass
class CandidateScan:
    """One candidate's recorded inner-loop scan.

    Attributes
    ----------
    position:
        The candidate's identity for the merge: the window start for
        fixed-length searches, the outer-order rank for RRA.
    scanned:
        Number of pairs the local scan visited.
    minima:
        ``(count, value)`` pairs — after *count* visited pairs the
        running minimum strictly dropped to *value*.  Counts are
        1-based and ascending; values strictly descending.
    complete:
        True when every non-self-match pair was visited (the local
        threshold never fired).
    """

    position: int
    scanned: int
    minima: list
    complete: bool

    @property
    def nearest(self) -> float:
        """The local scan's final nearest-neighbour distance."""
        return self.minima[-1][1] if self.minima else float("inf")


@dataclass
class ShardResult:
    """What one shard task returns to the parent."""

    records: list = field(default_factory=list)
    processed: int = 0
    status: str = SearchStatus.COMPLETE.value
    calls: int = 0
    elapsed: float = 0.0
    #: Snapshot of the worker-local metrics registry (None when the
    #: parent search runs without observability).  Merged by the parent
    #: in serial replay order; the merge is commutative, so totals are
    #: deterministic for any worker count.
    metrics: Optional[dict] = None


class Replay:
    """Serial-order merge of shard records.

    Feeds shards in serial outer order, carrying the true best-so-far.
    For each record it derives the pair count the serial scan would have
    spent (the first prefix minimum below the serial best, else the full
    scan) and applies the serial update rule.  ``feed`` returns False
    when a shard was truncated (budget/cancellation): replay must stop
    there, because later candidates' serial behaviour depends on state
    the truncated shard never produced — the merged result is then a
    best-so-far answer equal to some serial prefix of the search.
    *abandon* False replays a scan without early abandoning (brute
    force's exhaustive variant): every record is then a full scan.
    """

    def __init__(self, *, abandon: bool = True, init_best: float = -1.0):
        self.abandon = abandon
        self.best = init_best
        self.best_pos: Optional[int] = None
        self.calls = 0
        self.complete = True
        self.status = SearchStatus.COMPLETE.value

    def feed(self, shard: ShardResult, expected: int) -> bool:
        """Merge one shard (covering *expected* outer positions).

        A truncated shard (budget/cancellation fired mid-chunk) is
        discarded whole — merging its partial prefix would leave the
        replay at a mid-chunk point whose RNG state the parent never
        captured, breaking checkpoint/resume.  Dropping it keeps the
        merged result on the previous chunk boundary.
        """
        if shard.processed < expected or shard.status != SearchStatus.COMPLETE.value:
            self.complete = False
            if shard.status != SearchStatus.COMPLETE.value:
                self.status = shard.status
            else:  # pragma: no cover - defensive: truncation implies status
                self.status = SearchStatus.BUDGET_EXHAUSTED.value
            return False
        for record in shard.records:
            self._one(record)
        return True

    def _one(self, record: CandidateScan) -> None:
        if self.abandon:
            for count, value in record.minima:
                if value < self.best:
                    # The serial scan would have abandoned this candidate
                    # after exactly `count` pairs.
                    self.calls += count
                    return
        if not record.complete:
            raise DiscordSearchError(
                "parallel scan inconsistency: a locally-abandoned candidate "
                "survived the serial replay (local threshold exceeded the "
                "serial best-so-far)"
            )
        self.calls += record.scanned
        nearest = record.nearest
        if math.isfinite(nearest) and nearest > self.best:
            self.best = nearest
            self.best_pos = record.position


# ---------------------------------------------------------------------------
# Fixed-length engines (HOTSAX / Haar buckets, brute force)
# ---------------------------------------------------------------------------


def _record_kernel_blocks(
    normalized: np.ndarray,
    sqnorms: np.ndarray,
    p: int,
    order: Iterator[int],
    threshold: float,
) -> CandidateScan:
    """Block-vectorized recording scan (mirror of ``_kernel_inner_scan``)."""
    minima: list = []
    nearest = float("inf")
    scanned = 0
    block = 8
    p_row = normalized[p]
    p_sq = sqnorms[p]
    while True:
        idx = np.fromiter(islice(order, block), dtype=np.intp)
        if idx.size == 0:
            return CandidateScan(p, scanned, minima, True)
        sq = kernels.one_vs_all_sq_euclidean(
            p_row, normalized[idx], query_sqnorm=p_sq, sqnorms=sqnorms[idx]
        )
        dists = np.sqrt(sq)
        hit = kernels.first_below(dists, threshold)
        limit = hit + 1 if hit >= 0 else int(idx.size)
        points, values = kernels.running_min_points(dists[:limit])
        for j, value in zip(points, values):
            value = float(value)
            if value < nearest:
                nearest = value
                minima.append((scanned + int(j) + 1, value))
        if hit >= 0:
            return CandidateScan(p, scanned + int(hit) + 1, minima, False)
        scanned += idx.size
        block = min(block * 4, 2048)


def _record_kernel_row(
    normalized: np.ndarray,
    sqnorms: np.ndarray,
    p: int,
    window: int,
    threshold: float,
    abandon: bool,
) -> CandidateScan:
    """Full-row recording scan for brute force (one matvec per candidate)."""
    k = normalized.shape[0]
    sq_row = kernels.one_vs_all_sq_euclidean(
        normalized[p], normalized, query_sqnorm=sqnorms[p], sqnorms=sqnorms
    )
    valid = np.ones(k, dtype=bool)
    valid[max(0, p - window) : p + window + 1] = False
    dists = np.sqrt(sq_row[valid])
    hit = kernels.first_below(dists, threshold) if abandon else -1
    limit = hit + 1 if hit >= 0 else dists.size
    points, values = kernels.running_min_points(dists[:limit])
    minima = [(int(j) + 1, float(v)) for j, v in zip(points, values)]
    return CandidateScan(p, int(limit), minima, hit < 0)


def _record_scalar_pairs(
    normalized: np.ndarray,
    p: int,
    order: Iterable[int],
    threshold: float,
    abandon: bool,
) -> CandidateScan:
    """Per-pair recording scan on the scalar reference path."""
    minima: list = []
    nearest = float("inf")
    scanned = 0
    p_row = normalized[p]
    for q in order:
        cutoff = nearest if abandon else float("inf")
        dist = euclidean_early_abandon(p_row, normalized[q], cutoff)
        scanned += 1
        if dist < nearest:
            nearest = dist
            minima.append((scanned, float(dist)))
        if abandon and dist < threshold:
            return CandidateScan(p, scanned, minima, False)
    return CandidateScan(p, scanned, minima, True)


def _scan_fixed_positions_batch(
    normalized: np.ndarray,
    sqnorms: np.ndarray,
    bucket_ids: Optional[np.ndarray],
    positions: Iterable[int],
    *,
    window: int,
    exclude: tuple,
    abandon: bool,
    floor: float,
    rng: Optional[np.random.Generator],
    budget: SearchBudget,
    metrics=None,
) -> ShardResult:
    """Tiled recording scan for ``backend='batch'`` shards.

    Classifies whole tiles of outer candidates with
    :class:`repro.discord.batch.TileScanner`, then records each row with
    :func:`repro.discord.batch.record_row` — producing the same
    :class:`CandidateScan` records as the kernel recording scans, so the
    replay merge is untouched.  Budget checks and the serial
    ``processed`` bookkeeping for excluded positions run per candidate,
    exactly as in :func:`scan_fixed_positions`; inner-order permutations
    are pre-drawn per tile, the same over-draw-on-truncation the
    parent's chunk pre-draws already perform (truncated shards are
    discarded whole by the replay).
    """
    from repro.discord import batch

    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_candidates = metrics.counter("worker.candidates")
        m_pairs = metrics.counter("worker.pairs")
        m_depth = metrics.histogram("worker.scan_depth")
    k = normalized.shape[0]
    buckets: Optional[dict] = None
    if bucket_ids is not None:
        buckets = defaultdict(list)
        for pos, bucket in enumerate(bucket_ids):
            buckets[int(bucket)].append(pos)
    # Bucketed (HOTSAX/Haar) shards always early-abandon; brute-force
    # shards only with *abandon* — mirroring the serial engines.
    abandon = abandon or buckets is not None

    # Split the shard into active candidates plus, for each, the number
    # of excluded positions immediately before it (those advance
    # `processed` without a budget check, as in the serial loop).
    active: list[int] = []
    pre_excluded: list[int] = []
    skipped = 0
    for p in positions:
        p = int(p)
        if any(ex_start <= p < ex_end for ex_start, ex_end in exclude):
            skipped += 1
            continue
        active.append(p)
        pre_excluded.append(skipped)
        skipped = 0
    trailing = skipped

    arange = np.arange(k, dtype=np.intp)

    def make_order(p: int) -> np.ndarray:
        if buckets is None:
            return arange[np.abs(arange - p) > window]
        same_bucket = np.asarray(
            [q for q in buckets[int(bucket_ids[p])] if q != p], dtype=np.intp
        )
        tail = rng.permutation(k)
        mask = np.ones(k, dtype=bool)
        mask[same_bucket] = False
        mask[p] = False
        rest = tail[mask[tail]]
        order = (
            np.concatenate((same_bucket, rest)) if same_bucket.size else rest
        )
        return order[np.abs(order - p) > window]

    scanner = batch.TileScanner(normalized, sqnorms)
    result = ShardResult()
    local_best = floor
    started = time.perf_counter()
    interrupted = False
    for lo in range(0, len(active), scanner.tile_rows):
        tile = active[lo : lo + scanner.tile_rows]
        orders = [make_order(p) for p in tile]
        tile_floor = local_best if abandon else float("-inf")
        rows = scanner.prepare(tile, orders, tile_floor)
        for j, row in enumerate(rows):
            result.processed += pre_excluded[lo + j]
            if budget.interrupted(result.calls) is not None:
                result.status = budget.status.value
                interrupted = True
                break
            threshold = local_best if abandon else float("-inf")
            record = batch.record_row(row, threshold)
            result.calls += record.scanned
            result.records.append(record)
            result.processed += 1
            if instrumented:
                m_candidates.inc()
                m_pairs.inc(record.scanned)
                m_depth.observe(record.scanned)
            if record.complete:
                nearest = record.nearest
                if math.isfinite(nearest) and nearest > local_best:
                    local_best = nearest
        if interrupted:
            break
    if not interrupted:
        result.processed += trailing
    result.elapsed = time.perf_counter() - started
    return result


def scan_fixed_positions(
    normalized: np.ndarray,
    sqnorms: Optional[np.ndarray],
    bucket_ids: Optional[np.ndarray],
    positions: Iterable[int],
    *,
    window: int,
    exclude: tuple,
    backend: str,
    abandon: bool,
    floor: float,
    rng: Optional[np.random.Generator],
    budget: Optional[SearchBudget] = None,
    metrics=None,
) -> ShardResult:
    """Scan one shard of a fixed-length search's outer candidates.

    *bucket_ids* present → HOTSAX/Haar semantics (same-bucket pairs
    first, shuffled tail, always early abandoning); absent → brute-force
    semantics (ascending pair order, early abandoning only with
    *abandon*).
    *floor* is the shard's starting threshold (τ0); the shard tightens
    it with its own completed candidates.  Runs in a worker process or
    inline in the parent (the τ0 seed scan) — identical behaviour.
    *metrics* records
    the shard's *physical* work (candidates, pairs, scan depths) —
    deterministic for a fixed seed because chunk floors are resolved at
    deterministic wave boundaries, but a worker's-eye view, not the
    serial ledger the replay reconstructs.
    """
    if budget is None:
        budget = SearchBudget.unlimited()
    if backend == "batch":
        return _scan_fixed_positions_batch(
            normalized,
            sqnorms,
            bucket_ids,
            positions,
            window=window,
            exclude=exclude,
            abandon=abandon,
            floor=floor,
            rng=rng,
            budget=budget,
            metrics=metrics,
        )
    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_candidates = metrics.counter("worker.candidates")
        m_pairs = metrics.counter("worker.pairs")
        m_depth = metrics.histogram("worker.scan_depth")
    k = normalized.shape[0]
    buckets: Optional[dict] = None
    if bucket_ids is not None:
        buckets = defaultdict(list)
        for pos, bucket in enumerate(bucket_ids):
            buckets[int(bucket)].append(pos)
    result = ShardResult()
    local_best = floor
    started = time.perf_counter()
    for p in positions:
        p = int(p)
        if any(ex_start <= p < ex_end for ex_start, ex_end in exclude):
            result.processed += 1
            continue
        if budget.interrupted(result.calls) is not None:
            result.status = budget.status.value
            break
        if buckets is not None:
            same_bucket = [q for q in buckets[int(bucket_ids[p])] if q != p]
            tail = rng.permutation(k)
            order = (
                q for q in _inner_sequence(same_bucket, tail, p)
                if abs(p - q) > window
            )
            if backend == "kernel":
                record = _record_kernel_blocks(
                    normalized, sqnorms, p, order, local_best
                )
            else:
                record = _record_scalar_pairs(
                    normalized, p, order, local_best, True
                )
        elif backend == "kernel":
            record = _record_kernel_row(
                normalized, sqnorms, p, window, local_best, abandon
            )
        else:
            order = (q for q in range(k) if abs(p - q) > window)
            record = _record_scalar_pairs(
                normalized, p, order, local_best, abandon
            )
        result.calls += record.scanned
        result.records.append(record)
        result.processed += 1
        if instrumented:
            m_candidates.inc()
            m_pairs.inc(record.scanned)
            m_depth.observe(record.scanned)
        if record.complete:
            nearest = record.nearest
            if math.isfinite(nearest) and nearest > local_best:
                local_best = nearest
    result.elapsed = time.perf_counter() - started
    return result


#: One-entry worker memo of RRA shard artifacts that are identical
#: across every task of one parallel search.  Keys are built from the
#: parent's shared-memory block names, which are unique per run, so a
#: task from a new search simply displaces the previous run's entry.
#: Reuse is purely physical — the artifacts are deterministic functions
#: of the shared arrays — so records, ledgers, and discords are
#: unchanged.
_RRA_SHARD_MEMO: dict = {}


def scan_fixed_shard(payload: dict) -> ShardResult:
    """Worker entry point: attach shared arrays, scan the shard."""
    normalized = attach(payload["normalized"])
    sqnorms = attach(payload.get("sqnorms"))
    bucket_ids = attach(payload.get("bucket_ids"))
    outer = attach(payload.get("outer"))
    lo, hi = payload["slice"]
    positions = outer[lo:hi] if outer is not None else range(lo, hi)
    rng = (
        restore_rng(payload["rng_state"])
        if payload.get("rng_state") is not None
        else None
    )
    registry = MetricsRegistry() if payload.get("metrics") else None
    result = scan_fixed_positions(
        normalized,
        sqnorms,
        bucket_ids,
        positions,
        window=payload["window"],
        exclude=tuple(tuple(pair) for pair in payload["exclude"]),
        backend=payload["backend"],
        abandon=payload["abandon"],
        floor=payload["floor"],
        rng=rng,
        budget=budget_from_spec(payload.get("budget")),
        metrics=registry,
    )
    if registry is not None:
        result.metrics = registry.snapshot()
    return result


# ---------------------------------------------------------------------------
# RRA (variable-length grammar-rule candidates)
# ---------------------------------------------------------------------------


def scan_rra_positions(
    cache: _CandidateSet,
    ordering: _InnerOrdering,
    candidates: list,
    outer_indices: list,
    base: int,
    *,
    backend: str,
    floor: float,
    rng: np.random.Generator,
    budget: Optional[SearchBudget] = None,
    stride: int = 1,
    offset: int = 0,
    metrics=None,
) -> ShardResult:
    """Scan one shard of RRA outer candidates (records, not results).

    *outer_indices* are indices into *candidates* covering one wave of
    the serial outer order; *base* is the outer rank of the first, so
    records carry global outer ranks for the replay.  The shard *owns*
    the positions ``j`` with ``j % stride == offset`` (the round-robin
    deal that spreads the expensive front-of-order candidates across a
    wave's workers); for the others it only consumes the serial RNG's
    inner-ordering permutation, so the generator is in the exact serial
    state when each owned candidate shuffles its tail.  The default
    ``stride=1`` owns everything — a plain contiguous shard.
    """
    if budget is None:
        budget = SearchBudget.unlimited()
    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_candidates = metrics.counter("worker.candidates")
        m_pairs = metrics.counter("worker.pairs")
        m_depth = metrics.histogram("worker.scan_depth")
    distance = cache.distance_fn(backend)
    result = ShardResult()
    local_best = floor
    started = time.perf_counter()
    for j, ci in enumerate(outer_indices):
        p = candidates[ci]
        if j % stride != offset:
            rng.permutation(ordering.rest_size(p))
            continue
        if budget.interrupted(result.calls) is not None:
            result.status = budget.status.value
            break
        p_start = p.start
        p_length = p.end - p_start
        minima: list = []
        nearest = float("inf")
        scanned = 0
        complete = True
        for q in ordering.order(p, rng):
            # Paper line 7: skip p itself and trivial self matches.
            if abs(p_start - q.start) <= p_length:
                continue
            dist = distance(p, q)
            scanned += 1
            if dist < nearest:
                nearest = dist
                minima.append((scanned, float(dist)))
            if dist < local_best:
                complete = False
                break
        record = CandidateScan(base + j, scanned, minima, complete)
        result.calls += record.scanned
        result.records.append(record)
        result.processed += 1
        if instrumented:
            m_candidates.inc()
            m_pairs.inc(record.scanned)
            m_depth.observe(record.scanned)
        if complete and math.isfinite(nearest) and nearest > local_best:
            local_best = nearest
    result.elapsed = time.perf_counter() - started
    return result


def scan_rra_shard(payload: dict) -> ShardResult:
    """Worker entry point for one RRA shard.

    A multi-wave RRA search sends the same worker many shards over the
    same series and candidate pool, so the rebuildable artifacts — the
    candidate-set value cache and the inner-ordering table — are
    memoized per worker across tasks.
    """
    memo_key = (
        payload["series"].name,
        tuple(tuple(c) for c in payload["candidates"]),
    )
    memo = _RRA_SHARD_MEMO.get(memo_key)
    if memo is None:
        series = attach(payload["series"])
        cumsum = attach(payload["cumsum"])
        sq_cumsum = attach(payload["sq_cumsum"])
        candidates = [
            RuleInterval(rule_id, start, end, usage)
            for rule_id, start, end, usage in payload["candidates"]
        ]
        stats = kernels.SeriesStats.from_cumsums(series, cumsum, sq_cumsum)
        cache = _CandidateSet(series, candidates, stats=stats)
        ordering = _InnerOrdering(candidates)
        _RRA_SHARD_MEMO.clear()
        _RRA_SHARD_MEMO[memo_key] = (cache, ordering, candidates)
    else:
        cache, ordering, candidates = memo
    registry = MetricsRegistry() if payload.get("metrics") else None
    result = scan_rra_positions(
        cache,
        ordering,
        candidates,
        payload["outer_indices"],
        payload["base"],
        backend=payload["backend"],
        floor=payload["floor"],
        rng=restore_rng(payload["rng_state"]),
        budget=budget_from_spec(payload.get("budget")),
        stride=payload.get("stride", 1),
        offset=payload.get("offset", 0),
        metrics=registry,
    )
    if registry is not None:
        result.metrics = registry.snapshot()
    return result
