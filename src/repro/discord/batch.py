"""Tiled GEMM scan machinery behind ``backend='batch'``.

The ``kernel`` backend made each inner scan one matrix-vector product
per block; its hot path is therefore ~one BLAS call *per candidate*,
and for large candidate sets the per-call overhead dominates.  This
module restructures the scan into *tiles*: a whole group of outer
candidates is classified together, their surviving distance rows come
from a single ``A @ B.T`` GEMM (through the array-API seam, so an
optional CuPy/torch namespace accelerates it), and each candidate's
serial trajectory is then *replayed* over the precomputed distances.

The replay is the determinism core.  Per candidate it walks the exact
block schedule of the kernel scans (8, x4 growth, 2048 cap) over the
tile's precomputed values, applying the identical nearest-so-far /
first-below logic — so discords, ranks, and the call count match the
other backends, which the golden-count suite enforces.

Tile-wise work avoidance is trajectory-preserving: a candidate whose
first-block (head) minimum is already below the tile-start threshold
*floor* never needs its tail distances — the serial threshold only
grows, so the replay is guaranteed to break inside the head — and its
GEMM row is skipped.

:func:`batch_serial_scan` drives the machinery for the engines' outer
loops, updating the live counter and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.exceptions import DiscordSearchError
from repro.observability.metrics import ensure_metrics
from repro.resilience.budget import SearchBudget
from repro.timeseries import kernels
from repro.timeseries.array_api import ArrayNamespace
from repro.timeseries.distance import DistanceCounter

__all__ = [
    "HEAD_BLOCK",
    "DEFAULT_TILE_ROWS",
    "RowScan",
    "TileScanner",
    "replay_row",
    "batch_serial_scan",
]

#: First block size of the kernel scans' growth schedule (8, x4, cap
#: 2048).  The tile head phase evaluates exactly this many pairs per
#: candidate before deciding whether the tail GEMM is needed.
HEAD_BLOCK = 8

#: Test hook: when set (an int), overrides the per-tile row count every
#: :class:`TileScanner` derives from :func:`repro.timeseries.kernels.
#: tile_plan`.  The equivalence tests sweep this to prove results are
#: invariant under arbitrary tile boundaries.
DEFAULT_TILE_ROWS: Optional[int] = None

_INCONSISTENT = (
    "batch tile classification inconsistency: a replay reached tail "
    "distances for a candidate the tile classifier dropped"
)


@dataclass
class RowScan:
    """One candidate's precomputed scan material within a tile.

    ``head`` always holds the first ``min(HEAD_BLOCK, len(order))``
    distances.  ``tail`` holds the remaining distances, or ``None``
    when the classifier proved they are unreachable (early-abandon
    drop).
    """

    position: int
    order: np.ndarray
    head: np.ndarray
    tail: Optional[np.ndarray] = None


class TileScanner:
    """Classifies tiles of candidates and precomputes their distances.

    Built once per search from the z-normalized window matrix and its
    row norms.  :meth:`prepare` turns one tile of (position, inner
    order) pairs into :class:`RowScan` rows ready for replay.
    """

    __slots__ = ("normalized", "sqnorms", "xp", "tile_rows")

    def __init__(
        self,
        normalized: np.ndarray,
        sqnorms: np.ndarray,
        *,
        xp: Optional[ArrayNamespace] = None,
        tile_rows: Optional[int] = None,
    ):
        self.normalized = normalized
        self.sqnorms = sqnorms
        self.xp = xp
        if tile_rows is None:
            tile_rows = DEFAULT_TILE_ROWS
        if tile_rows is None:
            k = normalized.shape[0]
            tile_rows = kernels.tile_plan(k, k)[0][1] if k else 1
        if tile_rows < 1:
            raise DiscordSearchError(
                f"tile_rows must be >= 1, got {tile_rows}"
            )
        self.tile_rows = int(tile_rows)

    def prepare(
        self,
        positions: Iterable[int],
        orders: list,
        floor: float,
    ) -> list:
        """Classify one tile; return a :class:`RowScan` per candidate.

        *floor* is the search threshold at tile start (``-inf`` when
        early abandoning is off).  The serial threshold is monotone
        non-decreasing, so a head minimum strictly below *floor* stays
        strictly below every later threshold — those rows break inside
        the head and skip the GEMM entirely.
        """
        positions = np.asarray(list(positions), dtype=np.intp)
        n_rows = positions.size
        if n_rows == 0:
            return []
        rows: list[RowScan] = []
        open_rows: list[int] = []
        for i in range(n_rows):
            order = orders[i]
            head_order = order[:HEAD_BLOCK]
            if head_order.size:
                # The exact call the kernel backend makes for its first
                # block of 8: a matrix-vector product per candidate.  An
                # einsum (or multi-row GEMM) over the whole tile rounds
                # differently, and a 1-ulp divergence can flip a strict
                # comparison in the replay on a score tie.
                head = np.sqrt(
                    kernels.one_vs_all_sq_euclidean(
                        self.normalized[positions[i]],
                        self.normalized[head_order],
                        query_sqnorm=self.sqnorms[positions[i]],
                        sqnorms=self.sqnorms[head_order],
                    )
                )
            else:
                head = np.empty(0)
            row = RowScan(position=int(positions[i]), order=order, head=head)
            rows.append(row)
            if head.size == 0 or order.size <= HEAD_BLOCK:
                # No tail to compute; an empty array keeps the replay's
                # classification checks trivially satisfied.
                row.tail = np.empty(0)
                continue
            if float(head.min()) < floor:
                continue  # dropped: the replay breaks inside the head
            open_rows.append(i)

        if open_rows:
            sel = positions[open_rows]
            tile_sq = kernels.all_pairs_sq_euclidean_tile(
                self.normalized[sel],
                self.normalized,
                query_sqnorms=self.sqnorms[sel],
                sqnorms=self.sqnorms,
                xp=self.xp,
            )
            for j, i in enumerate(open_rows):
                row = rows[i]
                row.tail = np.sqrt(tile_sq[j, row.order[HEAD_BLOCK:]])
        return rows


def replay_row(row: RowScan, threshold: float) -> tuple[float, int, bool]:
    """Replay one candidate's serial inner scan over precomputed values.

    Mirrors ``_kernel_inner_scan`` exactly (block schedule, first-below
    stop).  Returns ``(nearest, consumed, stopped)`` with the same
    meaning as the kernel scan: *consumed* is the logical pair count.
    """
    order = row.order
    n = order.size
    head_size = row.head.size
    nearest = float("inf")
    consumed = 0
    block = HEAD_BLOCK
    start = 0
    while start < n:
        size = min(block, n - start)
        if start == 0:
            dists = row.head[:size]
        else:
            if row.tail is None:
                raise DiscordSearchError(_INCONSISTENT)
            dists = row.tail[start - head_size : start - head_size + size]
        hit = kernels.first_below(dists, threshold)
        if hit >= 0:
            return nearest, consumed + int(hit) + 1, True
        consumed += size
        block_min = float(dists.min())
        if block_min < nearest:
            nearest = block_min
        start += size
        block = min(block * 4, 2048)
    return nearest, consumed, False


def batch_serial_scan(
    scanner: TileScanner,
    positions: Iterable[int],
    make_order: Callable[[int], np.ndarray],
    *,
    abandon: bool,
    counter: DistanceCounter,
    budget: SearchBudget,
    metrics=None,
    init_best: float = -1.0,
    band: Optional[int] = None,
) -> tuple[float, Optional[int]]:
    """Serial outer loop over tiles; returns ``(best_dist, best_pos)``.

    *positions* must already be exclusion-filtered and in serial outer
    order; *make_order* produces each candidate's full inner ordering
    (consuming the search RNG in serial order — orders for a tile are
    drawn up front, so on a budget trip the RNG sits at the tile
    boundary rather than the serial stop point).  Counter and
    metrics updates replicate the serial kernel loops exactly, so the
    ledger and observability output are bit-identical.

    *band*, when given, declares that ``make_order(p)`` enumerates
    exactly the rows with ``|q - p| > band`` (brute force's trivial-match
    exclusion).  With early abandoning off that makes the inner order
    irrelevant — every pair is evaluated and the nearest neighbour is
    the set minimum — so the scan takes a dense fast path: one GEMM per
    tile, a vectorized banded row minimum, and an arithmetic
    ``consumed`` count, never materializing orders or replaying block
    schedules.  The ledger is identical (``consumed ==
    order.size`` for a completed full scan) and ``sqrt`` is monotone, so
    the scores match the replay's bit for bit given the same squared
    distances.
    """
    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_visited = metrics.counter("search.candidates_visited")
        m_abandoned = metrics.counter("search.candidates_abandoned")
        m_survived = metrics.counter("search.candidates_survived")
        m_best = metrics.counter("search.best_updates")
        m_depth = metrics.histogram("search.abandon_depth")
    best = init_best
    best_pos: Optional[int] = None
    pos_list = [int(p) for p in positions]
    step = scanner.tile_rows
    if band is not None and not abandon:
        k = scanner.normalized.shape[0]
        for lo in range(0, len(pos_list), step):
            tile = pos_list[lo : lo + step]
            sel = np.asarray(tile, dtype=np.intp)
            tile_sq = kernels.all_pairs_sq_euclidean_tile(
                scanner.normalized[sel],
                scanner.normalized,
                query_sqnorms=scanner.sqnorms[sel],
                sqnorms=scanner.sqnorms,
                xp=scanner.xp,
            )
            for j, p in enumerate(tile):
                tile_sq[j, max(0, p - band) : p + band + 1] = np.inf
            mins = tile_sq.min(axis=1)
            for j, p in enumerate(tile):
                if budget.interrupted(counter.calls) is not None:
                    return best, best_pos
                consumed = k - (min(k, p + band + 1) - max(0, p - band))
                counter.batch(consumed)
                nearest = (
                    float(np.sqrt(mins[j])) if consumed else float("inf")
                )
                if instrumented:
                    m_visited.inc()
                    m_survived.inc()
                if math.isfinite(nearest) and nearest > best:
                    best = nearest
                    best_pos = p
                    if instrumented:
                        m_best.inc()
        return best, best_pos
    for lo in range(0, len(pos_list), step):
        tile = pos_list[lo : lo + step]
        orders = [make_order(p) for p in tile]
        floor = best if abandon else float("-inf")
        rows = scanner.prepare(tile, orders, floor)
        for row in rows:
            if budget.interrupted(counter.calls) is not None:
                return best, best_pos
            threshold = best if abandon else float("-inf")
            nearest, consumed, stopped = replay_row(row, threshold)
            counter.batch(consumed)
            if instrumented:
                m_visited.inc()
                if stopped:
                    m_abandoned.inc()
                    m_depth.observe(consumed)
                else:
                    m_survived.inc()
            if not stopped and math.isfinite(nearest) and nearest > best:
                best = nearest
                best_pos = row.position
                if instrumented:
                    m_best.inc()
    return best, best_pos
