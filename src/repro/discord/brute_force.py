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

import math
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import (
    DiscordSearchResult,
    ScanRun,
    fixed_length_discords,
    rank_search,
    starts_clear_of,
)
from repro.resilience.budget import SearchBudget
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


def _brute_force_rank(
    windows: kernels.WindowMatrix,
    spans: Sequence[tuple[int, int]],
    *,
    early_abandon: bool,
    counter: DistanceCounter,
    budget: SearchBudget,
    metrics,
) -> Optional[Discord]:
    """One rank of :func:`brute_force_discords` over the search's window
    matrix, its only source of series and window: every window that
    overlaps no found discord's span in *spans*, in start order."""
    starts = np.arange(num_windows(windows.series.size, windows.window))
    outer = starts_clear_of(starts, spans, windows.window)
    return rank_search(
        np.stack((outer, outer + windows.window)),
        _RowScan(windows, outer, early_abandon),
        source="brute_force", best_dist=-1.0,
        counter=counter, budget=budget, metrics=metrics,
    )


class _RowScan(ScanRun):
    """An outer window of brute force: one matrix-vector product yields
    its whole distance row, and the per-pair early-abandon logic is
    replayed on it so the logical call count stays identical."""

    def __init__(self, windows, outer, early_abandon):
        super().__init__()
        self._normalized, self._sqnorms = windows.normalized, windows.sqnorms
        self._window, self._outer, self._early_abandon = windows.window, outer, early_abandon

    def scan(self, i: int, best_dist: float) -> tuple[float, bool]:
        p, window = int(self._outer[i]), self._window
        sq_row = kernels.one_vs_all_sq_euclidean(
            self._normalized[p], self._normalized,
            query_sqnorm=self._sqnorms[p], sqnorms=self._sqnorms,
        )
        valid = np.ones(sq_row.size, dtype=bool)
        valid[max(0, p - window) : p + window + 1] = False
        dists = np.sqrt(sq_row[valid])
        if self._early_abandon:
            hit = kernels.first_below(dists, best_dist)
            if hit >= 0:
                self.calls += hit + 1
                return math.inf, True
        self.calls += dists.size
        return (float(dists.min()) if dists.size else math.inf), False


def brute_force_discords(
    series: np.ndarray,
    window: int,
    *,
    num_discords: int = 1,
    counter: Optional[DistanceCounter] = None,
    early_abandon: bool = True,
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
) -> DiscordSearchResult:
    """Ranked top-k fixed-length discords by exhaustive search (anytime).

    Every sliding window of length *window* is a candidate, scanned
    against every non-self match.  *early_abandon* breaks a candidate's
    scan at the first distance below the running best (the candidate
    cannot be the discord); the paper's brute-force column counts the
    non-abandoning search, ``early_abandon=False``, whose call count is
    :func:`brute_force_call_count`.  With a *budget* the result may be
    truncated: check ``result.status`` and ``result.rank_complete``.
    *cache* serves an identical previous search from disk (discords +
    call count, ``from_cache=True``).
    """
    return fixed_length_discords(
        "brute_force",
        np.asarray(series, dtype=float),
        window,
        lambda windows: partial(_brute_force_rank, windows, early_abandon=early_abandon),
        params={"early_abandon": bool(early_abandon)},
        num_discords=num_discords,
        counter=counter,
        budget=budget,
        metrics=metrics,
        cache=cache,
    )
