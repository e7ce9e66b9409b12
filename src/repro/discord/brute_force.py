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
from typing import Optional

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import (
    DiscordSearchResult,
    ScanRun,
    fixed_length_discords,
    rank_search,
    search_windows,
    starts_outside,
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


def brute_force_discord(
    series: np.ndarray,
    window: int,
    *,
    counter: Optional[DistanceCounter] = None,
    early_abandon: bool = False,
    exclude: tuple[tuple[int, int], ...] = (),
    budget: Optional[SearchBudget] = None,
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
    budget:
        Optional anytime budget, checked once per outer candidate.  On
        exhaustion (or ``KeyboardInterrupt`` while one was supplied) the
        best-so-far discord is returned and ``budget.status`` says why.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` recording
        search telemetry (candidates visited / abandoned, abandon
        depths, budget trips).  Disabled by default; results and logical
        call counts are byte-identical either way.
    """
    return brute_force_rank(
        search_windows(np.asarray(series, dtype=float), window),
        counter=counter, early_abandon=early_abandon, exclude=exclude,
        budget=budget, metrics=metrics,
    )


def brute_force_rank(
    windows: kernels.WindowMatrix,
    *,
    counter: Optional[DistanceCounter] = None,
    early_abandon: bool = False,
    exclude: tuple[tuple[int, int], ...] = (),
    budget: Optional[SearchBudget] = None,
    metrics=None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """One rank of :func:`brute_force_discord` over the search's window
    matrix, its only source of series and window."""
    outer = starts_outside(np.arange(num_windows(windows.series.size, windows.window)), exclude)
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


#: The brute-force result type; the name predates the shared result class.
BruteForceResult = DiscordSearchResult


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
) -> BruteForceResult:
    """Ranked top-k fixed-length discords by exhaustive search (anytime).

    *cache* serves an identical previous search from disk (discords +
    call ledger, ``from_cache=True``).
    """
    return fixed_length_discords(
        "brute_force",
        np.asarray(series, dtype=float),
        window,
        lambda windows: partial(brute_force_rank, windows, early_abandon=early_abandon),
        params={"early_abandon": bool(early_abandon)},
        num_discords=num_discords,
        counter=counter,
        budget=budget,
        metrics=metrics,
        cache=cache,
    )
