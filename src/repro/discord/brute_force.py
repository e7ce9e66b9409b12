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

from typing import Optional

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import DiscordSearchResult, fixed_length_discords
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import ensure_metrics
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
    sqnorms = windows.sqnorms

    best_dist = -1.0
    best_pos = None
    try:
        best_dist, best_pos = _brute_force_scan(
            normalized, sqnorms, k, window, counter, budget,
            early_abandon=early_abandon, exclude=exclude, metrics=metrics,
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
    sqnorms: np.ndarray,
    k: int,
    window: int,
    counter: DistanceCounter,
    budget: SearchBudget,
    *,
    early_abandon: bool,
    exclude: tuple[tuple[int, int], ...],
    metrics=None,
) -> tuple[float, Optional[int]]:
    """The exhaustive outer/inner loop; returns (best_dist, best_pos)."""
    metrics = ensure_metrics(metrics)
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
        # One matrix-vector product yields the candidate's entire
        # distance row; the per-pair early-abandon logic is replayed on
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
    series = np.asarray(series, dtype=float)

    def build_search(session, windows):
        return lambda exclude: brute_force_discord(
            series,
            window,
            counter=session.counter,
            early_abandon=early_abandon,
            exclude=exclude,
            budget=session.budget,
            windows=windows,
            metrics=session.metrics,
        )[0]

    return fixed_length_discords(
        "brute_force",
        series,
        window,
        build_search,
        params={"early_abandon": bool(early_abandon)},
        num_discords=num_discords,
        counter=counter,
        budget=budget,
        metrics=metrics,
        cache=cache,
    )
