"""HOTSAX discord discovery (Keogh, Lin & Fu 2005) — Table 1 baseline.

HOTSAX accelerates brute force with two SAX-driven heuristics:

* **Outer loop** — candidate windows in ascending order of their SAX
  word's occurrence count (rare words are likely discords, so a strong
  ``best_so_far`` is found early);
* **Inner loop** — for each candidate, windows sharing the same SAX word
  are tried first (likely near matches → early abandoning), the rest in
  random order.

The search is exact: it returns the same discord as brute force, only
with far fewer distance calls.  The loop engine is shared with the
Haar-ordered baseline (:mod:`repro.discord.search`); HOTSAX contributes
the SAX-word bucketing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import iterated_search, ordered_discord_search
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.sax.alphabet import alphabet_letters, letter_indices
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import num_windows, sliding_windows
from repro.timeseries.znorm import znorm_rows


@dataclass
class HOTSAXResult:
    """Outcome of a HOTSAX search (discords + the Table 1 call count).

    ``status`` and the per-rank ``rank_complete`` flags report anytime
    truncation: with a tripped budget the discords are the best found
    so far rather than the exact answer.
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


class SAXWindowDiscretization:
    """One-shot SAX discretization of every sliding window, kept around.

    The per-window SAX words are computed in a single pass and cached on
    the search, so HOTSAX's bucket ordering discretizes once per search
    rather than once per rank.
    """

    __slots__ = ("window", "paa_size", "alphabet_size", "words")

    def __init__(
        self,
        series: np.ndarray,
        window: int,
        paa_size: int,
        alphabet_size: int,
        *,
        normalized: Optional[np.ndarray] = None,
    ):
        if normalized is None:
            normalized = znorm_rows(sliding_windows(series, window))
        self.window = window
        self.paa_size = paa_size
        self.alphabet_size = alphabet_size
        letters = letter_indices(paa_batch(normalized, paa_size), alphabet_size)
        alphabet = alphabet_letters(alphabet_size)
        self.words = ["".join(alphabet[i] for i in row) for row in letters]


def _sax_words_per_window(
    series: np.ndarray, window: int, paa_size: int, alphabet_size: int
) -> list[str]:
    """SAX word of every sliding window (no numerosity reduction)."""
    return SAXWindowDiscretization(series, window, paa_size, alphabet_size).words


def hotsax_discord(
    series: np.ndarray,
    window: int,
    *,
    paa_size: int = 3,
    alphabet_size: int = 3,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    exclude: tuple[tuple[int, int], ...] = (),
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    metrics=None,
) -> tuple[Optional[Discord], DistanceCounter]:
    """Find the best fixed-length discord with the HOTSAX heuristics.

    Parameters
    ----------
    series:
        Raw time series.
    window:
        Discord length n (every candidate has exactly this length).
    paa_size, alphabet_size:
        SAX parameters for the heuristic orderings (they do not affect
        the result, only the number of distance calls).
    counter:
        Distance counter to accumulate into.
    rng:
        Randomness for the inner-loop tail ordering.
    exclude:
        Candidate start positions inside these half-open ranges are
        skipped (multi-discord extraction).
    backend:
        ``"kernel"`` (default) or ``"scalar"`` — see
        :func:`repro.discord.search.ordered_discord_search`.
    budget:
        Optional anytime budget; on exhaustion or cancellation the
        best-so-far discord is returned (``budget.status`` says why).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` recording
        search telemetry (see
        :func:`repro.discord.search.ordered_discord_search`).  Disabled
        by default; results are byte-identical either way.
    """
    series = np.asarray(series, dtype=float)
    windows = (
        kernels.WindowMatrix(series, window)
        if num_windows(series.size, window) >= 2
        else None
    )
    normalized = windows.normalized if windows is not None else None
    disc = SAXWindowDiscretization(
        series, window, paa_size, alphabet_size, normalized=normalized
    )
    return ordered_discord_search(
        series,
        window,
        lambda s, w: disc.words,
        source="hotsax",
        counter=counter,
        rng=rng,
        exclude=exclude,
        backend=backend,
        budget=budget,
        windows=windows,
        metrics=metrics,
    )


def hotsax_discords(
    series: np.ndarray,
    window: int,
    *,
    num_discords: int = 1,
    paa_size: int = 3,
    alphabet_size: int = 3,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    backend: str = "kernel",
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
    context=None,
) -> HOTSAXResult:
    """Ranked top-k fixed-length discords with the HOTSAX heuristics.

    Anytime: with a *budget* the result may be truncated — check
    ``result.status`` and ``result.rank_complete``.  The SAX
    discretization is computed once and shared across all ranks.

    *cache* (a :class:`~repro.cache.store.ResultCache`) serves an
    identical previous search from disk — same discords, same call
    ledger applied to *counter*, flagged ``from_cache=True``; only
    complete, untruncated results are ever stored.  *context* (a
    :class:`~repro.cache.context.SearchContext`) shares the window
    matrix and SAX discretization across searches.
    Both default to ``None`` — the unconfigured path is byte-identical
    to the pre-cache code.
    """
    if budget is None:
        budget = SearchBudget.unlimited()
    series = np.asarray(series, dtype=float)
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

        if counter is None:
            counter = DistanceCounter()
        if rng is None:
            rng = np.random.default_rng(0)
        cache_key = discord_search_key(
            series,
            (),
            engine="hotsax",
            params={
                "window": int(window),
                "num_discords": int(num_discords),
                "paa_size": int(paa_size),
                "alphabet_size": int(alphabet_size),
                "backend": backend,
            },
            rng=rng,
        )
        entry = cache.get(cache_key)
        if entry is not None:
            apply_ledger_delta(counter, entry["ledger"])
            discords = discords_from_json(entry["discords"])
            return HOTSAXResult(
                discords=discords,
                distance_calls=counter.calls,
                window=window,
                status=SearchStatus.COMPLETE,
                rank_complete=[True] * len(discords),
                from_cache=True,
            )
        ledger_before = counter.ledger()
    if context is not None:
        windows = context.window_matrix(series, window)
        disc = context.sax_discretization(
            series, window, paa_size, alphabet_size
        )
    else:
        windows = (
            kernels.WindowMatrix(series, window)
            if num_windows(series.size, window) >= 2
            else None
        )
        normalized = windows.normalized if windows is not None else None
        disc = SAXWindowDiscretization(
            series, window, paa_size, alphabet_size, normalized=normalized
        )
    discords, counter, rank_complete = iterated_search(
        series,
        window,
        lambda s, w: disc.words,
        source="hotsax",
        num_discords=num_discords,
        counter=counter,
        rng=rng,
        backend=backend,
        budget=budget,
        windows=windows,
        metrics=metrics,
    )
    if (
        cache_key is not None
        and budget.status is SearchStatus.COMPLETE
        and all(rank_complete)
    ):
        cache.put(
            cache_key,
            {
                "engine": "hotsax",
                "discords": discords_to_json(discords),
                "ledger": ledger_delta(ledger_before, counter.ledger()),
            },
        )
    return HOTSAXResult(
        discords=discords,
        distance_calls=counter.calls,
        window=window,
        status=budget.status,
        rank_complete=rank_complete,
    )
