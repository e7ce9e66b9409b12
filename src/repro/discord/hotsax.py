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

from functools import partial
from typing import Optional

import numpy as np

from repro.core.anomaly import Discord
from repro.discord.search import (
    DiscordSearchResult,
    bucket_rank,
    fixed_length_discords,
    search_windows,
)
from repro.resilience.budget import SearchBudget
from repro.sax.alphabet import alphabet_letters, letter_indices
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm_rows


#: The HOTSAX result type; the name predates the shared result class.
HOTSAXResult = DiscordSearchResult


def _sax_words_per_window(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    normalized: Optional[np.ndarray] = None,
) -> list[str]:
    """SAX word of every sliding window (no numerosity reduction).

    *normalized* is the z-normalized window matrix when the caller has
    it already (a search's :class:`~repro.timeseries.kernels.WindowMatrix`).
    """
    if normalized is None:
        normalized = znorm_rows(sliding_windows(series, window))
    letters = letter_indices(paa_batch(normalized, paa_size), alphabet_size)
    alphabet = alphabet_letters(alphabet_size)
    return ["".join(alphabet[i] for i in row) for row in letters]


def hotsax_discord(
    series: np.ndarray,
    window: int,
    *,
    paa_size: int = 3,
    alphabet_size: int = 3,
    counter: Optional[DistanceCounter] = None,
    rng: Optional[np.random.Generator] = None,
    exclude: tuple[tuple[int, int], ...] = (),
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
    budget:
        Optional anytime budget; on exhaustion or cancellation the
        best-so-far discord is returned (``budget.status`` says why).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry` recording
        search telemetry (see
        :func:`repro.discord.search.ordered_discord_search`).  Disabled
        by default; results are byte-identical either way.
    """
    series = np.ascontiguousarray(series, dtype=float)
    windows = search_windows(series, window)
    words = _sax_words_per_window(
        series, window, paa_size, alphabet_size, normalized=windows.normalized
    )
    return bucket_rank(
        windows, words, source="hotsax", counter=counter, rng=rng,
        exclude=exclude, budget=budget, metrics=metrics,
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
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
) -> HOTSAXResult:
    """Ranked top-k fixed-length discords with the HOTSAX heuristics.

    Anytime: with a *budget* the result may be truncated — check
    ``result.status`` and ``result.rank_complete``.  The SAX
    discretization is computed once and shared across all ranks.

    *cache* (a :class:`~repro.cache.store.ResultCache`) serves an
    identical previous search from disk — same discords, same call
    ledger applied to *counter*, flagged ``from_cache=True``; only
    complete, untruncated results are ever stored.
    """
    series = np.asarray(series, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)

    def build_rank(windows):
        words = _sax_words_per_window(
            series, window, paa_size, alphabet_size,
            normalized=windows.normalized,
        )
        return partial(bucket_rank, windows, words, source="hotsax", rng=rng)

    return fixed_length_discords(
        "hotsax",
        series,
        window,
        build_rank,
        params={"paa_size": int(paa_size), "alphabet_size": int(alphabet_size)},
        num_discords=num_discords,
        counter=counter,
        rng=rng,
        budget=budget,
        metrics=metrics,
        cache=cache,
    )
