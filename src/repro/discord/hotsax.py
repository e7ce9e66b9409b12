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

from repro.discord.search import (
    DiscordSearchResult,
    bucket_rank,
    fixed_length_discords,
)
from repro.resilience.budget import SearchBudget
from repro.sax.alphabet import alphabet_letters, letter_indices
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.paa import paa_batch


def _sax_words_per_window(
    normalized: np.ndarray, paa_size: int, alphabet_size: int
) -> list[str]:
    """SAX word of every row of the z-normalized window matrix
    *normalized* (no numerosity reduction)."""
    letters = letter_indices(paa_batch(normalized, paa_size), alphabet_size)
    alphabet = alphabet_letters(alphabet_size)
    return ["".join(alphabet[i] for i in row) for row in letters]


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
) -> DiscordSearchResult:
    """Ranked top-k fixed-length discords with the HOTSAX heuristics.

    Every candidate has length *window*.  *paa_size* and
    *alphabet_size* are the SAX parameters of the heuristic orderings:
    they change the number of distance calls, never the discords.
    *rng* orders each inner loop's tail.

    Anytime: with a *budget* the result may be truncated — check
    ``result.status`` and ``result.rank_complete``.  The SAX
    discretization is computed once and shared across all ranks.
    *metrics* (a :class:`~repro.observability.MetricsRegistry`) records
    search telemetry; results and call counts are byte-identical with
    or without it.

    *cache* (a :class:`~repro.cache.store.ResultCache`) serves an
    identical previous search from disk — same discords, same call
    count added to *counter*, flagged ``from_cache=True``; only
    complete, untruncated results are ever stored.
    """
    series = np.asarray(series, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)

    def build_rank(windows):
        words = _sax_words_per_window(windows.normalized, paa_size, alphabet_size)
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
