"""In-process memoization of per-series search artifacts.

A :class:`SearchContext` owns every intermediate the engines, the
pipeline, and the parameter-grid sweep would otherwise recompute for the
same series — cumulative-sum statistics, z-normalized window matrices
(with their row norms), SAX/Haar discretizations, windowed-PAA
coefficient matrices, and the z-normalized sample rows behind the
sweep's approximation-distance axis.

Artifacts are keyed by series *content* (the memoized
:func:`~repro.resilience.checkpoint.series_digest`) plus their shape
parameters, so logically equal arrays share entries.  Every accessor
builds its artifact with the exact arithmetic, in the exact order, the
uncontexted code path uses — memoization changes *when* a value is
computed, never *what* is computed — so discords, distances, and the
logical call ledger stay bit-identical (pinned by the golden-count
suite and the cache equivalence tests).

Engine modules are imported lazily inside the accessors: the engines
themselves import :mod:`repro.cache` for key/result helpers, and a
module-level import here would close that cycle.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.observability.metrics import ensure_metrics
from repro.resilience.checkpoint import series_digest
from repro.timeseries import kernels
from repro.timeseries.windows import num_windows

__all__ = ["SearchContext"]


class SearchContext:
    """Shared per-series artifact memo, threaded through the engines.

    One context serves any number of searches over any number of series
    (entries are content-keyed); :meth:`clear` drops everything when
    memory matters more than reuse.  The context is a pure in-process
    optimization — unlike :class:`~repro.cache.store.ResultCache` it
    never persists anything and never short-circuits a search.
    """

    def __init__(self, *, metrics=None) -> None:
        self._memo: dict = {}
        self.hits = 0
        self.misses = 0
        self._metrics = ensure_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Route subsequent hit/miss counts to *metrics*."""
        self._metrics = ensure_metrics(metrics)

    # -- generic memo ---------------------------------------------------

    def memo(self, key: tuple, build: Callable[[], object]) -> object:
        """The memoized value for *key*, building (and storing) on miss."""
        try:
            value = self._memo[key]
        except KeyError:
            self.misses += 1
            if self._metrics.enabled:
                self._metrics.counter("context.miss").inc()
            value = self._memo[key] = build()
            return value
        self.hits += 1
        if self._metrics.enabled:
            self._metrics.counter("context.hit").inc()
        return value

    def clear(self) -> None:
        """Drop every memoized artifact (tallies are kept)."""
        self._memo.clear()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memo),
        }

    def _series_key(self, series: np.ndarray) -> str:
        return series_digest(series)

    # -- window-level artifacts -----------------------------------------

    def series_stats(self, series: np.ndarray) -> kernels.SeriesStats:
        """Cumulative-sum statistics of *series* (shared across engines)."""
        key = ("series_stats", self._series_key(series))
        return self.memo(key, lambda: kernels.SeriesStats(series))

    def window_matrix(
        self, series: np.ndarray, window: int
    ) -> Optional[kernels.WindowMatrix]:
        """The fixed-length engines' :class:`WindowMatrix` for *window*.

        ``None`` for degenerate inputs (< 2 windows), mirroring the
        engines' own deferral so their validation errors still fire.
        """
        if num_windows(series.size, window) < 2:
            return None
        key = ("window_matrix", self._series_key(series), int(window))
        return self.memo(
            key,
            lambda: kernels.WindowMatrix(
                series, window, stats=self.series_stats(series)
            ),
        )

    # -- SAX artifacts --------------------------------------------------

    def sax_discretization(
        self,
        series: np.ndarray,
        window: int,
        paa_size: int,
        alphabet_size: int,
    ):
        """HOTSAX's per-window SAX discretization (bucket words)."""
        from repro.discord.hotsax import SAXWindowDiscretization

        key = (
            "sax_disc",
            self._series_key(series),
            int(window),
            int(paa_size),
            int(alphabet_size),
        )

        def build():
            windows = self.window_matrix(series, window)
            normalized = windows.normalized if windows is not None else None
            return SAXWindowDiscretization(
                series, window, paa_size, alphabet_size, normalized=normalized
            )

        return self.memo(key, build)

    # -- Haar artifacts -------------------------------------------------

    def haar_bucketing(
        self, series: np.ndarray, window: int, num_coefficients: int
    ):
        """The Haar engine's ``(windows, bucket_fn)`` pair, words memoized."""
        windows = self.window_matrix(series, window)
        if windows is None:
            from repro.discord.haar import haar_words

            return None, (
                lambda s, w: haar_words(s, w, num_coefficients=num_coefficients)
            )
        from repro.discord.haar import haar_words

        key = (
            "haar_words",
            self._series_key(series),
            int(window),
            int(num_coefficients),
        )
        words = self.memo(
            key,
            lambda: haar_words(
                series,
                window,
                num_coefficients=num_coefficients,
                normalized=windows.normalized,
            ),
        )
        return windows, (lambda s, w: words)

    # -- discretization / sweep artifacts -------------------------------

    def windowed_paa(
        self, series: np.ndarray, window: int, paa_size: int
    ) -> np.ndarray:
        """Per-window PAA coefficients (a small k × P matrix), shared by
        every ``alphabet_size`` of the same ``(window, paa_size)``."""
        from repro.sax.discretize import windowed_paa

        key = (
            "windowed_paa",
            self._series_key(series),
            int(window),
            int(paa_size),
        )
        return self.memo(key, lambda: windowed_paa(series, window, paa_size))

    # -- grammar front half ----------------------------------------------

    def sax_tokens(
        self,
        series: np.ndarray,
        window: int,
        paa_size: int,
        alphabet_size: int,
        strategy,
    ):
        """The pipeline's numerosity-reduced :class:`Discretization`.

        Builds on :meth:`windowed_paa`, so every ``alphabet_size`` (and
        every refit) of the same ``(window, paa_size)`` shares the
        sliding-window/znorm/PAA front half.
        """
        from repro.sax.discretize import discretize

        key = (
            "sax_tokens",
            self._series_key(series),
            int(window),
            int(paa_size),
            int(alphabet_size),
            strategy.value,
        )
        return self.memo(
            key,
            lambda: discretize(
                series,
                window,
                paa_size,
                alphabet_size,
                strategy=strategy,
                paa_values=self.windowed_paa(series, window, paa_size),
            ),
        )

    def grammar_front(
        self,
        series: np.ndarray,
        window: int,
        paa_size: int,
        alphabet_size: int,
        strategy,
        algorithm: str = "sequitur",
    ):
        """The pipeline front half: ``(disc, grammar, intervals, gaps)``.

        Everything the detector's :meth:`~repro.core.pipeline.
        GrammarAnomalyDetector.fit` derives from the token stream before
        any distance work — the induced grammar, its occurrence
        intervals, and the uncovered-token gaps — memoized per
        ``(series content, window, paa_size, alphabet_size, strategy,
        algorithm)``.  RRA candidate generation, density ranking, and
        repeated sweep cells all reuse one induction.  The density curve
        is deliberately *not* memoized: it is O(n) from *intervals* and
        recomputing it per fit keeps the density metrics gauges behaving
        identically on memo hits and misses.
        """
        key = (
            "grammar_front",
            self._series_key(series),
            int(window),
            int(paa_size),
            int(alphabet_size),
            strategy.value,
            algorithm,
        )

        def build():
            from repro.grammar.intervals import (
                rule_intervals,
                uncovered_intervals,
            )

            disc = self.sax_tokens(
                series, window, paa_size, alphabet_size, strategy
            )
            if algorithm == "repair":
                from repro.grammar.repair import repair_grammar

                grammar = repair_grammar(disc.tokens())
            else:
                from repro.grammar.sequitur import induce_grammar_interned

                grammar = induce_grammar_interned(
                    disc.token_ids, disc.vocabulary, tokens=disc.tokens()
                )
            intervals = rule_intervals(grammar, disc)
            gaps = uncovered_intervals(grammar, disc)
            return disc, grammar, intervals, gaps

        return self.memo(key, build)

    # -- RRA artifacts --------------------------------------------------

    def rra_candidate_set(self, series: np.ndarray, intervals):
        """The RRA engine's candidate set for *intervals*, reused across
        searches.

        Keyed by the interval *positions* (rule ids are display-only:
        the set reads nothing but ``start``/``end``/``length``), so a
        repeated :func:`~repro.core.rra.find_discords` over the same
        grammar — common in interactive sweeps — reuses every
        z-normalized candidate subsequence, squared norm, squared
        cumulative sum and memoized pair distance instead of
        rebuilding them.  Purely accelerative: every cached quantity is
        the exact float the uncontexted path computes.  This is the
        largest artifact family the context holds (one normalized copy
        of every distinct candidate); use :meth:`clear` between
        unrelated studies if memory matters.
        """
        from repro.core.rra import _CandidateSet

        key = (
            "rra_candidates",
            self._series_key(series),
            tuple((iv.start, iv.end) for iv in intervals),
        )
        return self.memo(
            key,
            lambda: _CandidateSet(series, stats=self.series_stats(series)),
        )

    def approx_normalized_rows(
        self, series: np.ndarray, window: int, sample_stride: int
    ) -> list:
        """The z-normalized sample rows behind ``approximation_distance``,
        shared across every ``paa_size`` of the same ``window``."""
        from repro.core.parameter_grid import _normalized_sample_rows

        key = (
            "approx_rows",
            self._series_key(series),
            int(window),
            int(sample_stride),
        )
        return self.memo(
            key,
            lambda: _normalized_sample_rows(series, window, sample_stride),
        )

    def __repr__(self) -> str:
        return (
            f"SearchContext(entries={len(self._memo)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
