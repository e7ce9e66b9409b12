"""End-to-end pipeline: series -> SAX -> grammar -> anomalies.

:class:`GrammarAnomalyDetector` is the library's main entry point.  It
runs the full chain of the paper once (discretization + grammar
induction + interval projection) and then answers both kinds of queries
— rule-density anomalies and RRA discords — from the shared
intermediate state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.anomaly import Anomaly, Discord
from repro.core.rra import find_discords, nearest_neighbor_distances
from repro.core.rule_density import find_density_anomalies, rule_density_curve
from repro.discord.search import DiscordSearchResult
from repro.exceptions import ParameterError
from repro.grammar.grammar import Grammar
from repro.grammar.intervals import (
    RuleInterval,
    RuleIntervalList,
    rule_intervals,
    uncovered_intervals,
)
from repro.grammar.repair import repair_grammar
from repro.grammar.sequitur import induce_grammar_interned
from repro.observability.metrics import MetricsRegistry, ensure_metrics
from repro.observability.report import write_run_report
from repro.resilience.budget import SearchBudget
from repro.sax.discretize import Discretization, NumerosityReduction, discretize
from repro.timeseries.preprocess import QUALITY_POLICIES, quality_gate


@dataclass
class PipelineResult:
    """Everything the pipeline computed for one series.

    Exposed so callers (benchmarks, visualization, notebooks) can inspect
    intermediate state: the discretization, the grammar, the projected
    rule intervals, and the density curve.
    """

    series: np.ndarray
    discretization: Discretization
    grammar: Grammar
    intervals: Sequence[RuleInterval]
    gaps: Sequence[RuleInterval]
    density: np.ndarray = field(repr=False, default=None)
    masked_spans: tuple[tuple[int, int], ...] = ()

    @property
    def candidates(self) -> RuleIntervalList:
        """RRA candidate set: rule intervals plus zero-coverage gaps.

        One :class:`~repro.grammar.intervals.RuleIntervalList`: the
        interval table followed by the gap table.  Under the ``mask``
        quality policy, candidates overlapping a masked (originally
        non-finite) span are excluded — an anomaly must never be
        reported from interpolated filler data.
        """
        pool = RuleIntervalList.of(self.intervals) + RuleIntervalList.of(self.gaps)
        if not self.masked_spans:
            return pool
        return pool.subset(~pool.overlapping(self.masked_spans))


class GrammarAnomalyDetector:
    """Grammar-compression-driven anomaly detector (the paper's framework).

    Parameters
    ----------
    window:
        Sliding-window ("seed") length W.
    paa_size:
        PAA segments per window P.
    alphabet_size:
        SAX alphabet size A.
    numerosity_reduction:
        Strategy for collapsing consecutive identical words.
    grammar_algorithm:
        ``"sequitur"`` (the paper) or ``"repair"`` (ablation).
    seed:
        Seed of the RRA inner loops' random tails (an int in ``[0, 2**64)``);
        it can change the distance calls, never the discords.
    quality_policy:
        How :meth:`fit` treats NaN/Inf values in the input series:
        ``"raise"`` (default) refuses dirty data with
        :class:`~repro.exceptions.DataQualityError`; ``"interpolate"``
        repairs gaps linearly; ``"mask"`` repairs them but excludes any
        candidate interval overlapping a repaired span, so anomalies are
        never reported from invented data.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`.  When
        given, every fit and query on this detector records structured
        telemetry (phase spans, grammar-size gauges, search counters,
        trace events) into the shared registry;
        :meth:`discords` can serialize it as a JSONL run report via
        ``report_path=``.  Disabled by default — results are
        byte-identical with or without it.
    cache:
        Optional persistent result cache for :meth:`discords`: a
        :class:`~repro.cache.ResultCache` or a directory path (string /
        path-like) one is created over.  A repeated identical query —
        same series content, candidates, and parameters — returns the
        stored discords and ledger flagged ``from_cache=True``,
        bit-identical to a live run.  Disabled by default.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import GrammarAnomalyDetector
    >>> t = np.arange(4000)
    >>> series = np.sin(2 * np.pi * t / 200)
    >>> series[2000:2120] = -series[2000:2120]   # plant an anomaly
    >>> detector = GrammarAnomalyDetector(window=100, paa_size=4,
    ...                                   alphabet_size=4)
    >>> fit = detector.fit(series)
    >>> discords = detector.discords(num_discords=1)
    >>> 1900 <= discords.best.start <= 2120
    True
    """

    def __init__(
        self,
        window: int,
        paa_size: int,
        alphabet_size: int,
        *,
        numerosity_reduction: NumerosityReduction = NumerosityReduction.EXACT,
        grammar_algorithm: str = "sequitur",
        seed: int = 0,
        quality_policy: str = "raise",
        metrics=None,
        cache=None,
    ) -> None:
        if grammar_algorithm not in ("sequitur", "repair"):
            raise ParameterError(
                f"grammar_algorithm must be 'sequitur' or 'repair', "
                f"got {grammar_algorithm!r}"
            )
        if quality_policy not in QUALITY_POLICIES:
            raise ParameterError(
                f"quality_policy must be one of {QUALITY_POLICIES}, "
                f"got {quality_policy!r}"
            )
        self.quality_policy = quality_policy
        self.window = window
        self.paa_size = paa_size
        self.alphabet_size = alphabet_size
        self.numerosity_reduction = numerosity_reduction
        self.grammar_algorithm = grammar_algorithm
        self.seed = seed
        self.metrics = ensure_metrics(metrics)
        if cache is not None:
            # Imported here: a detector without a cache never loads it.
            from repro.cache import ResultCache

            if not isinstance(cache, ResultCache):
                cache = ResultCache(cache)
        self.cache = cache
        if self.metrics.enabled and self.cache is not None:
            self.cache.bind_metrics(self.metrics)
        self._result: Optional[PipelineResult] = None

    # -- fitting --------------------------------------------------------

    def fit(self, series: np.ndarray) -> PipelineResult:
        """Run discretization + grammar induction + interval projection.

        The input passes through the data-quality gate first; see the
        *quality_policy* constructor argument.
        """
        metrics = self.metrics
        report = quality_gate(
            np.asarray(series, dtype=float), policy=self.quality_policy
        )
        series = report.series
        if metrics.enabled and report.bad_spans:
            metrics.event(
                "pipeline.quality_repair",
                policy=self.quality_policy,
                bad_spans=[list(span) for span in report.bad_spans],
            )
        with metrics.span("pipeline.discretize"):
            disc = discretize(
                series,
                self.window,
                self.paa_size,
                self.alphabet_size,
                strategy=self.numerosity_reduction,
            )
        with metrics.span("pipeline.grammar", algorithm=self.grammar_algorithm):
            if self.grammar_algorithm == "repair":
                grammar = repair_grammar(disc.tokens())
            else:
                grammar = induce_grammar_interned(disc.token_ids, disc.vocabulary)
        intervals = rule_intervals(grammar, disc)
        gaps = uncovered_intervals(grammar, disc)
        density = rule_density_curve(intervals, series.size, metrics=metrics)
        if metrics.enabled:
            metrics.gauge("pipeline.words_reduced").set(len(disc))
            metrics.gauge("pipeline.grammar_rules").set(len(grammar))
            metrics.gauge("pipeline.grammar_size").set(grammar.grammar_size())
            metrics.gauge("pipeline.rule_intervals").set(len(intervals))
            metrics.gauge("pipeline.gaps").set(len(gaps))
        self._result = PipelineResult(
            series=series,
            discretization=disc,
            grammar=grammar,
            intervals=intervals,
            gaps=gaps,
            density=density,
            masked_spans=report.bad_spans if self.quality_policy == "mask" else (),
        )
        return self._result

    @property
    def result(self) -> PipelineResult:
        if self._result is None:
            raise ParameterError("call fit(series) before querying the detector")
        return self._result

    # -- queries --------------------------------------------------------

    def density_curve(self) -> np.ndarray:
        """The rule density curve of the fitted series."""
        return self.result.density

    def density_anomalies(
        self,
        *,
        threshold: Optional[float] = None,
        min_length: int = 1,
        max_anomalies: Optional[int] = None,
        edge_exclusion: Optional[int] = None,
    ) -> list[Anomaly]:
        """Rule-density anomalies (paper Section 4.1).

        By default the first and last window-length of the curve are
        excluded from the minima search, because rule coverage always
        tapers off at the series boundaries.
        """
        if edge_exclusion is None:
            edge_exclusion = self.window
        return find_density_anomalies(
            self.result.density,
            threshold=threshold,
            min_length=min_length,
            max_anomalies=max_anomalies,
            edge_exclusion=edge_exclusion,
            metrics=self.metrics,
        )

    def discords(
        self,
        *,
        num_discords: int = 1,
        budget: Optional[SearchBudget] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 32,
        resume_from: Optional[str] = None,
        report_path: Optional[str] = None,
    ) -> DiscordSearchResult:
        """RRA variable-length discords (paper Section 4.2).

        Anytime and fault-tolerant: pass a
        :class:`~repro.resilience.budget.SearchBudget` to bound the
        search, and/or a *checkpoint_path* so a killed run can be
        resumed bit-identically via *resume_from* (see
        :func:`repro.core.rra.find_discords`).

        Graceful degradation: when the budget trips before every rank
        is exact, the result carries ``degraded=True`` and its
        ``fallback`` field holds ranked rule-density anomalies — the
        paper's cheap O(m) signal — so callers always get a usable
        ranked answer even from a starved search.

        When the detector was built with ``cache=``, a repeated
        identical query is answered from the store: the result carries
        the cached discords and replays the stored ledger, flagged
        ``from_cache=True``, bit-identical to a live run.

        *report_path* writes a JSONL run report of this query
        (:func:`repro.observability.report.write_run_report`) — search
        telemetry, trace events, and the final ledger.  It uses the
        detector's registry when one was supplied, otherwise a
        query-local registry, so requesting a report never perturbs an
        uninstrumented detector's results.
        """
        result = self.result
        metrics = self.metrics
        if report_path is not None and not metrics.enabled:
            metrics = MetricsRegistry()
        rra = find_discords(
            result.series,
            result.candidates,
            num_discords=num_discords,
            seed=self.seed,
            budget=budget,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            metrics=metrics,
            cache=self.cache,
        )
        if not rra.complete:
            rra.degraded = True
            if metrics.enabled:
                metrics.event(
                    "pipeline.degraded",
                    status=rra.status.value,
                    ranks_found=len(rra.discords),
                    requested=num_discords,
                )
            rra.fallback = find_density_anomalies(
                result.density,
                max_anomalies=max(num_discords, 1),
                edge_exclusion=self.window,
                metrics=metrics,
            )
        if report_path is not None:
            write_run_report(
                report_path,
                metrics,
                meta={
                    "engine": "rra",
                    "window": self.window,
                    "paa_size": self.paa_size,
                    "alphabet_size": self.alphabet_size,
                    "num_discords": num_discords,
                    "seed": self.seed,
                    "distance_calls": rra.distance_calls,
                    "status": rra.status.value,
                },
            )
        return rra

    def nn_distance_profile(self) -> list[tuple[RuleInterval, float]]:
        """Nearest-non-self-match distance per candidate (figure panels)."""
        result = self.result
        return nearest_neighbor_distances(result.series, result.candidates)

    # -- summaries ------------------------------------------------------

    def summary(self) -> dict:
        """Human-oriented summary of the fitted state."""
        result = self.result
        return {
            "series_length": int(result.series.size),
            "window": self.window,
            "paa_size": self.paa_size,
            "alphabet_size": self.alphabet_size,
            "words_raw": result.discretization.raw_word_count,
            "words_reduced": len(result.discretization),
            "grammar_algorithm": self.grammar_algorithm,
            "grammar_rules": len(result.grammar),
            "grammar_size": result.grammar.grammar_size(),
            "rule_intervals": len(result.intervals),
            "zero_coverage_gaps": len(result.gaps),
        }
