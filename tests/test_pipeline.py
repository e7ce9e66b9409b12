"""Tests for repro.core.pipeline — the GrammarAnomalyDetector facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import ParameterError
from repro.sax.discretize import NumerosityReduction


class TestLifecycle:
    def test_query_before_fit_rejected(self):
        detector = GrammarAnomalyDetector(40, 4, 4)
        with pytest.raises(ParameterError):
            detector.density_curve()

    def test_bad_grammar_algorithm(self):
        with pytest.raises(ParameterError):
            GrammarAnomalyDetector(40, 4, 4, grammar_algorithm="lz77")

    def test_fit_returns_result(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        result = detector.fit(sine_bump.series)
        assert result is detector.result
        assert result.series.size == sine_bump.length
        assert len(result.grammar) >= 1
        assert result.density.size == sine_bump.length

    def test_refit_replaces_state(self, sine_bump, rng):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        first = detector.result
        detector.fit(rng.normal(size=500))
        assert detector.result is not first


class TestQueries:
    def test_density_anomalies_find_bump(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        anomalies = detector.density_anomalies(max_anomalies=3)
        assert any(
            sine_bump.contains_hit(a.start, a.end, min_overlap=0.3)
            for a in anomalies
        )

    def test_rra_finds_bump(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        result = detector.discords(num_discords=1)
        best = result.best
        assert sine_bump.contains_hit(best.start, best.end, min_overlap=0.3)

    def test_candidates_include_gaps(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        result = detector.fit(sine_bump.series)
        assert len(result.candidates) == len(result.intervals) + len(result.gaps)

    def test_nn_distance_profile(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        profile = detector.nn_distance_profile()
        assert profile
        assert all(d >= 0 or not np.isfinite(d) for _, d in profile)

    def test_summary_fields(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(sine_bump.series)
        summary = detector.summary()
        assert summary["series_length"] == sine_bump.length
        assert summary["words_reduced"] <= summary["words_raw"]
        assert summary["grammar_rules"] >= 1


class TestConfigurations:
    def test_repair_backend(self, sine_bump):
        detector = GrammarAnomalyDetector(50, 4, 4, grammar_algorithm="repair")
        result = detector.fit(sine_bump.series)
        assert result.grammar.algorithm == "repair"
        discords = detector.discords(num_discords=1)
        assert discords.best is not None

    def test_numerosity_none(self, sine_bump):
        detector = GrammarAnomalyDetector(
            50, 4, 4, numerosity_reduction=NumerosityReduction.NONE
        )
        result = detector.fit(sine_bump.series)
        assert result.discretization.raw_word_count == len(result.discretization)

    def test_seed_changes_rng_not_result_shape(self, sine_bump):
        a = GrammarAnomalyDetector(50, 4, 4, seed=0)
        b = GrammarAnomalyDetector(50, 4, 4, seed=99)
        a.fit(sine_bump.series)
        b.fit(sine_bump.series)
        # grammar identical (induction is deterministic) ...
        assert a.result.grammar.grammar_size() == b.result.grammar.grammar_size()
        # ... and both find the same best discord despite inner shuffles
        assert a.discords().best.start == b.discords().best.start

    def test_determinism_end_to_end(self, sine_bump):
        runs = []
        for _ in range(2):
            detector = GrammarAnomalyDetector(50, 4, 4, seed=7)
            detector.fit(sine_bump.series)
            result = detector.discords(num_discords=2)
            runs.append(
                [(d.start, d.end, round(d.nn_distance, 12)) for d in result.discords]
            )
        assert runs[0] == runs[1]


class TestFrontHalfPath:
    def test_ensemble_members_call_the_pipeline_module_attributes(
        self, monkeypatch
    ):
        """Every valid member's fit goes through ``discretize`` and
        ``induce_grammar_interned`` as looked up on
        :mod:`repro.core.pipeline`, so anything wrapping those names (a
        tracer, a span) sees each member's front half."""
        import repro.core.pipeline as pipeline_mod
        from repro.core.ensemble import EnsembleDetector
        from repro.datasets.registry import get_row

        calls = {"discretize": 0, "induce_grammar_interned": 0}

        def counting(name):
            real = getattr(pipeline_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline_mod, name, counting(name))
        series = get_row("daily_commute").factory().series
        result = EnsembleDetector(n_workers=1).fit(series)
        valid = sum(1 for e in result.ledger() if e["status"] != "invalid")
        assert valid > 1
        assert calls == {"discretize": valid, "induce_grammar_interned": valid}
