"""Failure-injection tests: hostile inputs must fail cleanly or cope.

Production-quality requirement: no silent nonsense.  Every pathological
input either raises a :class:`~repro.exceptions.ReproError` subclass
with a useful message, or produces a well-defined degenerate result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.datasets import sine_with_anomaly
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import (
    CheckpointError,
    DataQualityError,
    DiscretizationError,
    ReproError,
)
from repro.grammar.intervals import rule_intervals, uncovered_intervals
from repro.grammar.sequitur import induce_grammar
from repro.resilience import (
    CancellationToken,
    SearchBudget,
    SearchStatus,
    load_checkpoint,
)
from repro.sax.discretize import discretize
from repro.streaming import StreamingAnomalyDetector


class TestDegenerateSeries:
    def test_constant_series_pipeline(self):
        """All-flat input: one token, trivial grammar, no discords."""
        detector = GrammarAnomalyDetector(50, 4, 4)
        result = detector.fit(np.full(1000, 3.0))
        assert len(result.discretization) == 1
        rra = detector.discords(num_discords=1)
        assert rra.discords == []  # a single candidate has no non-self match

    def test_two_point_series_rejected(self):
        detector = GrammarAnomalyDetector(50, 4, 4)
        with pytest.raises(ReproError):
            detector.fit(np.array([1.0, 2.0]))

    def test_window_equals_series_length(self):
        detector = GrammarAnomalyDetector(100, 4, 4)
        result = detector.fit(np.sin(np.arange(100.0)))
        assert len(result.discretization) >= 1

    def test_pure_noise_yields_valid_output(self, rng):
        """White noise: everything is irregular; the pipeline must not
        crash and must still return internally consistent objects."""
        detector = GrammarAnomalyDetector(40, 4, 4)
        result = detector.fit(rng.normal(size=1500))
        result.grammar.verify()
        anomalies = detector.density_anomalies(max_anomalies=3)
        for anomaly in anomalies:
            assert 0 <= anomaly.start < anomaly.end <= 1500

    def test_huge_alphabet_rejected(self):
        with pytest.raises(ReproError):
            discretize(np.sin(np.arange(500.0)), 50, 4, 99)

    def test_monotonic_ramp(self):
        """A pure trend has a degenerate token stream; must not crash."""
        detector = GrammarAnomalyDetector(50, 4, 4)
        result = detector.fit(np.arange(2000.0))
        assert len(result.discretization) >= 1


class TestHostileValues:
    def test_nan_series_rejected_by_streaming(self):
        detector = StreamingAnomalyDetector(20, 4, 4)
        with pytest.raises(ReproError):
            detector.push(float("nan"))

    def test_nan_rejected_offline_by_default(self):
        """NaN no longer silently propagates into SAX words: the default
        quality policy refuses dirty data and names the offending span."""
        series = np.sin(np.arange(500.0) / 10)
        series[100] = np.nan
        detector = GrammarAnomalyDetector(50, 4, 4)
        with pytest.raises(DataQualityError, match=r"\[100, 101\)"):
            detector.fit(series)

    def test_nan_rejected_by_discretize_directly(self):
        """The discretizer itself refuses non-finite input, so the gate
        cannot be bypassed by calling the lower layer."""
        series = np.sin(np.arange(500.0) / 10)
        series[42] = np.inf
        with pytest.raises(DiscretizationError, match=r"\[42, 43\)"):
            discretize(series, 50, 4, 4)

    def test_extreme_magnitudes(self):
        """Values around 1e12 must not break the numerics."""
        t = np.arange(1000.0)
        series = 1e12 + 1e6 * np.sin(2 * np.pi * t / 100)
        series[500:550] += 3e6
        detector = GrammarAnomalyDetector(50, 4, 4)
        detector.fit(series)
        best = detector.discords(num_discords=1).best
        assert best is not None
        assert 400 <= best.start <= 600

    def test_tiny_magnitudes_flatness(self):
        """A signal entirely below the flatness threshold is 'flat'."""
        t = np.arange(500.0)
        series = 1e-6 * np.sin(2 * np.pi * t / 50)
        detector = GrammarAnomalyDetector(50, 4, 4)
        result = detector.fit(series)
        # all windows flat -> single token after reduction
        assert len(result.discretization) == 1


class TestAdversarialTokens:
    def test_unicode_tokens(self):
        grammar = induce_grammar(["α", "β", "α", "β"])
        grammar.verify()
        assert grammar.start_rule.expansion == ["α", "β", "α", "β"]

    def test_tokens_with_spaces_and_delimiters(self):
        tokens = ["a b", "a", "b", "a b", "a", "b"]
        grammar = induce_grammar(tokens)
        grammar.verify()
        assert grammar.start_rule.expansion == tokens

    def test_very_long_single_token(self):
        token = "x" * 10_000
        grammar = induce_grammar([token, "y", token, "y"])
        grammar.verify()


class TestCandidateEdgeCases:
    def test_all_candidates_overlap(self):
        """Candidates that are all mutual self-matches yield no discord."""
        from repro.grammar.intervals import RuleInterval

        series = np.sin(np.arange(200.0) / 5)
        candidates = [
            RuleInterval(1, 10, 110, usage=2),
            RuleInterval(1, 20, 120, usage=2),
        ]
        result = find_discords(series, candidates, num_discords=1)
        assert result.discords == []

    def test_candidate_beyond_series_ignored(self):
        from repro.grammar.intervals import RuleInterval

        series = np.sin(np.arange(200.0) / 5)
        candidates = [
            RuleInterval(1, 0, 50, usage=2),
            RuleInterval(1, 100, 150, usage=2),
            RuleInterval(2, 190, 400, usage=1),  # runs past the end
        ]
        result = find_discords(series, candidates, num_discords=1)
        assert result.best is not None
        assert result.best.end <= 200


def _fitted(series, window=40, paa=4, alphabet=4):
    detector = GrammarAnomalyDetector(window, paa, alphabet)
    fitted = detector.fit(series)
    return fitted.series, fitted.candidates


class _TripwireToken(CancellationToken):
    """Token that reports cancelled after it has been polled N times."""

    def __init__(self, after_polls: int) -> None:
        super().__init__()
        self._polls = 0
        self._after = after_polls

    @property
    def cancelled(self) -> bool:
        self._polls += 1
        return self._polls > self._after


class _InterruptingBudget(SearchBudget):
    """Budget that raises KeyboardInterrupt at its Nth boundary check.

    Emulates the user hitting Ctrl-C mid-search, at a reproducible
    point, without involving real signal delivery.
    """

    def __init__(self, at_check: int) -> None:
        super().__init__()
        self._checks = 0
        self._at = at_check

    def interrupted(self, calls):
        self._checks += 1
        if self._checks == self._at:
            raise KeyboardInterrupt
        return super().interrupted(calls)


class TestSearchBudgets:
    def test_rra_budget_exhaustion_returns_best_so_far(self, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        reference = find_discords(series, candidates, num_discords=2)
        assert reference.complete
        budget = SearchBudget(max_calls=max(1, reference.distance_calls // 3))
        starved = find_discords(
            series, candidates, num_discords=2, budget=budget
        )
        assert starved.status is SearchStatus.BUDGET_EXHAUSTED
        assert not starved.complete
        # best-so-far contents are still valid intervals
        for discord in starved.discords:
            assert 0 <= discord.start < discord.end <= series.size
        # truncated ranks are flagged
        assert len(starved.rank_complete) == len(starved.discords)
        assert not all(starved.rank_complete) or len(starved.discords) < 2

    def test_unlimited_budget_is_bit_identical(self, sine_bump):
        """An unlimited budget must not perturb results or call counts."""
        series, candidates = _fitted(sine_bump.series)
        plain = find_discords(series, candidates, num_discords=2)
        budgeted = find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget.unlimited(),
        )
        assert budgeted.complete
        assert budgeted.discords == plain.discords
        assert budgeted.distance_calls == plain.distance_calls
        assert budgeted.rank_complete == plain.rank_complete

    def test_pre_cancelled_token_stops_immediately(self, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        token = CancellationToken()
        token.cancel()
        result = find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget(token=token),
        )
        assert result.status is SearchStatus.CANCELLED
        assert result.discords == []
        assert result.distance_calls == 0

    def test_mid_search_cancellation(self, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        result = find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget(token=_TripwireToken(after_polls=5)),
        )
        assert result.status is SearchStatus.CANCELLED
        for discord in result.discords:
            assert 0 <= discord.start < discord.end <= series.size

    def test_keyboard_interrupt_returns_best_so_far(self, sine_bump):
        """A Ctrl-C mid-scan yields a valid CANCELLED result, not a raise."""
        series, candidates = _fitted(sine_bump.series)
        result = find_discords(
            series, candidates, num_discords=2,
            budget=_InterruptingBudget(at_check=8),
        )
        assert result.status is SearchStatus.CANCELLED
        assert not result.complete
        for discord in result.discords:
            assert 0 <= discord.start < discord.end <= series.size

    def test_hotsax_budget(self, short_series):
        reference = hotsax_discords(short_series, 40, num_discords=2)
        assert reference.complete
        starved = hotsax_discords(
            short_series, 40, num_discords=2,
            budget=SearchBudget(max_calls=reference.distance_calls // 4),
        )
        assert starved.status is SearchStatus.BUDGET_EXHAUSTED
        assert starved.distance_calls < reference.distance_calls

    def test_haar_budget(self, short_series):
        starved = haar_discords(
            short_series, 40, num_discords=2, budget=SearchBudget(max_calls=50)
        )
        assert starved.status is SearchStatus.BUDGET_EXHAUSTED
        assert not starved.complete

    def test_brute_force_budget(self, short_series):
        reference = brute_force_discords(short_series, 40, num_discords=2)
        assert reference.complete
        assert reference.rank_complete == [True] * len(reference.discords)
        starved = brute_force_discords(
            short_series, 40, num_discords=2,
            budget=SearchBudget(max_calls=reference.distance_calls // 4),
        )
        assert starved.status is SearchStatus.BUDGET_EXHAUSTED
        # sequence compatibility of the result wrapper
        assert len(starved) == len(starved.discords)
        assert list(starved) == starved.discords

    def test_zero_deadline_trips_after_first_boundary(self, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        result = find_discords(
            series, candidates, num_discords=1,
            budget=SearchBudget(deadline=0.0),
        )
        assert result.status is SearchStatus.BUDGET_EXHAUSTED


#: A ``repro-search-checkpoint/2`` checkpoint: ``find_discords(
#: *_fixture_inputs(), num_discords=3, budget=SearchBudget(max_calls=2222),
#: checkpoint_path=..., checkpoint_every=5)``, stopped in rank 1 after 4
#: outer candidates.
OLD_CHECKPOINT = Path(__file__).parent / "fixtures" / "rra_checkpoint_rank1.json"
#: The same search's checkpoint in format ``/1``, written while the inner
#: loops drew from a NumPy generator (rank 1, after 11 outer candidates).
FORMAT1_CHECKPOINT = Path(__file__).parent / "fixtures" / "rra_checkpoint_format1.json"


def _fixture_inputs():
    """The series and candidates of :data:`OLD_CHECKPOINT`: an integer
    random walk with a step, exact in floating point on any platform,
    so the fingerprint matches."""
    rng = np.random.default_rng(2015)
    series = np.cumsum(rng.integers(-3, 4, size=1200)).astype(float)
    series[600:640] += 40.0
    disc = discretize(series, 40, 4, 4)
    grammar = induce_grammar(disc.tokens())
    return series, rule_intervals(grammar, disc) + uncovered_intervals(grammar, disc)


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path, sine_bump):
        """Interrupt + resume must equal the uninterrupted run exactly —
        discords AND total distance-call count."""
        series, candidates = _fitted(sine_bump.series)
        reference = find_discords(series, candidates, num_discords=3)
        path = str(tmp_path / "ckpt.json")
        starved = find_discords(
            series, candidates, num_discords=3,
            budget=SearchBudget(max_calls=max(1, reference.distance_calls // 3)),
            checkpoint_path=path, checkpoint_every=4,
        )
        assert not starved.complete
        resumed = find_discords(
            series, candidates, num_discords=3,
            checkpoint_path=path, resume_from=path,
        )
        assert resumed.complete
        assert resumed.discords == reference.discords
        assert resumed.distance_calls == reference.distance_calls
        assert resumed.rank_complete == reference.rank_complete

    def test_checkpoint_of_an_earlier_release_resumes(self):
        """Checkpoints stay readable: resuming the committed mid-rank-1
        checkpoint gives the uninterrupted run's discords and calls."""
        series, candidates = _fixture_inputs()
        saved = load_checkpoint(str(OLD_CHECKPOINT))
        assert (saved["rank"], saved["outer_index"], saved["done"]) == (1, 4, False)
        reference = find_discords(series, candidates, num_discords=3)
        resumed = find_discords(
            series, candidates, num_discords=3, resume_from=str(OLD_CHECKPOINT)
        )
        assert resumed.complete
        assert resumed.discords == reference.discords
        assert resumed.distance_calls == reference.distance_calls

    def test_checkpoint_format_is_unchanged(self, tmp_path):
        """The same interrupted search writes the committed checkpoint's
        fields in the same order, with the same values."""
        series, candidates = _fixture_inputs()
        path = str(tmp_path / "ckpt.json")
        find_discords(
            series, candidates, num_discords=3,
            budget=SearchBudget(max_calls=2222),
            checkpoint_path=path, checkpoint_every=5,
        )
        written, saved = load_checkpoint(path), load_checkpoint(str(OLD_CHECKPOINT))
        assert list(written) == list(saved)
        floats = ("best_dist", "discords")
        assert {k: v for k, v in written.items() if k not in floats} == {
            k: v for k, v in saved.items() if k not in floats
        }
        assert written["best_dist"] == pytest.approx(saved["best_dist"])
        assert [(d["start"], d["end"], d["rank"]) for d in written["discords"]] == [
            (d["start"], d["end"], d["rank"]) for d in saved["discords"]
        ]

    def test_format_one_checkpoint_is_refused(self):
        """A ``/1`` checkpoint's generator state belongs to a stream the
        search no longer draws, so resuming it raises, naming its format,
        instead of continuing on another stream."""
        series, candidates = _fixture_inputs()
        with pytest.raises(CheckpointError, match="repro-search-checkpoint/1"):
            find_discords(
                series, candidates, num_discords=3, resume_from=str(FORMAT1_CHECKPOINT)
            )

    def test_resume_rejects_different_inputs(self, tmp_path, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        path = str(tmp_path / "ckpt.json")
        find_discords(
            series, candidates, num_discords=2,
            budget=SearchBudget(max_calls=100), checkpoint_path=path,
        )
        other = series + 1.0
        with pytest.raises(CheckpointError):
            find_discords(other, candidates, num_discords=2, resume_from=path)

    def test_resume_from_completed_checkpoint(self, tmp_path, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        path = str(tmp_path / "ckpt.json")
        reference = find_discords(
            series, candidates, num_discords=2, checkpoint_path=path
        )
        resumed = find_discords(
            series, candidates, num_discords=2, resume_from=path
        )
        assert resumed.discords == reference.discords
        assert resumed.distance_calls == reference.distance_calls

    def test_corrupt_checkpoint_rejected(self, tmp_path, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            find_discords(series, candidates, resume_from=str(path))

    def test_missing_checkpoint_rejected(self, tmp_path, sine_bump):
        series, candidates = _fitted(sine_bump.series)
        with pytest.raises(CheckpointError):
            find_discords(
                series, candidates, resume_from=str(tmp_path / "absent.json")
            )


class TestQualityPolicyMatrix:
    @staticmethod
    def _dirty_series():
        series = sine_with_anomaly(length=1200, period=60, seed=3).series.copy()
        series[200:210] = np.nan  # gap far away from the planted anomaly
        return series

    def test_raise_policy(self):
        detector = GrammarAnomalyDetector(30, 4, 4)
        with pytest.raises(DataQualityError, match=r"\[200, 210\)"):
            detector.fit(self._dirty_series())

    def test_interpolate_policy(self):
        detector = GrammarAnomalyDetector(30, 4, 4, quality_policy="interpolate")
        fitted = detector.fit(self._dirty_series())
        assert np.isfinite(fitted.series).all()
        assert fitted.masked_spans == ()
        assert detector.discords(num_discords=1).complete

    def test_mask_policy_excludes_repaired_candidates(self):
        detector = GrammarAnomalyDetector(30, 4, 4, quality_policy="mask")
        fitted = detector.fit(self._dirty_series())
        assert fitted.masked_spans == ((200, 210),)
        for iv in fitted.candidates:
            assert iv.end <= 200 or iv.start >= 210
        result = detector.discords(num_discords=1)
        if result.best is not None:
            assert result.best.end <= 200 or result.best.start >= 210

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            GrammarAnomalyDetector(30, 4, 4, quality_policy="ignore")


class TestGracefulDegradation:
    def test_starved_pipeline_falls_back_to_density(self, sine_bump):
        detector = GrammarAnomalyDetector(40, 4, 4)
        detector.fit(sine_bump.series)
        result = detector.discords(
            num_discords=2, budget=SearchBudget(max_calls=1)
        )
        assert not result.complete
        assert result.degraded
        assert result.fallback, "degraded result must carry density fallback"
        for anomaly in result.fallback:
            assert 0 <= anomaly.start < anomaly.end <= sine_bump.series.size

    def test_complete_search_is_not_degraded(self, sine_bump):
        detector = GrammarAnomalyDetector(40, 4, 4)
        detector.fit(sine_bump.series)
        result = detector.discords(num_discords=1)
        assert result.complete
        assert not result.degraded
        assert result.fallback == []


class TestDeterminismUnderRepetition:
    def test_ten_runs_identical(self):
        dataset = sine_with_anomaly(length=1200, period=60, seed=21)
        outcomes = set()
        for _ in range(10):
            detector = GrammarAnomalyDetector(30, 4, 4, seed=5)
            detector.fit(dataset.series)
            best = detector.discords(num_discords=1).best
            outcomes.add((best.start, best.end, round(best.nn_distance, 12)))
        assert len(outcomes) == 1
