"""Unit tests for repro.resilience — budgets, tokens, checkpoints."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ParameterError
from repro.resilience import (
    CHECKPOINT_FORMAT,
    CancellationToken,
    SearchBudget,
    SearchStatus,
    load_checkpoint,
    save_checkpoint,
    search_fingerprint,
)


class TestSearchBudget:
    def test_unlimited_never_trips(self):
        budget = SearchBudget.unlimited()
        assert not budget.limited
        for calls in (0, 10**9):
            assert budget.interrupted(calls) is None
        assert budget.status is SearchStatus.COMPLETE

    def test_max_calls_trips_and_sticks(self):
        budget = SearchBudget(max_calls=100)
        assert budget.limited
        assert budget.interrupted(99) is None
        assert budget.interrupted(100) is SearchStatus.BUDGET_EXHAUSTED
        # sticky: later checks report the same status even for low calls
        assert budget.interrupted(0) is SearchStatus.BUDGET_EXHAUSTED
        assert budget.status is SearchStatus.BUDGET_EXHAUSTED

    def test_deadline_measured_from_first_check(self):
        budget = SearchBudget(deadline=3600.0)
        # first check arms the deadline; a fresh one never trips instantly
        assert budget.interrupted(0) is None
        assert budget.interrupted(0) is None

    def test_zero_deadline_trips_on_second_check(self):
        budget = SearchBudget(deadline=0.0)
        assert budget.interrupted(0) is None  # arms
        assert budget.interrupted(0) is SearchStatus.BUDGET_EXHAUSTED

    def test_token_cancellation(self):
        token = CancellationToken()
        budget = SearchBudget(token=token)
        assert budget.interrupted(0) is None
        token.cancel()
        assert budget.interrupted(0) is SearchStatus.CANCELLED

    def test_note_cancelled(self):
        budget = SearchBudget.unlimited()
        budget.note_cancelled()
        assert budget.status is SearchStatus.CANCELLED
        assert budget.interrupted(0) is SearchStatus.CANCELLED

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            SearchBudget(deadline=-1.0)
        with pytest.raises(ParameterError):
            SearchBudget(max_calls=-1)


class TestFingerprint:
    class _Interval:
        def __init__(self, rule_id, start, end, usage):
            self.rule_id, self.start, self.end, self.usage = (
                rule_id, start, end, usage,
            )

    def test_sensitive_to_every_input(self):
        series = np.sin(np.arange(100.0))
        intervals = [self._Interval(1, 0, 10, 2)]
        params = {"num_discords": 2}
        base = search_fingerprint(series, intervals, params)
        assert search_fingerprint(series, intervals, params) == base
        assert search_fingerprint(series + 1e-9, intervals, params) != base
        assert (
            search_fingerprint(series, [self._Interval(1, 0, 11, 2)], params)
            != base
        )
        assert (
            search_fingerprint(series, intervals, {**params, "num_discords": 3})
            != base
        )


class TestCheckpointPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(path, {"rank": 1, "best_dist": 2.5})
        data = load_checkpoint(path)
        assert data["format"] == CHECKPOINT_FORMAT
        assert data["rank"] == 1
        assert data["best_dist"] == 2.5

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        for i in range(3):
            save_checkpoint(path, {"rank": i})
        assert sorted(os.listdir(tmp_path)) == ["ckpt.json"]
        assert load_checkpoint(path)["rank"] == 2

    def test_load_rejects_non_checkpoint_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_load_refuses_a_format_one_checkpoint(self, tmp_path):
        """A ``/1`` checkpoint recorded a NumPy generator state for its
        inner loops; it is refused by name, not resumed on another
        stream."""
        path = tmp_path / "old.json"
        path.write_text('{"format": "repro-search-checkpoint/1", "rank": 0}')
        with pytest.raises(CheckpointError, match="repro-search-checkpoint/1"):
            load_checkpoint(str(path))

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.json"))
