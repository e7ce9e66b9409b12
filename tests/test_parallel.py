"""Tests for the process-pool execution layer (:mod:`repro.parallel`).

Every discord search runs in one process; the pool serves the coarse
fan-outs only — parameter-grid pairs and ensemble members.  These tests
cover the pool plumbing, the grid sweep, and the ensemble member task's
cancellation.  The headline property of the fan-outs — a parallel run
returns the same points/aggregate as the serial loop — is asserted
with equality, not tolerance (the ensemble's is pinned against the
goldens in ``test_golden_ensemble.py``).
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.core.ensemble import default_grid
from repro.core.parameter_grid import ParameterGridStudy
from repro.datasets.ecg import synthetic_ecg
from repro.exceptions import ParameterError
from repro.parallel import effective_workers, engine, pool
from repro.parallel.pool import budget_from_spec, budget_to_spec, run_tasks
from repro.resilience.budget import CancellationToken, SearchBudget


def _no_orphans():
    assert multiprocessing.active_children() == []


def _square(payload: dict) -> int:
    return payload["x"] ** 2


# -- pool plumbing unit tests ------------------------------------------


def test_effective_workers():
    assert effective_workers(None) == 1
    assert effective_workers(1) == 1
    assert effective_workers(4) == 4
    with pytest.raises(ParameterError):
        effective_workers(0)


def test_budget_spec_round_trip():
    assert budget_to_spec(None) is None
    assert budget_to_spec(SearchBudget.unlimited()) is None
    spec = budget_to_spec(SearchBudget(deadline=2.5, max_calls=100))
    rebuilt = budget_from_spec(spec)
    assert rebuilt.deadline == 2.5
    assert rebuilt.max_calls == 100


def test_run_tasks_waves_resolve_callables_in_order():
    """Integer waves: callable payloads are built at submission time and
    ``on_result`` sees every earlier wave delivered first."""
    delivered: list[int] = []

    def lazy(x):
        def build():
            # Wave barriers: everything before this wave is delivered.
            assert len(delivered) >= (x // 2) * 2
            return {"x": x}

        return build

    results = run_tasks(
        _square,
        [lazy(x) for x in range(5)],
        n_workers=2,
        on_result=lambda i, r: delivered.append(i),
        wave_size=2,
    )
    assert results == [0, 1, 4, 9, 16]
    assert delivered == [0, 1, 2, 3, 4]
    with pytest.raises(ParameterError):
        run_tasks(_square, [{"x": 1}], n_workers=1, wave_size=0)
    _no_orphans()


# -- parameter-grid sweep ----------------------------------------------


def test_grid_sweep_parallel_matches_serial(sine_bump):
    study = ParameterGridStudy(sine_bump.series[:1200], (1000, 1080))
    grid = ([40, 60], [3, 4], [3, 4])
    serial = study.sweep(*grid)
    parallel = study.sweep(*grid, n_workers=2)
    assert parallel == serial
    assert serial  # the grid is not degenerate
    _no_orphans()


def test_grid_pair_hoisting_matches_per_point(sine_bump):
    study = ParameterGridStudy(sine_bump.series[:1200], (1000, 1080))
    legacy = [
        point
        for a in (3, 4, 5)
        if (point := study.evaluate_point(60, 4, a)) is not None
    ]
    assert study._evaluate_pair(60, 4, (3, 4, 5)) == legacy


# -- ensemble member task ----------------------------------------------


def test_ensemble_member_task_honours_the_pool_event(monkeypatch):
    """A parent budget reaches the worker as a spec even when it holds
    only a token, and the worker rebuilds it bound to the pool's event:
    with the event set, no member comes back ``ok``.

    The tasks run in-process (``run_tasks`` replaced by a loop) so the
    event is set before any member starts, deterministically.
    """
    series = synthetic_ecg(seed=5).series
    pending = list(enumerate(default_grid(len(series))[:3]))
    event = threading.Event()
    event.set()
    monkeypatch.setattr(pool, "_WORKER_EVENT", event)

    def in_process(task, payloads, **_):
        return [task(p() if callable(p) else p) for p in payloads]

    monkeypatch.setattr(engine, "run_tasks", in_process)
    outcomes = engine.parallel_ensemble_members(
        series,
        pending,
        num_discords=2,
        seed=0,
        budget=SearchBudget(token=CancellationToken()),
        n_workers=2,
    )
    statuses = [outcomes[idx].status for idx, _ in pending]
    assert "ok" not in statuses
    assert set(statuses) <= {"truncated", "skipped"}


def _pool_ensemble():
    from repro.core.ensemble import EnsembleDetector, ensemble_grid

    grid = ensemble_grid([60, 90, 120], [4], [3, 4])
    return EnsembleDetector(grid, num_discords=2, n_workers=2)


def test_ensemble_pool_pre_cancelled_token_skips_every_member(sine_bump):
    token = CancellationToken()
    token.cancel()
    result = _pool_ensemble().fit(
        sine_bump.series, budget=SearchBudget(token=token)
    )
    assert result.degraded
    assert result.member_counts() == {"skipped": len(result.members)}
    _no_orphans()


def test_ensemble_pool_call_ceiling_is_anytime(sine_bump):
    """The parent checks the merged calls between waves: a spent ceiling
    turns every later (window, paa) group into ``skipped`` members."""
    result = _pool_ensemble().fit(
        sine_bump.series, budget=SearchBudget(max_calls=1)
    )
    assert result.degraded
    statuses = [entry["status"] for entry in result.ledger()]
    assert "skipped" in statuses
    assert statuses[-1] == "skipped"
    _no_orphans()
