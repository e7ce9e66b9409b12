"""Tests for the process-pool execution layer (:mod:`repro.parallel`).

Every discord search runs in one process; the pool serves one coarse
fan-out only — ensemble members, which are also the parameter grid's
cells.  These tests cover the pool plumbing and lifecycle, the grid
sweep, and the member task's dispatch order, budgets, cancellation and
errors.  The headline
property of the fan-outs — a parallel run returns the same
points/aggregate as the serial loop — is asserted with equality, not
tolerance (the ensemble's is pinned against the goldens in
``test_golden_ensemble.py``).
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.core.ensemble import EnsembleDetector, default_grid, ensemble_grid
from repro.core.parameter_grid import ParameterGridStudy
from repro.core.pipeline import GrammarAnomalyDetector
from repro.datasets.ecg import synthetic_ecg
from repro.datasets.registry import table1_rows
from repro.exceptions import GridCellError, ParameterError
from repro.parallel import effective_workers, engine, pool, shutdown
from repro.parallel.pool import budget_from_spec, budget_to_spec, run_tasks
from repro.resilience.budget import CancellationToken, SearchBudget
from tests.test_golden_ensemble import DATASETS, GRIDS, _load_dataset


def _no_orphans():
    """No pool worker outlives :func:`repro.parallel.shutdown`."""
    shutdown()
    assert multiprocessing.active_children() == []


def _square(payload: dict) -> int:
    return payload["x"] ** 2


def _pid(_payload) -> int:
    return os.getpid()


def _fail(payload: dict) -> int:
    raise ValueError(payload["x"])


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


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


def test_spawn_start_method_matches_serial(monkeypatch, sine_bump):
    """Platforms without ``fork`` start the pool with ``spawn``: the
    ensemble and the grid fan-outs still give the serial answers."""
    spawn = multiprocessing.get_context("spawn")
    built = []
    shutdown()  # the next fan-out builds its pool through the patch
    monkeypatch.setattr(pool, "pool_context", lambda: built.append(1) or spawn)
    series = sine_bump.series[:1200]
    grid = ensemble_grid([60, 90], [4], [3, 4])
    study = ParameterGridStudy(series, (1000, 1080))
    sweep = ([40, 60], [3, 4], [3])

    def ensemble(n_workers):
        detector = EnsembleDetector(grid, num_discords=2, n_workers=n_workers)
        return _signature(detector.fit(series))

    try:
        assert ensemble(2) == ensemble(1)
        assert study.sweep(*sweep, n_workers=2) == study.sweep(*sweep)
        assert built == [1]  # one spawn pool served both fan-outs
    finally:
        shutdown()


def test_pooled_member_failure_names_the_cell(monkeypatch, sine_bump):
    """A member that raises a non-library exception in a worker reaches
    the parent as a GridCellError naming its triple, from a sweep and
    from an ensemble alike."""
    original = GrammarAnomalyDetector.discords

    def boom_at_w60(self, **kwargs):
        if self.window == 60:
            raise RuntimeError("synthetic member failure")
        return original(self, **kwargs)

    shutdown()  # the next fan-out forks workers that see the patch
    monkeypatch.setattr(GrammarAnomalyDetector, "discords", boom_at_w60)
    series = sine_bump.series[:1200]
    try:
        with pytest.raises(GridCellError) as excinfo:
            ParameterGridStudy(series, (1000, 1080)).sweep(
                [40, 60], [4], [3], n_workers=2
            )
        assert excinfo.value.cell == (60, 4, 3)
        detector = EnsembleDetector(
            ensemble_grid([60, 90], [4], [3]), num_discords=1, n_workers=2
        )
        with pytest.raises(GridCellError) as excinfo:
            detector.fit(series)
        assert excinfo.value.cell == (60, 4, 3)
    finally:
        _no_orphans()  # no later fan-out reuses a patched worker


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


def test_pool_call_ceiling_bounds_the_spent_calls():
    """Each member ships the calls left under the ceiling, so it
    truncates itself: the spent calls stay within ``n_workers`` ceilings
    plus one outer candidate's inner loop per truncated member."""
    row = next(r for r in table1_rows() if r.key == "daily_commute")
    series = row.factory().series
    max_calls = 500
    result = EnsembleDetector(n_workers=2).fit(
        series, budget=SearchBudget(max_calls=max_calls)
    )
    ledger = result.ledger()
    overshoot = sum(
        len(
            GrammarAnomalyDetector(
                e["window"], e["paa_size"], e["alphabet_size"]
            ).fit(series).candidates
        )
        for e in ledger
        if e["status"] == "truncated"
    )
    spent = sum(e["distance_calls"] for e in ledger)
    assert result.degraded
    assert spent <= 2 * max_calls + overshoot
    _no_orphans()


# -- dispatch order ------------------------------------------------------


def _hex(value):
    return float(value).hex() if isinstance(value, float) else value


def _signature(result) -> tuple:
    """Aggregate digest, merged discords (float hex) and member ledger."""
    discords = [
        (
            d.start,
            d.end,
            d.support,
            _hex(d.score),
            tuple(tuple(_hex(x) for x in vote) for vote in d.votes),
        )
        for d in result.discords
    ]
    return result.score_digest(), discords, result.ledger()


DISPATCH_ORDERS = {
    "canonical": list,
    "reversed": lambda pending: list(reversed(pending)),
    "shuffled": lambda pending: random.Random(20).sample(pending, len(pending)),
}


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_dispatch_order_cannot_change_the_answer(monkeypatch, dataset_name):
    """Sub-stream pin: members seed their own searches and merge by grid
    index, so any dispatch order over two workers gives the serial
    aggregate, discords and ledger bit for bit."""
    series = _load_dataset(dataset_name).series
    grid = ensemble_grid(*GRIDS[dataset_name])

    def fit(n_workers):
        detector = EnsembleDetector(grid, num_discords=2, n_workers=n_workers)
        return _signature(detector.fit(series))

    serial = fit(1)
    assert fit(2) == serial  # the shipped heaviest-first order
    for name, order in DISPATCH_ORDERS.items():
        monkeypatch.setattr(engine, "_dispatch_order", order)
        assert fit(2) == serial, name
    _no_orphans()


def test_dispatch_order_is_heaviest_first():
    pending = list(enumerate(ensemble_grid([60, 90], [4, 6], [3, 5])))
    ordered = [m.triple for _, m in engine._dispatch_order(pending)]
    assert ordered == [
        (60, 6, 5), (60, 6, 3), (60, 4, 5), (60, 4, 3),
        (90, 6, 5), (90, 6, 3), (90, 4, 5), (90, 4, 3),
    ]


# -- pool lifecycle ------------------------------------------------------


def test_pool_persists_across_fits(sine_bump):
    shutdown()
    detector = _pool_ensemble()
    first = detector.fit(sine_bump.series)
    pids = _worker_pids()
    assert len(pids) == 2
    second = detector.fit(sine_bump.series)
    assert _worker_pids() == pids
    assert set(run_tasks(_pid, [{}] * 6, n_workers=2)) <= pids
    assert _signature(second) == _signature(first)
    _no_orphans()


def test_shutdown_stops_every_worker():
    assert run_tasks(_square, [{"x": 3}], n_workers=2) == [9]
    assert len(_worker_pids()) == 2
    shutdown()
    assert multiprocessing.active_children() == []
    shutdown()  # idempotent
    assert run_tasks(_square, [{"x": 4}], n_workers=2) == [16]
    _no_orphans()


def test_changing_n_workers_replaces_the_pool():
    run_tasks(_pid, [{}], n_workers=1)
    one = _worker_pids()
    assert len(one) == 1
    run_tasks(_pid, [{}], n_workers=2)
    two = _worker_pids()
    assert len(two) == 2 and not (one & two)
    _no_orphans()


def test_task_exception_terminates_the_pool():
    with pytest.raises(ValueError):
        run_tasks(_fail, [{"x": 1}, {"x": 2}], n_workers=2)
    assert multiprocessing.active_children() == []
    assert run_tasks(_square, [{"x": 2}], n_workers=2) == [4]
    _no_orphans()


def test_keyboard_interrupt_terminates_the_pool():
    delivered = []

    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_tasks(
            _square,
            [{"x": 2}, interrupt],
            n_workers=2,
            on_result=lambda i, r: delivered.append((i, r)),
            wave_size=1,
        )
    assert delivered == [(0, 4)]
    assert multiprocessing.active_children() == []
    _no_orphans()


def test_concurrent_fits_get_the_serial_answer(sine_bump):
    """``run_tasks`` is serialized per process, so two threads fanning
    out at once each get the serial answer — even with different worker
    counts, where one fan-out replaces the pool the other was given."""
    grid = _pool_ensemble().grid
    serial = _signature(
        EnsembleDetector(grid, num_discords=2).fit(sine_bump.series)
    )
    answers: list = [None, None]

    def fit(slot):
        detector = EnsembleDetector(grid, num_discords=2, n_workers=2 + slot)
        answers[slot] = _signature(detector.fit(sine_bump.series))

    run_tasks(_pid, [{}], n_workers=2)  # the pool the first fit reuses
    threads = [
        threading.Thread(target=fit, args=(i,), daemon=True) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert answers == [serial, serial]
    _no_orphans()


def _process_group(pgid: int) -> list[int]:
    """Pids whose process group is *pgid* (zombies included)."""
    found = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[2]) == pgid:
            found.append(int(path.split("/")[2]))
    return found


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to list a process group"
)
def test_interpreter_exit_stops_the_workers(tmp_path):
    """No exit hook: multiprocessing's own pool finalizer stops the
    workers when the interpreter exits, quietly."""
    script = tmp_path / "fit.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        from repro.core.ensemble import EnsembleDetector, ensemble_grid
        from repro.datasets.synthetic import sine_with_anomaly

        series = sine_with_anomaly(length=1200, period=100, seed=7).series
        grid = ensemble_grid([60, 100], [4], [3, 5])
        EnsembleDetector(grid, num_discords=2, n_workers=2).fit(series)
        print(sorted(p.pid for p in multiprocessing.active_children()))
    """))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err == ""
    workers = json.loads(out)
    assert len(workers) == 2
    # The resource tracker may linger for a moment after the exit.
    deadline = time.monotonic() + 30
    while _process_group(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _process_group(proc.pid) == []
