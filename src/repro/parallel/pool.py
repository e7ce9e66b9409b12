"""Process-pool plumbing: worker lifecycle and budget transport.

This module owns everything about *running* pool tasks, whatever a
task computes:

* a fork-preferring multiprocessing context (fork inherits the parent's
  imported modules, making worker dispatch cheap; spawn is the fallback
  on platforms without it);
* an ``Event``-backed cancellation token so a parent-side
  :class:`~repro.resilience.budget.CancellationToken` (or a
  ``KeyboardInterrupt``) reaches every worker mid-search;
* one persistent pool per process, reused by every :func:`run_tasks`
  call (a worker loads the C cores once, not once per request) and
  stopped by :func:`shutdown` or at interpreter exit;
* :func:`run_tasks`, the dispatch/collect loop with cooperative
  cancellation; a failed or interrupted run terminates the pool.

Budgets cross the process boundary as plain dicts
(:func:`budget_to_spec` / :func:`budget_from_spec`); the worker side
re-binds the cancellation token to the pool's shared event.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue
import signal
import threading
import time
from typing import Any, Callable, Optional

from repro.exceptions import ParameterError
from repro.resilience.budget import SearchBudget

__all__ = [
    "effective_workers",
    "EventToken",
    "budget_to_spec",
    "budget_from_spec",
    "run_tasks",
    "shutdown",
]

def effective_workers(n_workers: Optional[int]) -> int:
    """Normalize an ``n_workers`` argument; ``None``/1 mean serial."""
    if n_workers is None:
        return 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


class EventToken:
    """Duck-typed CancellationToken backed by a multiprocessing Event.

    Workers poll it through their task budgets exactly like an ordinary
    token; the parent sets the event to stop everyone.
    """

    __slots__ = ("_event",)

    def __init__(self, event) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def budget_to_spec(budget: Optional[SearchBudget]) -> Optional[dict]:
    """Serialize a budget's deadline and call ceiling; None without either."""
    if budget is None or not (budget.deadline is not None or budget.max_calls is not None):
        return None
    return {"deadline": budget.deadline, "max_calls": budget.max_calls}


def budget_from_spec(spec: Optional[dict]) -> SearchBudget:
    """Worker side: rebuild a task budget, bound to the pool's event."""
    token = EventToken(_WORKER_EVENT) if _WORKER_EVENT is not None else None
    if spec is None:
        return SearchBudget(token=token)
    return SearchBudget(
        deadline=spec.get("deadline"),
        max_calls=spec.get("max_calls"),
        token=token,
    )


#: Set by the pool initializer in every worker process.
_WORKER_EVENT = None


def _init_worker(event) -> None:
    """Pool initializer: install the cancellation event, mute SIGINT.

    Workers ignore SIGINT so a Ctrl-C in the parent's terminal (which
    the OS delivers to the whole process group) doesn't kill them with a
    traceback mid-write; the parent propagates the interrupt through the
    event instead and tears the pool down in order.
    """
    global _WORKER_EVENT
    _WORKER_EVENT = event
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def pool_context():
    """A fork context when the platform has one, else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class _Workers:
    """The process-wide pool plus the cancellation event its workers hold."""

    __slots__ = ("pool", "event", "n_workers", "pid")

    def __init__(self, n_workers: int) -> None:
        ctx = pool_context()
        self.event = ctx.Event()
        self.pool = ctx.Pool(
            processes=n_workers,
            initializer=_init_worker,
            initargs=(self.event,),
        )
        self.n_workers = n_workers
        self.pid = os.getpid()


#: The persistent pool (None until the first fan-out).  Reused by every
#: :func:`run_tasks` call with the same ``n_workers`` in the process
#: that built it; replaced on a different ``n_workers``; dropped after a
#: failed or interrupted run and by :func:`shutdown`.
_WORKERS: Optional[_Workers] = None

#: Serializes :func:`run_tasks`: one fan-out per process at a time, which
#: the pool's single event assumes.
_LOCK = threading.Lock()

#: How often :func:`run_tasks` checks the caller's cancellation token
#: while it waits for a task.
POLL_SECONDS = 0.02

#: How long an interrupted :func:`run_tasks` keeps collecting finished
#: tasks before it terminates the pool.
GRACE_SECONDS = 5.0

#: How long :func:`_discard` waits for the pool to stop, and then for
#: its workers to exit, before it kills the workers that are left.
STOP_SECONDS = 5.0


def _workers(n_workers: int) -> _Workers:
    """The persistent pool for *n_workers*, built on first use."""
    global _WORKERS
    if _WORKERS is not None and (
        _WORKERS.n_workers != n_workers or _WORKERS.pid != os.getpid()
    ):
        _discard(graceful=True)
    if _WORKERS is None:
        _WORKERS = _Workers(n_workers)
    return _WORKERS


def _discard(*, graceful: bool = False) -> None:
    """Stop and forget the persistent pool, in bounded time.

    *graceful* closes an idle pool, so its workers exit normally and
    run their exit handlers; otherwise the workers are terminated
    mid-task.  ``multiprocessing``'s own stop joins its handler threads
    and workers without a timeout, so it runs in a daemon thread that is
    given :data:`STOP_SECONDS`; then each worker gets what is left of
    another :data:`STOP_SECONDS` to exit, and is killed if it has not.
    No worker outlives this call.  A pool inherited through ``fork``
    belongs to the parent: the child only forgets it.
    """
    global _WORKERS
    workers, _WORKERS = _WORKERS, None
    if workers is None or workers.pid != os.getpid():
        return
    pool = workers.pool
    processes = list(pool._pool)
    if graceful:
        pool.close()
    stopper = threading.Thread(
        target=pool.join if graceful else pool.terminate, daemon=True
    )
    stopper.start()
    stopper.join(STOP_SECONDS)
    # The worker handler may have replaced a worker before it stopped.
    processes += [p for p in pool._pool if p not in processes]
    deadline = time.monotonic() + STOP_SECONDS
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
        if process.exitcode is None:
            process.kill()
            process.join()


def shutdown() -> None:
    """Stop the persistent worker pool; the next fan-out builds a new one.

    Workers otherwise live until the interpreter exits, where
    multiprocessing's own pool finalizer terminates them.  A host that
    keeps many modules alive into interpreter teardown (a test runner)
    should call this first: a pool object still running then can print
    an ignored exception from its ``__del__``.
    """
    with _LOCK:
        _discard(graceful=True)


def run_tasks(
    task: Callable[[dict], Any],
    payloads: list,
    *,
    n_workers: int,
    budget: Optional[SearchBudget] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    wave_size: Optional[int] = None,
) -> list[Any]:
    """Execute *task* over *payloads* on the persistent pool; ordered results.

    Results are collected as they finish and delivered in payload order.
    ``on_result(index, result)`` fires for the longest completed *prefix*
    of payloads (in order).

    A payload may be a zero-argument callable, resolved at *submission*
    time.  Combined with ``wave_size`` — which submits that many
    payloads at a time and waits for the whole wave to finish (and be
    delivered) before building the next — this lets the ensemble
    fan-out check the calls merged so far against the caller's budget
    before it submits more work.

    Cancellation paths (the parent checks *budget*'s token every
    :data:`POLL_SECONDS` while it waits):

    * *budget*'s token trips → the shared event is set, workers notice at
      their next outer-loop boundary and return best-so-far results;
    * ``KeyboardInterrupt`` in the parent → the event is set, finished
      tasks are drained for up to :data:`GRACE_SECONDS`, then the pool is
      terminated; the interrupt is re-raised for the caller to handle.

    The pool outlives a successful call.  Any exception (a task's, or an
    interrupt) terminates it, and the next call builds a fresh one.
    """
    if not payloads:
        return []
    wave = wave_size if wave_size is not None else len(payloads)
    if wave < 1:
        raise ParameterError(f"wave_size must be >= 1, got {wave}")
    with _LOCK:
        workers = _workers(n_workers)
        event = workers.event
        event.clear()
        token = budget.token if budget is not None else None
        finished: queue.SimpleQueue = queue.SimpleQueue()
        results: list[Any] = [None] * len(payloads)
        done = [False] * len(payloads)
        handles: list = [None] * len(payloads)
        delivered = 0

        def _deliver_prefix() -> None:
            nonlocal delivered
            while delivered < len(payloads) and done[delivered]:
                if on_result is not None:
                    on_result(delivered, results[delivered])
                delivered += 1

        try:
            for lo in range(0, len(payloads), wave):
                wave_ids = range(lo, min(lo + wave, len(payloads)))
                for i in wave_ids:
                    payload = payloads[i]
                    if callable(payload):
                        payload = payload()
                    notify = functools.partial(_notify, finished, i)
                    handles[i] = workers.pool.apply_async(
                        task, (payload,), callback=notify, error_callback=notify
                    )
                pending = len(wave_ids)
                while pending:
                    if token is not None and token.cancelled:
                        event.set()
                    try:
                        i = finished.get(timeout=POLL_SECONDS)
                    except queue.Empty:
                        continue
                    results[i] = handles[i].get()
                    done[i] = True
                    pending -= 1
                    _deliver_prefix()
            return results
        except KeyboardInterrupt:
            event.set()
            deadline = time.monotonic() + GRACE_SECONDS
            for i, handle in enumerate(handles):
                if handle is None:  # never submitted (later wave)
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    results[i] = handle.get(timeout=remaining)
                    done[i] = True
                except Exception:
                    break
            _discard()
            _deliver_prefix()
            raise
        except BaseException:
            event.set()
            _discard()
            raise


def _notify(finished: queue.SimpleQueue, index: int, _outcome) -> None:
    """Pool callback (result-handler thread): report *index* as finished."""
    finished.put(index)
