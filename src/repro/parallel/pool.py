"""Process-pool plumbing: worker lifecycle and budget transport.

This module owns everything about *running* pool tasks — the pieces the
ensemble and grid fan-outs share regardless of what a task computes:

* a fork-preferring multiprocessing context (fork inherits the parent's
  imported modules, making worker dispatch cheap; spawn is the fallback
  on platforms without it);
* an ``Event``-backed cancellation token so a parent-side
  :class:`~repro.resilience.budget.CancellationToken` (or a
  ``KeyboardInterrupt``) reaches every worker mid-search;
* :func:`run_tasks`, the dispatch/collect loop with cooperative
  cancellation and guaranteed pool teardown (no orphaned workers).

Budgets cross the process boundary as plain dicts
(:func:`budget_to_spec` / :func:`budget_from_spec`); the worker side
re-binds the cancellation token to the pool's shared event.
"""

from __future__ import annotations

import multiprocessing
import signal
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


def _init_worker(event, own_tracker: bool) -> None:
    """Pool initializer: install the cancellation event, mute SIGINT.

    Workers ignore SIGINT so a Ctrl-C in the parent's terminal (which
    the OS delivers to the whole process group) doesn't kill them with a
    traceback mid-write; the parent propagates the interrupt through the
    event instead and tears the pool down in order.  *own_tracker* is
    True for spawned workers (separate resource-tracker process), where
    shared-memory attachments must be deregistered to keep the worker's
    tracker from reaping parent-owned segments on exit.
    """
    global _WORKER_EVENT
    _WORKER_EVENT = event
    from repro.parallel.shared import set_unregister_on_attach

    set_unregister_on_attach(own_tracker)
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def pool_context():
    """A fork context when the platform has one, else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_tasks(
    task: Callable[[dict], Any],
    payloads: list,
    *,
    n_workers: int,
    budget: Optional[SearchBudget] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    poll_seconds: float = 0.02,
    grace_seconds: float = 5.0,
    wave_size: Optional[int] = None,
) -> list[Any]:
    """Execute *task* over *payloads* in a worker pool; ordered results.

    Results are collected as they finish and delivered in payload order.
    ``on_result(index, result)`` fires for the longest completed *prefix*
    of payloads (in order).

    A payload may be a zero-argument callable, resolved at *submission*
    time.  Combined with ``wave_size`` — which submits that many
    payloads at a time and waits for the whole wave to finish (and be
    delivered) before building the next — this lets the ensemble
    fan-out check the calls merged so far against the caller's budget
    before it submits more work.

    Cancellation paths:

    * *budget*'s token trips → the shared event is set, workers notice at
      their next outer-loop boundary and return best-so-far results;
    * ``KeyboardInterrupt`` in the parent → the event is set, finished
      tasks are drained for up to *grace_seconds*, then the pool is
      terminated; the interrupt is re-raised for the caller to handle.

    The pool is always closed and joined — no orphaned workers survive
    this function, whichever path exits it.
    """
    if not payloads:
        return []
    ctx = pool_context()
    event = ctx.Event()
    results: list[Any] = [None] * len(payloads)
    done = [False] * len(payloads)
    delivered = 0

    def _deliver_prefix() -> None:
        nonlocal delivered
        while delivered < len(payloads) and done[delivered]:
            if on_result is not None:
                on_result(delivered, results[delivered])
            delivered += 1

    handles: list = []
    pool = ctx.Pool(
        processes=min(n_workers, len(payloads)),
        initializer=_init_worker,
        initargs=(event, ctx.get_start_method() != "fork"),
    )
    try:
        wave = wave_size if wave_size is not None else len(payloads)
        if wave < 1:
            raise ParameterError(f"wave_size must be >= 1, got {wave}")
        handles = [None] * len(payloads)
        for lo in range(0, len(payloads), wave):
            wave_ids = range(lo, min(lo + wave, len(payloads)))
            for i in wave_ids:
                payload = payloads[i]
                if callable(payload):
                    payload = payload()
                handles[i] = pool.apply_async(task, (payload,))
            pending = set(wave_ids)
            while pending:
                progressed = False
                for i in sorted(pending):
                    if handles[i].ready():
                        results[i] = handles[i].get()
                        done[i] = True
                        pending.discard(i)
                        progressed = True
                _deliver_prefix()
                if not pending:
                    break
                if budget is not None and budget.token is not None:
                    if budget.token.cancelled and not event.is_set():
                        event.set()
                if not progressed:
                    time.sleep(poll_seconds)
        pool.close()
        pool.join()
        return results
    except KeyboardInterrupt:
        event.set()
        deadline = time.monotonic() + grace_seconds
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
        pool.terminate()
        pool.join()
        _deliver_prefix()
        raise
    except BaseException:
        event.set()
        pool.terminate()
        pool.join()
        raise
