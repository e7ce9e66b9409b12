"""Process-pool plumbing: worker lifecycle, sharding, budget transport.

This module owns everything about *running* shard tasks — the pieces the
search engines share regardless of what a shard computes:

* a fork-preferring multiprocessing context (fork inherits the parent's
  imported modules, making worker dispatch cheap; spawn is the fallback
  on platforms without it);
* contiguous slicing of an ordered candidate list into shard chunks;
* an ``Event``-backed cancellation token so a parent-side
  :class:`~repro.resilience.budget.CancellationToken` (or a
  ``KeyboardInterrupt``) reaches every worker mid-scan;
* :func:`run_tasks`, the dispatch/collect loop with cooperative
  cancellation and guaranteed pool teardown (no orphaned workers).

Budgets cross the process boundary as plain dicts
(:func:`budget_to_spec` / :func:`budget_from_spec`): deadlines travel as
remaining seconds, call ceilings as the shard's fair share, and the
cancellation token is re-bound to the pool's shared event.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from typing import Any, Callable, Optional

from repro.exceptions import ParameterError
from repro.resilience.budget import SearchBudget

__all__ = [
    "MIN_PARALLEL_CANDIDATES",
    "effective_workers",
    "shard_slices",
    "ramped_slices",
    "strided_wave_plan",
    "EventToken",
    "budget_to_spec",
    "budget_from_spec",
    "run_tasks",
]

#: Below this many outer candidates a parallel search falls back to the
#: serial path — pool startup would dominate any conceivable win.
MIN_PARALLEL_CANDIDATES = 8

#: Chunks handed out per worker.  More than one gives the pool a little
#: load-balancing slack (chunk costs are uneven) at the price of one
#: extra payload round-trip per chunk.
CHUNKS_PER_WORKER = 2

#: First-wave chunk size of the ramped shard schedule (see
#: :func:`ramped_slices`).
RAMP_BASE_CHUNK = 8


def effective_workers(n_workers: Optional[int]) -> int:
    """Normalize an ``n_workers`` argument; ``None``/1 mean serial."""
    if n_workers is None:
        return 1
    n_workers = int(n_workers)
    if n_workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    return n_workers


def shard_slices(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into up to *chunks* contiguous slices.

    Sizes differ by at most one, earlier slices get the remainder —
    deterministic, so a resumed run re-creates the same sharding.
    """
    if total < 0 or chunks < 1:
        raise ParameterError(
            f"need total >= 0 and chunks >= 1, got {total} and {chunks}"
        )
    chunks = min(chunks, total) or 1
    base, extra = divmod(total, chunks)
    slices: list[tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        end = start + base + (1 if i < extra else 0)
        if end > start:
            slices.append((start, end))
        start = end
    return slices


def ramped_slices(
    total: int, workers: int, *, base: int = RAMP_BASE_CHUNK
) -> list[tuple[int, int]]:
    """Contiguous slices in doubling waves of up to *workers* chunks.

    The first wave's chunks hold *base* candidates each, and every later
    wave doubles the chunk size.  Dispatched wave-by-wave (see
    ``run_tasks(wave_size=workers)``), this mirrors how the serial scan
    warms up its pruning threshold: early waves are cheap even though
    their floor is stale, and by the time the big chunks run the merged
    threshold has essentially converged to the serial best — which is
    what keeps the total over-scan (and hence the parallel critical
    path) small.  Deterministic, so a resumed run re-creates the same
    schedule.
    """
    if total < 0 or workers < 1 or base < 1:
        raise ParameterError(
            f"need total >= 0, workers >= 1 and base >= 1, "
            f"got {total}, {workers} and {base}"
        )
    slices: list[tuple[int, int]] = []
    start = 0
    size = base
    while start < total:
        for _ in range(workers):
            if start >= total:
                break
            end = min(total, start + size)
            slices.append((start, end))
            start = end
        size *= 2
    return slices


#: Warm-up waves of the RRA wave plan (chunk spans 1, 2, 4, ... ranks).
RRA_WARMUP_WAVES = 3

#: Chunks per worker in the final sweep wave of the RRA wave plan.
SWEEP_CHUNKS_PER_WORKER = 4


def strided_wave_plan(
    total: int,
    workers: int,
    *,
    warmup: int = RRA_WARMUP_WAVES,
    sweep_factor: int = SWEEP_CHUNKS_PER_WORKER,
) -> list[tuple[int, int, int]]:
    """RRA wave plan: ``(lo, hi, n_chunks)`` triples over ``range(total)``.

    The ranks of each wave are dealt round-robin to its chunks (rank
    ``lo + c``, ``lo + c + n``, ... for chunk *c* of *n*): RRA's outer
    order puts the rarest rules — the expensive, hard-to-abandon scans —
    first, so contiguous chunks would stack that work into the first
    chunk and the wave's critical path would equal the serial cost.

    The plan has two phases.  *Warm-up*: up to *warmup* doubling waves
    of one chunk per worker (chunk spans 1, 2, 4, ... ranks), run with
    a barrier between them so each wave inherits the previous one's
    pruning threshold — this mirrors the serial scan's threshold
    warm-up while its cost is still dominated by unprunable full scans.
    *Sweep*: one final wave over everything left, cut into
    ``sweep_factor * workers`` strided chunks.  By then the threshold
    has essentially converged, so the floor's staleness costs little,
    and the fine strided chunks let the surviving candidates buried in
    the tail — each an unsplittable near-full scan — land in different
    chunks and overlap on the worker slots instead of serializing at
    wave barriers.  Deterministic, so a resumed run re-creates the same
    schedule.
    """
    if total < 0 or workers < 1 or warmup < 0 or sweep_factor < 1:
        raise ParameterError(
            f"need total >= 0, workers >= 1, warmup >= 0 and "
            f"sweep_factor >= 1, got {total}, {workers}, {warmup} "
            f"and {sweep_factor}"
        )
    plan: list[tuple[int, int, int]] = []
    start = 0
    size = 1
    for _ in range(warmup):
        if start >= total:
            break
        end = min(total, start + size * workers)
        plan.append((start, end, min(workers, end - start)))
        start = end
        size *= 2
    if start < total:
        plan.append((start, total, min(sweep_factor * workers, total - start)))
    return plan


class EventToken:
    """Duck-typed CancellationToken backed by a multiprocessing Event.

    Workers poll it through their shard budgets exactly like an ordinary
    token; the parent (or any shard) sets the event to stop everyone.
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
    """Serialize one shard's sub-budget (from ``SearchBudget.split``)."""
    if budget is None or not (budget.deadline is not None or budget.max_calls is not None):
        return None
    return {"deadline": budget.deadline, "max_calls": budget.max_calls}


def budget_from_spec(spec: Optional[dict]) -> SearchBudget:
    """Worker side: rebuild a shard budget, bound to the pool's event."""
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
    wave_size: Optional[int | list[int]] = None,
) -> list[Any]:
    """Execute *task* over *payloads* in a worker pool; ordered results.

    Results are collected as they finish and delivered in payload order.
    ``on_result(index, result)`` fires for the longest completed *prefix*
    of payloads (in order), which is what lets the RRA engine checkpoint
    at merged chunk boundaries while later chunks are still running.

    A payload may be a zero-argument callable, resolved at *submission*
    time.  Combined with ``wave_size`` — which submits that many
    payloads at a time (or, given a list, the explicit group sizes in
    order) and waits for the whole wave to finish (and be delivered)
    before building the next — this lets the search engines hand later
    chunks the pruning threshold the earlier chunks already
    established, instead of the stale seed value.  Wave barriers make
    the per-chunk work deterministic: a chunk's payload only ever sees
    the merged state of complete earlier waves.  A wave may hold more
    chunks than the pool has workers; the pool drains it FIFO, so the
    wave's wall cost is the list-schedule makespan of its chunks.

    Cancellation paths:

    * *budget*'s token trips → the shared event is set, workers notice at
      their next outer-loop boundary and return best-so-far records;
    * ``KeyboardInterrupt`` in the parent → the event is set, finished
      shards are drained for up to *grace_seconds*, then the pool is
      terminated; the interrupt is re-raised for the caller to translate
      (engines return best-so-far when the caller holds a budget).

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
        if isinstance(wave_size, list):
            if not wave_size or any(w < 1 for w in wave_size) or sum(
                wave_size
            ) != len(payloads):
                raise ParameterError(
                    f"wave_size groups must be >= 1 and sum to "
                    f"{len(payloads)}, got {wave_size}"
                )
            groups = wave_size
        else:
            wave = wave_size if wave_size is not None else len(payloads)
            if wave < 1:
                raise ParameterError(f"wave_size must be >= 1, got {wave}")
            groups = [
                min(wave, len(payloads) - lo)
                for lo in range(0, len(payloads), wave)
            ]
        handles = [None] * len(payloads)
        wave_start = 0
        for group in groups:
            wave_ids = range(wave_start, wave_start + group)
            wave_start += group
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
