"""Parallel search orchestration: seed, shard, scan, replay.

One function per search family:

* :func:`parallel_fixed_search` — the outer loop of the fixed-length
  engines (HOTSAX/Haar bucket search, brute force) sharded across a
  process pool;
* :func:`parallel_rra_rank` — one rank of the RRA variable-length
  search, with chunk-boundary checkpointing;
* :func:`parallel_grid_sweep` — the parameter-grid study fanned out one
  task per ``(window, paa_size)`` pair.

The discord searches follow the scan/replay recipe (see
:mod:`repro.parallel.scan` for the why): shard the outer candidates,
capture the serial RNG state at every shard boundary, publish the large
arrays into shared memory, and merge the workers' scan records back in
serial order.  The fixed-length engines seed a pruning threshold ``τ0``
with an inline scan of the leading candidates and then deal contiguous
ramped chunks; the RRA engine instead deals each ramped wave's ranks
round-robin across its chunks (the expensive candidates sit at the
front of the RRA outer order) and lets the first wave warm the floor up
in parallel.  Either way the merged discords, ranks, and distance-call
counts are bit-identical to the serial run for any worker count.

Budget semantics across the pool: the remaining call allowance is
fair-shared across chunks (each chunk may overshoot its share by one
candidate, and chunks run concurrently, so a ``max_calls`` parallel
search can do somewhat more physical work than the serial one — but the
*merged* result always equals a serial prefix, and only merged work is
counted).  Deadlines are handed to every chunk whole; cancellation
travels through a pool-wide event.  A truncated chunk's records are
discarded entirely, so the merged state always sits on a chunk boundary
the search can checkpoint and resume from.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.observability.metrics import ensure_metrics
from repro.parallel.pool import (
    budget_to_spec,
    ramped_slices,
    run_tasks,
    strided_wave_plan,
)
from repro.parallel.scan import (
    Replay,
    ShardResult,
    scan_fixed_positions,
    scan_fixed_shard,
    scan_rra_shard,
)
from repro.parallel.shared import SharedArrays, attach
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.resilience.checkpoint import rng_state_to_json

__all__ = [
    "parallel_fixed_search",
    "parallel_rra_rank",
    "parallel_grid_pairs",
    "parallel_grid_sweep",
    "parallel_ensemble_members",
]

#: Diagnostic telemetry of the most recent parallel run in this process:
#: per-chunk worker scan seconds and the parent's seed cost.  Used by the
#: benchmark harness to report critical-path speedups on machines where
#: wall-clock parallelism is unavailable; not a stable API.
LAST_TELEMETRY: dict = {}

#: Every parallel run since the caller last cleared it (one entry per
#: rank, in execution order) — multi-rank searches produce several.
TELEMETRY_LOG: list = []


def _record_telemetry(
    kind: str,
    shards: list,
    seed_calls: int,
    wave_size: int,
    merged_calls: int,
    wave_chunks: Optional[list] = None,
) -> None:
    if wave_chunks is None:
        wave_chunks = [
            min(wave_size, len(shards) - lo)
            for lo in range(0, len(shards), max(1, wave_size))
        ]
    entry = {
        "kind": kind,
        "shard_elapsed": [s.elapsed for s in shards if s is not None],
        "shard_calls": [s.calls for s in shards if s is not None],
        "seed_calls": seed_calls,
        "wave_size": wave_size,
        "wave_chunks": wave_chunks,
        "merged_calls": merged_calls,
    }
    LAST_TELEMETRY.clear()
    LAST_TELEMETRY.update(entry)
    TELEMETRY_LOG.append(entry)


def parallel_fixed_search(
    *,
    normalized: np.ndarray,
    sqnorms: Optional[np.ndarray],
    bucket_ids: Optional[np.ndarray],
    outer: Optional[np.ndarray],
    window: int,
    exclude: tuple,
    backend: str,
    abandon: bool,
    counter,
    rng: Optional[np.random.Generator],
    budget: SearchBudget,
    n_workers: int,
    has_channel: bool,
    metrics=None,
) -> tuple[Optional[int], float]:
    """Sharded outer loop for the fixed-length engines.

    *bucket_ids*/*outer* present → HOTSAX/Haar bucket semantics (with
    *rng* driving the shuffled inner tails); both None → brute force
    (identity outer order, no randomness).  *abandon* turns early
    abandoning on for brute force (the bucketed engines always
    abandon).  Returns ``(best_pos, best_dist)`` exactly as the serial
    scan would have; the *counter* is advanced by the serial call count
    and early termination is reported through *budget*
    (KeyboardInterrupt is swallowed into CANCELLED only when
    *has_channel*, mirroring the serial loops).

    *metrics* asks every worker to keep a local registry; the parent
    merges the snapshots in serial replay order as shards are delivered
    (``merge_snapshot`` is commutative, so the totals are deterministic
    for any worker count), and records per-chunk wall time in the
    ``parallel.worker_seconds`` timer.
    """
    k = normalized.shape[0]
    total = len(outer) if outer is not None else k
    uses_rng = bucket_ids is not None
    replay = Replay(abandon=abandon, init_best=-1.0)
    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_chunks = metrics.counter("parallel.chunks")
        m_worker_time = metrics.timer("parallel.worker_seconds")

    def _position(i: int) -> int:
        return int(outer[i]) if outer is not None else i

    def _account() -> None:
        counter.batch(replay.calls)

    def _finish() -> tuple[Optional[int], float]:
        _account()
        if replay.status != SearchStatus.COMPLETE.value:
            budget.adopt(SearchStatus(replay.status))
        return replay.best_pos, replay.best

    # ------------------------------------------------------------------
    # Seed: scan leading candidates inline until one survives, giving
    # every shard a pruning threshold τ0 <= the serial best-so-far.
    # ------------------------------------------------------------------
    seed_end = 0
    seed_calls = 0
    try:
        while seed_end < total:
            if budget.interrupted(counter.calls + replay.calls) is not None:
                return _finish()
            shard = scan_fixed_positions(
                normalized,
                sqnorms,
                bucket_ids,
                [_position(seed_end)],
                window=window,
                exclude=exclude,
                backend=backend,
                abandon=abandon,
                floor=replay.best,
                rng=rng,
                metrics=metrics,
            )
            replay.feed(shard, 1)
            seed_end += 1
            if shard.records:
                break
        seed_calls = replay.calls

        if seed_end >= total:
            return _finish()

        # --------------------------------------------------------------
        # Shard the remainder; replay the serial RNG to every chunk
        # boundary (inner-tail permutations are drawn per non-excluded
        # candidate, in serial order, so worker k's generator starts in
        # exactly the state the serial scan would have reached).
        # --------------------------------------------------------------
        slices = [
            (lo + seed_end, hi + seed_end)
            for lo, hi in ramped_slices(total - seed_end, n_workers)
        ]
        chunk_states: list = []
        for lo, hi in slices:
            chunk_states.append(rng_state_to_json(rng) if uses_rng else None)
            if uses_rng:
                for i in range(lo, hi):
                    p = _position(i)
                    if not any(s <= p < e for s, e in exclude):
                        rng.permutation(k)

        sub_specs = [
            budget_to_spec(sub)
            for sub in budget.split(
                len(slices), calls_spent=counter.calls + replay.calls
            )
        ]

        sizes = [hi - lo for lo, hi in slices]
        feeding = [True]
        shards: list = [None] * len(slices)

        def _merge(i: int, shard) -> None:
            shards[i] = shard
            if instrumented:
                m_chunks.inc()
                m_worker_time.add(shard.elapsed)
                metrics.merge_snapshot(shard.metrics)
            if feeding[0]:
                feeding[0] = replay.feed(shard, sizes[i])

        with SharedArrays() as arena:
            norm_spec = arena.share(normalized)
            sq_spec = arena.share(sqnorms) if sqnorms is not None else None
            bid_spec = arena.share(bucket_ids) if bucket_ids is not None else None
            outer_spec = (
                arena.share(np.asarray(outer, dtype=np.intp))
                if outer is not None
                else None
            )
            def _payload(bounds, state, spec):
                # Resolved at submission time (run_tasks waves), so the
                # floor reflects every chunk merged so far — always <=
                # the serial best at this chunk's boundary, but far
                # tighter than the seed for late chunks.
                def build() -> dict:
                    return {
                        "normalized": norm_spec,
                        "sqnorms": sq_spec,
                        "bucket_ids": bid_spec,
                        "outer": outer_spec,
                        "slice": bounds,
                        "window": window,
                        "exclude": [list(pair) for pair in exclude],
                        "backend": backend,
                        "abandon": abandon,
                        "floor": replay.best,
                        "rng_state": state,
                        "budget": spec,
                        "metrics": instrumented,
                    }

                return build

            payloads = [
                _payload((lo, hi), state, spec)
                for (lo, hi), state, spec in zip(slices, chunk_states, sub_specs)
            ]
            run_tasks(
                scan_fixed_shard,
                payloads,
                n_workers=n_workers,
                budget=budget,
                on_result=_merge,
                wave_size=n_workers,
            )
        _record_telemetry("fixed", shards, seed_calls, n_workers, replay.calls)
    except KeyboardInterrupt:
        if not has_channel:
            _account()
            raise
        budget.note_cancelled()
    return _finish()


def parallel_rra_rank(
    *,
    cache,
    ordering,
    candidates: list,
    outer: list,
    state,
    counter,
    rng: np.random.Generator,
    budget: SearchBudget,
    backend: str,
    n_workers: int,
    has_channel: bool,
    capture_rng: bool,
    on_boundary: Optional[Callable] = None,
    metrics=None,
) -> None:
    """One RRA rank sharded across the pool; mutates *state* and *counter*.

    Resumes from ``state.outer_index`` with ``state.best_dist`` /
    ``state.best_key`` (so checkpointed runs re-enter here exactly like
    the serial loop).  Wave boundaries play the role the per-candidate
    boundaries play serially: *state* is brought to each merged boundary
    in turn — outer index, call count, captured RNG state, best-so-far —
    and *on_boundary* fires there, so checkpoints written mid-rank are
    resumable and a truncated parallel rank equals a serial prefix.

    Sharding follows :func:`~repro.parallel.pool.strided_wave_plan`:
    a few doubling warm-up waves of one strided chunk per worker, then
    one sweep wave over the remainder cut into finer strided chunks
    that the pool drains FIFO.  Each worker consumes the serial RNG's
    inner-ordering permutation for every rank of its wave (scanning its
    own, discarding the rest), and the parent merges the wave's records
    in serial rank order at the wave barrier, so the replay is oblivious
    to the deal.  There is no inline τ0 seed scan: each wave-1 chunk
    warms its own floor up with its first completed candidate, in
    parallel, instead of the parent paying a full scan serially.
    """
    replay = Replay(init_best=state.best_dist)
    metrics = ensure_metrics(metrics)
    instrumented = metrics.enabled
    if instrumented:
        m_chunks = metrics.counter("parallel.chunks")
        m_worker_time = metrics.timer("parallel.worker_seconds")
    base_calls = counter.calls
    total = len(outer)
    index_of = {id(iv): i for i, iv in enumerate(candidates)}
    outer_indices = [index_of[id(iv)] for iv in outer]

    def _account() -> None:
        counter.batch(replay.calls)

    def _sync_best() -> None:
        if replay.best_pos is not None:
            best = outer[replay.best_pos]
            state.best_dist = replay.best
            state.best_key = (best.start, best.end, best.rule_id)

    truncated = False
    try:
        # Rank-start boundary: the checkpointable point before any of
        # this rank's waves run (the serial loop records the same
        # boundary before its first candidate).
        start = state.outer_index
        state.calls = base_calls
        if capture_rng:
            state.rng_state = rng_state_to_json(rng)
        if budget.interrupted(state.calls) is not None:
            truncated = True
        elif on_boundary is not None:
            on_boundary(state, outer)

        if not truncated and start < total:
            waves = [
                (lo + start, hi + start, n)
                for lo, hi, n in strided_wave_plan(total - start, n_workers)
            ]
            # RNG states at every wave boundary (one inner-ordering
            # permutation per outer candidate, like the serial loop).
            wave_states: list = []
            for lo, hi, _ in waves:
                wave_states.append(rng_state_to_json(rng))
                for i in range(lo, hi):
                    rng.permutation(ordering.rest_size(outer[i]))
            wave_states.append(rng_state_to_json(rng))

            # Flat chunk list, wave-major: chunk c of an n-chunk wave
            # owns ranks lo+c, lo+c+n, ...  (the round-robin deal).
            chunk_meta: list = []  # (wave index, offset, n_chunks, expected)
            for w, (lo, hi, n_chunks) in enumerate(waves):
                for c in range(n_chunks):
                    chunk_meta.append((w, c, n_chunks, len(range(lo + c, hi, n_chunks))))

            sub_specs = [
                budget_to_spec(sub)
                for sub in budget.split(
                    len(chunk_meta), calls_spent=base_calls + replay.calls
                )
            ]
            cumsum, sq_cumsum = cache.stats.cumsums
            cand_tuples = [
                (iv.rule_id, iv.start, iv.end, iv.usage) for iv in candidates
            ]
            wave_chunk_counts = [n_chunks for _, _, n_chunks in waves]
            wave_buffers: list = [[] for _ in waves]
            feeding = [True]
            shards: list = [None] * len(chunk_meta)

            def _merge(i: int, shard) -> None:
                shards[i] = shard
                if instrumented:
                    m_chunks.inc()
                    m_worker_time.add(shard.elapsed)
                    metrics.merge_snapshot(shard.metrics)
                if not feeding[0]:
                    return
                w, _, _, expected = chunk_meta[i]
                wave_buffers[w].append((shard, expected))
                if len(wave_buffers[w]) < wave_chunk_counts[w]:
                    return
                # Whole wave delivered: a truncated chunk discards the
                # wave (the replay stays on the previous wave boundary);
                # otherwise the chunks' records interleave back into
                # serial rank order and merge as one unit.
                combined = ShardResult()
                for s, exp in wave_buffers[w]:
                    if s.processed < exp or s.status != SearchStatus.COMPLETE.value:
                        feeding[0] = replay.feed(s, exp)
                        return
                    combined.records.extend(s.records)
                    combined.processed += s.processed
                    combined.calls += s.calls
                combined.records.sort(key=lambda record: record.position)
                feeding[0] = replay.feed(combined, combined.processed)
                if not feeding[0]:  # pragma: no cover - defensive
                    return
                boundary = waves[w][1]
                state.outer_index = boundary
                state.calls = base_calls + replay.calls
                if capture_rng:
                    state.rng_state = wave_states[w + 1]
                _sync_best()
                if instrumented:
                    metrics.event(
                        "parallel.wave_merged",
                        wave=w,
                        boundary=boundary,
                        calls=base_calls + replay.calls,
                    )
                if boundary < total and on_boundary is not None:
                    on_boundary(state, outer)

            with SharedArrays() as arena:
                series_spec = arena.share(cache.series)
                cs_spec = arena.share(cumsum)
                sq_spec = arena.share(sq_cumsum)
                def _payload(w, c, n_chunks, spec):
                    # Built at submission time so late waves inherit the
                    # threshold the merged waves established (see the
                    # fixed-engine counterpart).
                    def build() -> dict:
                        lo, hi, _ = waves[w]
                        return {
                            "series": series_spec,
                            "cumsum": cs_spec,
                            "sq_cumsum": sq_spec,
                            "candidates": cand_tuples,
                            "outer_indices": outer_indices[lo:hi],
                            "base": lo,
                            "stride": n_chunks,
                            "offset": c,
                            "backend": backend,
                            "floor": replay.best,
                            "rng_state": wave_states[w],
                            "budget": spec,
                            "metrics": instrumented,
                        }

                    return build

                payloads = [
                    _payload(w, c, n_chunks, spec)
                    for (w, c, n_chunks, _), spec in zip(chunk_meta, sub_specs)
                ]
                run_tasks(
                    scan_rra_shard,
                    payloads,
                    n_workers=n_workers,
                    budget=budget,
                    on_result=_merge,
                    wave_size=wave_chunk_counts,
                )
            _record_telemetry(
                "rra",
                shards,
                0,
                n_workers,
                replay.calls,
                wave_chunks=wave_chunk_counts,
            )
            truncated = not feeding[0]
    except KeyboardInterrupt:
        if not has_channel:
            _account()
            raise
        budget.note_cancelled()
        _account()
        return

    _account()
    if replay.status != SearchStatus.COMPLETE.value:
        budget.adopt(SearchStatus(replay.status))
    if not truncated and replay.complete:
        state.outer_index = total
        state.calls = base_calls + replay.calls
        if capture_rng:
            state.rng_state = rng_state_to_json(rng)
        _sync_best()
        state.complete = True


# ---------------------------------------------------------------------------
# Parameter-grid sweep
# ---------------------------------------------------------------------------


#: Worker-global memoization context for grid-sweep tasks, keyed by the
#: shared-memory block name of the series it serves.  Pool workers are
#: reused across tasks, so every (window, paa_size) pair a worker
#: evaluates for one sweep shares z-normalized windows, discretizations,
#: and statistics.  One sweep runs at a time per pool, so a new series
#: simply replaces the old context.
_GRID_CONTEXTS: dict = {}


def _grid_pair_task(payload: dict) -> list:
    """Worker: evaluate one (window, paa_size) pair over all alphabets."""
    from repro.core.parameter_grid import ParameterGridStudy

    series = np.array(attach(payload["series"]))
    study = ParameterGridStudy(
        series,
        tuple(payload["true_anomaly"]),
        min_overlap=payload["min_overlap"],
    )
    context = _worker_series_context(payload["series"])
    return study._evaluate_pair(
        payload["window"],
        payload["paa_size"],
        payload["alphabet_sizes"],
        context=context,
    )


def parallel_grid_pairs(study, pairs, *, n_workers: int) -> list:
    """Fan explicit ``(window, paa_size, alphabet_sizes)`` work units out
    one pool task each.

    The generalized form of :func:`parallel_grid_sweep`: the cached
    sweep path uses it to dispatch only the cells the result cache
    could not answer, with a per-pair alphabet subset.  Point order
    matches the serial evaluation of *pairs* in the given order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    with SharedArrays() as arena:
        series_spec = arena.share(study.series)
        payloads = [
            {
                "series": series_spec,
                "true_anomaly": list(study.true_anomaly),
                "min_overlap": study.min_overlap,
                "window": int(window),
                "paa_size": int(paa_size),
                "alphabet_sizes": [int(a) for a in alphabet_sizes],
            }
            for window, paa_size, alphabet_sizes in pairs
        ]
        results = run_tasks(_grid_pair_task, payloads, n_workers=n_workers)
    points: list = []
    for pair_points in results:
        points.extend(pair_points or [])
    return points


def _worker_series_context(series_spec):
    """The worker-global :class:`SearchContext` for one shared series.

    Shared with the grid-sweep tasks: pool workers are reused across
    tasks, so every member/pair a worker evaluates for one fan-out
    shares its per-series memoized artifacts.
    """
    from repro.cache import SearchContext

    ctx_key = series_spec.name
    context = _GRID_CONTEXTS.get(ctx_key)
    if context is None:
        _GRID_CONTEXTS.clear()
        context = _GRID_CONTEXTS[ctx_key] = SearchContext()
    return context


def _ensemble_member_task(payload: dict) -> list:
    """Worker: evaluate one (window, paa_size) group of ensemble members.

    Returns ``(index, MemberOutcome)`` pairs.  A ``skip`` payload (the
    parent's budget tripped before this group was submitted) produces
    ``"skipped"`` outcomes without touching the series.
    """
    from repro.core.ensemble import (
        EnsembleMember,
        MemberOutcome,
        evaluate_member,
    )

    items = [tuple(item) for item in payload["items"]]
    if payload.get("skip"):
        return [
            (idx, MemberOutcome(EnsembleMember(w, p, a), "skipped"))
            for idx, w, p, a in items
        ]
    series = np.array(attach(payload["series"]))
    context = _worker_series_context(payload["series"])
    spec = payload.get("budget")
    budget = SearchBudget(**spec) if spec else None
    out = []
    local_calls = 0
    for idx, w, p, a in items:
        member = EnsembleMember(w, p, a)
        if budget is not None and budget.interrupted(local_calls) is not None:
            out.append((idx, MemberOutcome(member, "skipped")))
            continue
        outcome = evaluate_member(
            series,
            member,
            num_discords=payload["num_discords"],
            backend=payload["backend"],
            seed=payload["seed"],
            context=context,
            budget=budget,
        )
        local_calls += outcome.distance_calls
        out.append((idx, outcome))
    return out


def parallel_ensemble_members(
    series,
    pending,
    *,
    num_discords: int,
    backend: str,
    seed: int,
    budget,
    n_workers: int,
):
    """Fan ensemble members out one pool task per (window, paa) group.

    *pending* is a list of ``(index, EnsembleMember)`` in canonical
    grid order; the returned dict maps each index to its
    :class:`~repro.core.ensemble.MemberOutcome`.  Grouping by
    (window, paa_size) preserves the sweep layer's front-half sharing:
    every alphabet of a pair reuses one discretization pass through the
    worker's context.

    With a *budget*, groups are dispatched in canonical waves and each
    payload is resolved at submission time against the calls already
    merged from delivered groups — so a tripped call ceiling truncates
    on a group boundary ("skipped" outcomes), while deadlines and
    cancellation travel into the workers and can truncate an individual
    member mid-group.  Full (untripped) runs are bit-identical to the
    serial member loop for any worker count.
    """
    pending = list(pending)
    if not pending:
        return {}
    group_order: list[tuple[int, int]] = []
    groups: dict[tuple[int, int], list] = {}
    for idx, member in pending:
        key = (member.window, member.paa_size)
        if key not in groups:
            groups[key] = []
            group_order.append(key)
        groups[key].append((idx, member))
    state = {"calls": 0}
    outcomes: dict = {}
    with SharedArrays() as arena:
        series_spec = arena.share(
            np.ascontiguousarray(np.asarray(series, dtype=float))
        )

        def make_payload(items):
            base = {
                "series": series_spec,
                "items": [
                    (idx, m.window, m.paa_size, m.alphabet_size)
                    for idx, m in items
                ],
                "num_discords": int(num_discords),
                "backend": backend,
                "seed": int(seed),
                "budget": None,
            }
            if budget is None:
                return base

            def build():
                if budget.interrupted(state["calls"]) is not None:
                    return {**base, "skip": True}
                remaining = budget.remaining_deadline()
                spec = (
                    None
                    if remaining is None
                    else {"deadline": remaining, "max_calls": None}
                )
                return {**base, "budget": spec}

            return build

        def on_result(_index, result):
            for _idx, outcome in result or []:
                state["calls"] += outcome.distance_calls

        payloads = [make_payload(groups[key]) for key in group_order]
        results = run_tasks(
            _ensemble_member_task,
            payloads,
            n_workers=n_workers,
            budget=budget,
            on_result=on_result,
            wave_size=n_workers if budget is not None else None,
        )
    for result in results:
        for idx, outcome in result or []:
            outcomes[idx] = outcome
    return outcomes


def parallel_grid_sweep(
    study,
    windows,
    paa_sizes,
    alphabet_sizes,
    *,
    n_workers: int,
) -> list:
    """Fan the grid sweep out one pool task per (window, paa_size) pair.

    Pair order (and alphabet order within a pair) matches the serial
    triple loop, so the concatenated result list is identical to
    ``ParameterGridStudy.sweep`` run serially.
    """
    return parallel_grid_pairs(
        study,
        [(w, p, alphabet_sizes) for w in windows for p in paa_sizes],
        n_workers=n_workers,
    )
