"""Coarse fan-outs over the process pool: ensemble members and grid pairs.

* :func:`parallel_ensemble_members` — the ensemble detector's members,
  one pool task per ``(window, paa_size)`` group;
* :func:`parallel_grid_pairs` / :func:`parallel_grid_sweep` — the
  parameter-grid study, one task per ``(window, paa_size)`` pair.

Every task runs ordinary serial searches; the series reaches the
workers once, through shared memory, and each worker memoizes its
front-half artifacts in a per-series :class:`~repro.cache.SearchContext`.
Results come back in canonical order, so a full run is bit-identical to
the serial loop for any worker count.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.pool import budget_from_spec, budget_to_spec, run_tasks
from repro.parallel.shared import SharedArrays, attach
from repro.resilience.budget import SearchBudget

__all__ = [
    "parallel_grid_pairs",
    "parallel_grid_sweep",
    "parallel_ensemble_members",
]


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
    ``"skipped"`` outcomes without touching the series.  A ``budget``
    spec is rebuilt with :func:`budget_from_spec`, so a cancelled
    parent stops the group's members through the pool's event.
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
    budget = budget_from_spec(spec) if spec is not None else None
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
                "seed": int(seed),
                "budget": None,
            }
            if budget is None:
                return base

            def build():
                if budget.interrupted(state["calls"]) is not None:
                    return {**base, "skip": True}
                # The call ceiling stays here (checked between waves);
                # the worker gets the deadline left.  A budget with
                # neither limit still ships an (empty) spec, so the
                # worker's budget binds the pool's cancellation event.
                spec = budget_to_spec(
                    SearchBudget(deadline=budget.remaining_deadline())
                )
                return {**base, "budget": spec or {}}

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
