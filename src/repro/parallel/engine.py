"""The member fan-out over the process pool.

:func:`parallel_ensemble_members` runs ensemble members one pool task
per member, heaviest first.  It serves both the ensemble detector and
the parameter-grid sweep, whose cells are members too
(:func:`repro.core.ensemble.run_members`).

Every task runs the same code as the serial loop, over the series its
payload carries: one pickled copy per task, and no per-series state
left in a worker between tasks.
Results come back in canonical order, so a full run is bit-identical to
the serial loop for any worker count.
"""

from __future__ import annotations

from repro.parallel.pool import budget_from_spec, budget_to_spec, run_tasks
from repro.resilience.budget import SearchBudget

__all__ = ["parallel_ensemble_members"]


def _ensemble_member_task(payload: dict):
    """Worker: evaluate one ensemble member; returns its ``MemberOutcome``.

    A ``skip`` payload (the parent's budget tripped before this member
    was submitted) produces a ``"skipped"`` outcome without touching the
    series.  A ``budget`` spec is rebuilt with :func:`budget_from_spec`,
    so a cancelled parent stops the member through the pool's event.
    """
    from repro.core.ensemble import (
        EnsembleMember,
        MemberOutcome,
        evaluate_member,
    )

    member = EnsembleMember(*payload["member"])
    if payload.get("skip"):
        return MemberOutcome(member, "skipped")
    spec = payload.get("budget")
    return evaluate_member(
        payload["series"],
        member,
        num_discords=payload["num_discords"],
        seed=payload["seed"],
        budget=budget_from_spec(spec) if spec is not None else None,
    )


def _dispatch_order(pending: list) -> list:
    """Heaviest members first: by window, then richest words.

    Within a window, the largest PAA size and alphabet make the most
    grammar rules and RRA candidates, so they cost the most.  Merging
    is keyed by grid index, so the order moves wall time only.
    """
    return sorted(
        pending,
        key=lambda item: (
            item[1].window, -item[1].paa_size, -item[1].alphabet_size
        ),
    )


def parallel_ensemble_members(
    series,
    pending,
    *,
    num_discords: int,
    seed: int,
    budget,
    n_workers: int,
):
    """Fan ensemble members out one pool task per member, heaviest first.

    *pending* is a list of ``(index, EnsembleMember)`` in canonical
    grid order; the returned dict maps each index to its
    :class:`~repro.core.ensemble.MemberOutcome`.

    With a *budget*, members are dispatched in waves of ``n_workers``
    and each payload is resolved at submission time against the calls
    already merged from delivered members.  A spent ceiling turns the
    remaining members into ``"skipped"`` outcomes; otherwise the member
    ships the calls left under the ceiling and the deadline left, so it
    truncates itself.  Each member counts only its own calls and the
    waves are fixed, so a ceiling trips the same way on every run.
    Full (untripped) runs are bit-identical to the serial member loop
    for any worker count and any dispatch order.
    """
    ordered = _dispatch_order(list(pending))
    if not ordered:
        return {}
    state = {"calls": 0}

    def make_payload(member):
        base = {
            "series": series,
            "member": member.triple,
            "num_discords": int(num_discords),
            "seed": int(seed),
            "budget": None,
        }
        if budget is None:
            return base

        def build():
            calls = state["calls"]
            if budget.interrupted(calls) is not None:
                return {**base, "skip": True}
            max_calls = budget.max_calls
            # A budget with no limit still ships an (empty) spec, so
            # the worker's budget binds the pool's cancellation event.
            spec = budget_to_spec(
                SearchBudget(
                    deadline=budget.remaining_deadline(),
                    max_calls=None if max_calls is None else max_calls - calls,
                )
            )
            return {**base, "budget": spec or {}}

        return build

    def on_result(_index, outcome):
        state["calls"] += outcome.distance_calls

    results = run_tasks(
        _ensemble_member_task,
        [make_payload(member) for _idx, member in ordered],
        n_workers=n_workers,
        budget=budget,
        on_result=on_result,
        wave_size=n_workers if budget is not None else None,
    )
    return {idx: outcome for (idx, _member), outcome in zip(ordered, results)}

