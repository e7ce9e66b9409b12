"""Resilience layer: anytime search budgets and checkpoint/resume.

Production deployments cannot afford a discord search that either
finishes or crashes with nothing.  This package makes every search in
the library *anytime*:

* :class:`~repro.resilience.budget.SearchBudget` — a wall-clock
  deadline, a distance-call ceiling, and a cooperative
  :class:`~repro.resilience.budget.CancellationToken`, checked inside
  the outer loop of every discord search.  On exhaustion the search
  returns its best-so-far answer, tagged with a
  :class:`~repro.resilience.budget.SearchStatus` instead of raising.
* :mod:`~repro.resilience.checkpoint` — JSON snapshots of RRA search
  state (the rank and outer position reached, best-so-far discords,
  distance-call count) with atomic writes, so a killed run resumes where
  it left off with bit-identical final output.

See DESIGN.md §6 for the budget semantics, the checkpoint format, and
the degradation ladder.
"""

from repro.resilience.budget import (
    CancellationToken,
    SearchBudget,
    SearchStatus,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    save_checkpoint,
    search_fingerprint,
)

__all__ = [
    "CancellationToken",
    "SearchBudget",
    "SearchStatus",
    "CHECKPOINT_FORMAT",
    "load_checkpoint",
    "save_checkpoint",
    "search_fingerprint",
]
