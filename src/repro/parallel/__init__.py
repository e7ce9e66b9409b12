"""Multi-core execution layer for the coarse fan-outs.

Every discord search (RRA, HOTSAX, Haar, brute force) runs in one
process: RRA's pruning against the best-so-far distance makes its outer
loop serial, and sharding it lost wall time (DESIGN.md §7).  The pool
serves one fan-out one level up instead, where tasks are
independent: ensemble members
(:func:`repro.parallel.engine.parallel_ensemble_members`), reached
through ``EnsembleDetector(..., n_workers=...)``, ``repro ensemble
--workers N`` and ``ParameterGridStudy.sweep(..., n_workers=...)``,
whose grid cells are members.

Each task runs ordinary serial searches over the series its payload
carries; results merge in canonical order, so a full run is
bit-identical to the serial loop for any worker count.
A caller's :class:`~repro.resilience.budget.CancellationToken` reaches
the workers through the pool's shared event
(:mod:`repro.parallel.pool`).

The pool persists across fan-outs: its workers live until
:func:`shutdown` or interpreter exit.
"""

from repro.parallel.pool import effective_workers, shutdown

__all__ = ["effective_workers", "shutdown"]
