"""The instrumented distance counter.

The paper compares discord-discovery algorithms by the *number of calls to
the distance function* (Table 1), noting that distance computation accounts
for up to 99 % of runtime.  Every discord search in this library therefore
draws its distances through a :class:`DistanceCounter`.

The distances themselves are defined once each, where the searches
evaluate them: the fixed-length Euclidean distance as
:func:`repro.timeseries.kernels.one_vs_all_sq_euclidean` (with
:func:`~repro.timeseries.kernels.first_below` replaying the early
abandon), and the variable-length Eq. 1 distance as
:func:`repro.timeseries.kernels.aligned_min_distance` (DESIGN.md §5).
The scalar per-pair references the tests compare them with live in
``tests/oracles.py``.
"""

from __future__ import annotations

from repro.exceptions import ParameterError


class DistanceCounter:
    """Counts distance-function invocations for the benchmark harness.

    One counter instance is threaded through a single discord search; its
    :attr:`calls` attribute afterwards holds the number reported in
    Table 1.  Early-abandoned computations still count as one call, same
    as in the paper's accounting (a call is a call, abandoned or not).
    """

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls = 0

    def reset(self) -> None:
        """Zero the counter (reuse between runs)."""
        self.calls = 0

    def batch(self, count: int) -> None:
        """Record *count* logical calls evaluated by a batched kernel.

        The discord searches evaluate many candidate pairs with one
        :mod:`repro.timeseries.kernels` operation but still account one
        logical call per pair a per-pair loop would have visited —
        including the pair that triggers an early-abandon break — so
        Table 1 call counts are those of the per-pair algorithms.
        """
        if count < 0:
            raise ParameterError(f"batch count must be >= 0, got {count}")
        self.calls += int(count)

    def __repr__(self) -> str:
        return f"DistanceCounter(calls={self.calls})"
