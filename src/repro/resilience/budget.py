"""Search budgets: deadlines, call ceilings, cooperative cancellation.

A :class:`SearchBudget` is threaded through the outer loop of every
discord search (RRA, HOTSAX, Haar, brute force).  The loop asks
:meth:`SearchBudget.interrupted` once per outer candidate; the first
non-None answer ends the search, which then returns its best-so-far
result tagged with the corresponding :class:`SearchStatus`.

Budget checks are deliberately outer-loop-grained: the boundary between
two outer candidates is a deterministic point of the search (a fixed
distance-call count and RNG state), which is what makes checkpointing
and bit-identical resume possible.  A ``max_calls`` ceiling may
therefore be overshot by at most one candidate's inner loop.
"""

from __future__ import annotations

import enum
import time
from typing import Optional

from repro.exceptions import ParameterError


class SearchStatus(enum.Enum):
    """How a search ended.

    COMPLETE
        The search visited every candidate; the result is exact.
    BUDGET_EXHAUSTED
        The wall-clock deadline or the distance-call ceiling was hit;
        the result is the best answer found so far.
    CANCELLED
        A :class:`CancellationToken` fired or a ``KeyboardInterrupt``
        arrived; the result is the best answer found so far.
    """

    COMPLETE = "complete"
    BUDGET_EXHAUSTED = "budget_exhausted"
    CANCELLED = "cancelled"


class CancellationToken:
    """Cooperative cancellation flag, settable from another thread.

    Examples
    --------
    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel()
    >>> token.cancelled
    True
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation; every budget holding this token trips."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class SearchBudget:
    """Compute budget for one (possibly multi-rank) discord search.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the search may run, measured from the first
        budget check (so a budget can be built ahead of time).  None
        means no time limit.
    max_calls:
        Ceiling on the distance-call counter.  None means no limit.
    token:
        Optional :class:`CancellationToken` polled at every check.

    Notes
    -----
    The budget is *sticky*: once a check reports exhaustion or
    cancellation, every later check reports the same status, so a
    multi-rank search stops cleanly instead of restarting the next rank.
    The :attr:`status` property reads ``COMPLETE`` while nothing has
    tripped — callers stamp it on their result after the search ends.
    """

    __slots__ = (
        "deadline",
        "max_calls",
        "token",
        "_deadline_at",
        "_tripped",
        "_metrics",
    )

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        max_calls: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ParameterError(f"deadline must be >= 0, got {deadline}")
        if max_calls is not None and max_calls < 0:
            raise ParameterError(f"max_calls must be >= 0, got {max_calls}")
        self.deadline = deadline
        self.max_calls = max_calls
        self.token = token
        self._deadline_at: Optional[float] = None
        self._tripped: Optional[SearchStatus] = None
        self._metrics = None

    def bind_metrics(self, metrics) -> None:
        """Attach an observability sink; the trip becomes a trace event.

        The search engines bind their ``metrics=`` registry here on
        entry, so the *first* exhaustion/cancellation — wherever it is
        detected — lands in the trace stream as one ``budget.tripped``
        event.  A disabled sink (``NullMetrics``) is never bound, so the
        default path carries no reference and emits nothing.
        """
        if metrics is not None and getattr(metrics, "enabled", False):
            self._metrics = metrics

    def _trip(self, status: SearchStatus, reason: str, **attrs) -> None:
        """Record the terminal status and emit its trace event once."""
        first = self._tripped is None
        self._tripped = status
        if first and self._metrics is not None:
            self._metrics.event(
                "budget.tripped", status=status.value, reason=reason, **attrs
            )

    @classmethod
    def unlimited(cls) -> "SearchBudget":
        """A budget that never trips (still honours KeyboardInterrupt)."""
        return cls()

    @property
    def limited(self) -> bool:
        """True when any of the three limits is actually set."""
        return (
            self.deadline is not None
            or self.max_calls is not None
            or self.token is not None
        )

    def interrupted(self, calls: int) -> Optional[SearchStatus]:
        """One budget check; returns the terminal status or None.

        Parameters
        ----------
        calls:
            The current distance-call count of the search.
        """
        if self._tripped is not None:
            return self._tripped
        if self.token is not None and self.token.cancelled:
            self._trip(SearchStatus.CANCELLED, "token", calls=calls)
            return self._tripped
        if self.max_calls is not None and calls >= self.max_calls:
            self._trip(
                SearchStatus.BUDGET_EXHAUSTED,
                "max_calls",
                calls=calls,
                max_calls=self.max_calls,
            )
            return self._tripped
        if self.deadline is not None:
            now = time.monotonic()
            if self._deadline_at is None:
                self._deadline_at = now + self.deadline
            elif now >= self._deadline_at:
                self._trip(
                    SearchStatus.BUDGET_EXHAUSTED,
                    "deadline",
                    calls=calls,
                    deadline=self.deadline,
                )
                return self._tripped
        return None

    def remaining_deadline(self) -> Optional[float]:
        """Seconds left on the wall-clock budget, or None when unlimited.

        Starts the deadline clock if it has not started yet (mirroring
        :meth:`interrupted`), so a budget handed to pool workers before
        its first check ships the full allowance.
        """
        if self.deadline is None:
            return None
        now = time.monotonic()
        if self._deadline_at is None:
            self._deadline_at = now + self.deadline
        return max(0.0, self._deadline_at - now)

    def note_cancelled(self) -> None:
        """Record an out-of-band cancellation (KeyboardInterrupt)."""
        self._trip(SearchStatus.CANCELLED, "keyboard_interrupt")

    @property
    def status(self) -> SearchStatus:
        """The search status as of now (COMPLETE while nothing tripped)."""
        return self._tripped if self._tripped is not None else SearchStatus.COMPLETE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SearchBudget(deadline={self.deadline}, "
            f"max_calls={self.max_calls}, status={self.status.value})"
        )
