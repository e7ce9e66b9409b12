"""Mapping grammar rules back onto the raw time series.

Every SAX word kept after numerosity reduction remembers the offset of
its source window, so a rule occurrence spanning tokens ``[i, j]`` maps to
the half-open series interval
``[offset(word_i), offset(word_j) + window)`` (paper Section 3.4).

This module produces the list of :class:`RuleInterval` objects that both
the rule density curve and the RRA candidate set are built from, plus the
"zero-coverage gaps": maximal stretches of the discretized series covered
by no rule at all (frequency-0 candidates, considered first by RRA).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError
from repro.grammar.grammar import Grammar, START_RULE_ID
from repro.sax.discretize import Discretization

__all__ = [
    "RuleInterval",
    "RuleIntervalList",
    "rule_intervals",
    "uncovered_intervals",
    "zero_coverage_gaps",
]


@dataclass(frozen=True)
class RuleInterval:
    """A rule occurrence projected onto the raw series.

    Attributes
    ----------
    rule_id:
        The grammar rule this interval belongs to; ``-1`` marks a
        zero-coverage gap (no rule covers it).
    start, end:
        Half-open series interval ``[start, end)``.
    usage:
        The rule's occurrence count (0 for gaps) — the RRA outer-loop
        sort key.
    """

    rule_id: int
    start: int
    end: int
    usage: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"malformed interval [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "RuleInterval") -> bool:
        """True when the two intervals share at least one point."""
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f"R{self.rule_id}" if self.rule_id >= 0 else "gap"
        return f"RuleInterval({tag}, [{self.start}, {self.end}), usage={self.usage})"


class RuleIntervalList(Sequence):
    """An immutable sequence of :class:`RuleInterval`, stored as columns.

    :func:`rule_intervals` returns this type.  It holds one read-only
    ``(4, n)`` ``int64`` table whose rows are the columns rule id,
    start, end and usage, so the accumulation passes downstream
    (:func:`repro.core.rule_density.rule_density_curve`,
    :func:`zero_coverage_gaps`) read the endpoints through
    :meth:`endpoint_arrays` without any per-interval Python object.  The
    :class:`RuleInterval` objects are built once, on first element
    access (indexing, iteration, ``==`` with a list, ``+``), and cached.

    It supports ``len``, iteration, indexing and slicing (a slice is a
    plain list), ``==`` with any sequence of intervals, and ``+``: with
    another :class:`RuleIntervalList` the tables are concatenated (the
    result is a :class:`RuleIntervalList`), with a list the result is a
    list.  :attr:`table`, :meth:`subset` and :meth:`overlapping` read
    and filter the columns without building objects.  Construct it from
    an iterable of :class:`RuleInterval`.
    """

    __slots__ = ("_table", "_items")

    def __init__(self, iterable: Iterable[RuleInterval] = ()) -> None:
        items = list(iterable)
        rows = [(iv.rule_id, iv.start, iv.end, iv.usage) for iv in items]
        self._table = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
        self._table.flags.writeable = False
        self._items = items

    @classmethod
    def _from_table(cls, table: np.ndarray) -> "RuleIntervalList":
        """Wrap a validated ``(4, n)`` table whose rows are rule id,
        start, end and usage; the objects come later, if at all."""
        self = cls.__new__(cls)
        self._table = table
        self._table.flags.writeable = False
        self._items = None
        return self

    @classmethod
    def of(cls, intervals: Iterable[RuleInterval]) -> "RuleIntervalList":
        """*intervals* itself when it is a :class:`RuleIntervalList`, else
        a new one over its items (read once, so an iterator works)."""
        return intervals if isinstance(intervals, cls) else cls(intervals)

    def _objects(self) -> list[RuleInterval]:
        if self._items is None:
            self._items = [
                RuleInterval(rule_id, start, end, usage)
                for rule_id, start, end, usage in zip(*self._table.tolist())
            ]
        return self._items

    def __len__(self) -> int:
        return self._table.shape[1]

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self) -> Iterator[RuleInterval]:
        return iter(self._objects())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RuleIntervalList):
            return np.array_equal(self._table, other._table)
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and self._objects() == list(other)
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, RuleIntervalList):
            return RuleIntervalList._from_table(
                np.concatenate((self._table, other._table), axis=1)
            )
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._objects() + list(other)

    def __radd__(self, other) -> list[RuleInterval]:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(other) + self._objects()

    def __reduce__(self):
        return (RuleIntervalList._from_table, (self._table,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuleIntervalList({self._objects()!r})"

    @property
    def table(self) -> np.ndarray:
        """The read-only ``(4, n)`` ``int64`` table; its rows are rule id,
        start, end and usage."""
        return self._table

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` as read-only ``int64`` arrays, in list order."""
        return self._table[1], self._table[2]

    def subset(self, index) -> "RuleIntervalList":
        """The intervals at *index* (a boolean mask or row indices), in
        that order."""
        return RuleIntervalList._from_table(self._table[:, index])

    def overlapping(self, spans: Iterable[tuple[int, int]]) -> np.ndarray:
        """Boolean mask of the intervals that share a point with any of
        the half-open ``(start, end)`` *spans*."""
        bounds = np.asarray(list(spans), dtype=np.int64).reshape(-1, 2)
        starts, ends = self._table[1, :, None], self._table[2, :, None]
        return ((starts < bounds[:, 1]) & (bounds[:, 0] < ends)).any(axis=1)


def interval_endpoints(intervals) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of any interval sequence, cached when possible."""
    getter = getattr(intervals, "endpoint_arrays", None)
    if getter is not None:
        return getter()
    n = len(intervals)
    starts = np.fromiter((iv.start for iv in intervals), np.int64, count=n)
    ends = np.fromiter((iv.end for iv in intervals), np.int64, count=n)
    return starts, ends


def rule_intervals(
    grammar: Grammar,
    discretization: Discretization,
    *,
    include_start_rule: bool = False,
) -> RuleIntervalList:
    """Project every rule occurrence onto the raw series.

    Parameters
    ----------
    grammar:
        Grammar induced over ``discretization.tokens()``.
    discretization:
        The discretization that produced the grammar's input tokens.
    include_start_rule:
        The start rule R0 trivially covers everything and is excluded by
        default (as in the paper's rule counts).

    Returns
    -------
    RuleIntervalList
        Sorted by (start, end, rule_id); ties keep rule-id, then
        occurrence order.

    Raises
    ------
    ValueError
        If a projected interval is malformed (start < 0 or end <= start,
        e.g. an offset at or past ``series_length``), naming the first
        such occurrence in rule-id order.
    """
    rule_ids, first, last = grammar.occurrence_table()
    usages = np.bincount(rule_ids)[rule_ids] if rule_ids.size else rule_ids
    if not include_start_rule:
        keep = rule_ids != START_RULE_ID
        rule_ids, first, last, usages = (
            rule_ids[keep], first[keep], last[keep], usages[keep]
        )
    starts, ends = _project(first, last, discretization)
    table = np.stack((rule_ids, starts, ends, usages))
    # The rows come in rule-id order, so a stable sort on (start, end)
    # is the stable sort on (start, end, rule_id).
    return RuleIntervalList._from_table(table[:, np.lexsort((ends, starts))])


def _project(
    first: np.ndarray, last: np.ndarray, discretization: Discretization
) -> tuple[np.ndarray, np.ndarray]:
    """Series ``(starts, ends)`` of the token spans ``[first, last]``.

    A span covers the series from word ``first``'s window offset to the
    end of word ``last``'s window, clipped to the series: the vectorised
    form of :meth:`Discretization.span_to_interval`.  Raises
    ``ValueError`` naming the first malformed interval (start < 0 or
    end <= start, e.g. an offset at or past ``series_length``).
    """
    offsets = discretization.offsets
    starts = offsets[first]
    ends = np.minimum(offsets[last] + discretization.window, discretization.series_length)
    bad = np.flatnonzero((starts < 0) | (ends <= starts))
    if bad.size:
        i = bad[0]
        raise ValueError(f"malformed interval [{starts[i]}, {ends[i]})")
    return starts, ends


def uncovered_intervals(
    grammar: Grammar,
    discretization: Discretization,
) -> RuleIntervalList:
    """Subsequences of the discretized series that are part of no rule.

    The paper's RRA candidate set is "subsequences that correspond to the
    grammar rules *plus all continuous subsequences of the discretized
    time series that do not form any rule*".  The latter are exactly the
    maximal runs of terminal tokens that remain directly in R0's
    right-hand side after induction: the compressor found no rule to put
    them in, which makes them frequency-0 (prime discord) candidates.

    Each run is projected to the series interval spanned by its tokens'
    windows, like a rule occurrence, and tagged rule id ``-1`` with
    usage 0.  Computed from :meth:`Grammar.start_body` in array form.
    """
    terminal, span = grammar.start_body()
    item_end = np.cumsum(span)
    edges = np.diff(np.concatenate(([0], terminal.view(np.int8), [0])))
    run_first = np.flatnonzero(edges == 1)
    run_last = np.flatnonzero(edges == -1) - 1
    first = item_end[run_first] - span[run_first]
    last = item_end[run_last] - 1
    if last.size and last[-1] >= len(discretization):
        raise ParameterError(
            f"token span [{first[-1]}, {last[-1]}] out of range "
            f"for {len(discretization)} words"
        )
    starts, ends = _project(first, last, discretization)
    return RuleIntervalList._from_table(
        np.stack((np.full_like(starts, -1), starts, ends, np.zeros_like(starts)))
    )


def zero_coverage_gaps(
    intervals: list[RuleInterval],
    series_length: int,
    *,
    min_length: int = 2,
) -> list[RuleInterval]:
    """Maximal series stretches covered by no rule interval.

    A coverage-based view of "uncovered", complementary to
    :func:`uncovered_intervals`: where that function works at the token
    level (runs of terminals left in R0), this one works in raw series
    coordinates and reports the stretches with zero rule density —
    i.e. exactly where the rule density curve is 0.  Gaps shorter than
    *min_length* points are ignored (a 1-point gap carries no shape).
    """
    n = len(intervals)
    if n:
        iv_starts, iv_ends = interval_endpoints(intervals)
        coverage = np.bincount(
            np.minimum(iv_starts, series_length), minlength=series_length + 1
        )
        coverage -= np.bincount(
            np.minimum(iv_ends, series_length), minlength=series_length + 1
        )
        covered = np.cumsum(coverage[:series_length]) > 0
    else:
        covered = np.zeros(series_length, dtype=bool)

    # Uncovered runs via edge detection on the padded mask (same trick
    # as density_minima_intervals): O(series_length), no Python scan.
    padded = np.zeros(series_length + 2, dtype=np.int8)
    padded[1:-1] = ~covered
    edges = np.diff(padded)
    run_starts = np.flatnonzero(edges == 1)
    run_ends = np.flatnonzero(edges == -1)
    return [
        RuleInterval(-1, int(s), int(e), usage=0)
        for s, e in zip(run_starts.tolist(), run_ends.tolist())
        if e - s >= min_length
    ]
