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

from dataclasses import dataclass

import numpy as np

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


class RuleIntervalList(list):
    """A list of :class:`RuleInterval` with cached endpoint arrays.

    :func:`rule_intervals` returns this type so that the accumulation
    passes downstream (:func:`repro.core.rule_density.rule_density_curve`,
    :func:`zero_coverage_gaps`) can read every interval's endpoints as
    two ``int64`` arrays instead of re-reading per-object attributes on
    each call.  The arrays are built lazily on first use and reused for
    the lifetime of the list — one projected interval list typically
    serves both the density curve and the gap scan.

    The cache is invalidated by a length change (append/extend); callers
    that *replace* elements in place should not rely on it.  The arrays
    follow the list's element order at build time; the consumers here
    treat them as an order-independent endpoint multiset.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self._starts: np.ndarray | None = None
        self._ends: np.ndarray | None = None

    def __reduce__(self):
        # Pickle as the plain element list (works at every protocol
        # despite __slots__); the receiving side rebuilds the endpoint
        # arrays lazily on first use.
        return (type(self), (list(self),))

    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` as ``int64`` arrays, cached."""
        n = len(self)
        if self._starts is None or self._starts.size != n:
            self._starts = np.fromiter(
                (iv.start for iv in self), np.int64, count=n
            )
            self._ends = np.fromiter((iv.end for iv in self), np.int64, count=n)
        return self._starts, self._ends


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
) -> list[RuleInterval]:
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
    list[RuleInterval]
        Sorted by (start, end, rule_id).
    """
    # Inlined span_to_interval: one grammar over a long stream yields
    # ~1e5 occurrences, so the per-occurrence bounds checks and function
    # calls dominate.  Occurrence spans come from the freeze and are
    # in range by construction (grammar.verify() checks this).
    offs = discretization.offsets.tolist()
    window = discretization.window
    series_length = discretization.series_length
    intervals = RuleIntervalList()
    append = intervals.append
    for rule in grammar:
        rule_id = rule.rule_id
        if rule_id == START_RULE_ID and not include_start_rule:
            continue
        usage = rule.usage
        for occ in rule.occurrences:
            end = offs[occ.end] + window
            if end > series_length:
                end = series_length
            append(RuleInterval(rule_id, offs[occ.start], end, usage=usage))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.rule_id))
    return intervals


def uncovered_intervals(
    grammar: Grammar,
    discretization: Discretization,
) -> list[RuleInterval]:
    """Subsequences of the discretized series that are part of no rule.

    The paper's RRA candidate set is "subsequences that correspond to the
    grammar rules *plus all continuous subsequences of the discretized
    time series that do not form any rule*".  The latter are exactly the
    maximal runs of terminal tokens that remain directly in R0's
    right-hand side after induction: the compressor found no rule to put
    them in, which makes them frequency-0 (prime discord) candidates.

    Each run is projected to the series interval spanned by its tokens'
    windows, like a rule occurrence.
    """
    gaps: list[RuleInterval] = []
    token_pos = 0
    run_start: int | None = None
    for item in grammar.start_rule.rhs:
        if isinstance(item, int):
            if run_start is not None:
                start, end = discretization.span_to_interval(run_start, token_pos - 1)
                gaps.append(RuleInterval(-1, start, end, usage=0))
                run_start = None
            token_pos += grammar.rules[item].expansion_length
        else:
            if run_start is None:
                run_start = token_pos
            token_pos += 1
    if run_start is not None:
        start, end = discretization.span_to_interval(run_start, token_pos - 1)
        gaps.append(RuleInterval(-1, start, end, usage=0))
    return gaps


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
