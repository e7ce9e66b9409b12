"""Distance functions and the instrumented distance counter.

The paper compares discord-discovery algorithms by the *number of calls to
the distance function* (Table 1), noting that distance computation accounts
for up to 99 % of runtime.  Every discord algorithm in this library
therefore draws its distances through a :class:`DistanceCounter`, which
tallies calls and supports early abandoning.

Two distance flavours are used:

* plain Euclidean distance between equal-length (z-normalized)
  subsequences — used by brute force and HOTSAX;
* length-normalized Euclidean distance (paper Eq. 1) between
  variable-length subsequences — used by RRA.  For unequal lengths the
  shorter sequence is slid along the longer one and the best (minimum)
  alignment is kept; see DESIGN.md §5.

The functions here are the *scalar reference* definitions, which the
test oracles use; the discord searches evaluate the vectorized
equivalents in :mod:`repro.timeseries.kernels`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.timeseries.znorm import znorm


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(
            f"euclidean requires equal shapes, got {a.shape} vs {b.shape}"
        )
    return float(np.sqrt(np.sum((a - b) ** 2)))


def euclidean_early_abandon(a: np.ndarray, b: np.ndarray, cutoff: float) -> float:
    """Euclidean distance with early abandoning.

    As soon as the partial sum of squared differences exceeds
    ``cutoff ** 2`` the computation stops and ``inf`` is returned; the
    caller only needs to know that the true distance is above *cutoff*.

    The scan proceeds in chunks so the common case stays vectorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(
            f"euclidean requires equal shapes, got {a.shape} vs {b.shape}"
        )
    if not np.isfinite(cutoff):
        return euclidean(a, b)
    limit = cutoff * cutoff
    total = 0.0
    n = a.size
    chunk = 64
    for start in range(0, n, chunk):
        diff = a[start : start + chunk] - b[start : start + chunk]
        total += float(np.dot(diff, diff))
        if total > limit:
            return float("inf")
    return float(np.sqrt(total))


def normalized_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance divided by the square root of the length.

    This is the paper's Eq. (1):
    ``Dist(p, q) = sqrt( sum (p_i - q_i)^2 / Length(p) )``.
    Both inputs must have the same length.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ParameterError("normalized_euclidean requires non-empty input")
    return euclidean(a, b) / float(np.sqrt(a.size))


def variable_length_distance(
    p: np.ndarray,
    q: np.ndarray,
    *,
    normalize_inputs: bool = True,
) -> float:
    """Length-normalized distance between possibly unequal subsequences.

    Implements the RRA distance (paper Eq. 1) generalized to unequal
    lengths: the shorter subsequence slides along the longer one, each
    alignment is scored with the length-normalized Euclidean distance over
    the overlap, and the minimum is returned.  With *normalize_inputs*
    both subsequences are z-normalized first (the paper always compares
    z-normalized shapes).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size == 0 or q.size == 0:
        raise ParameterError("variable_length_distance requires non-empty inputs")
    if normalize_inputs:
        p = znorm(p)
        q = znorm(q)
    if p.size == q.size:
        return normalized_euclidean(p, q)
    short, long_ = (p, q) if p.size < q.size else (q, p)
    n = short.size
    best = float("inf")
    for offset in range(long_.size - n + 1):
        segment = long_[offset : offset + n]
        dist = normalized_euclidean(short, segment)
        if dist < best:
            best = dist
    return best


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

    def euclidean(self, a: np.ndarray, b: np.ndarray, cutoff: float = float("inf")) -> float:
        """Counted Euclidean distance with optional early abandoning."""
        self.calls += 1
        return euclidean_early_abandon(a, b, cutoff)

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

    def variable_length(
        self,
        p: np.ndarray,
        q: np.ndarray,
        *,
        normalize_inputs: bool = True,
    ) -> float:
        """Counted variable-length (Eq. 1) distance."""
        self.calls += 1
        return variable_length_distance(p, q, normalize_inputs=normalize_inputs)

    def ledger(self) -> dict:
        """The tally as a plain dict (checkpoints, cache entries, events)."""
        return {"calls": self.calls}

    def restore_ledger(self, data: dict) -> None:
        """Restore a ledger saved by :meth:`ledger` (checkpoint resume)."""
        self.calls = int(data["calls"])

    def __repr__(self) -> str:
        return f"DistanceCounter(calls={self.calls})"
