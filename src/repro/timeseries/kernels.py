"""Vectorized batch distance kernels for the discord searches.

The paper measures every algorithm in *distance-function calls* because
distance computation is ≥99 % of runtime.  The scalar reference
implementations in :mod:`repro.timeseries.distance` make each of those
calls a round-trip through Python; this module provides the batched
numpy primitives that the discord searches use instead, while keeping
the *logical* call accounting bit-identical (see
:meth:`repro.timeseries.distance.DistanceCounter.batch`):

* **Cumulative-sum window statistics** — mean/std of every sliding
  window (or of any ``[start, end)`` interval, via :class:`SeriesStats`)
  in O(m) total from prefix sums of the centred series, replacing
  per-window ``znorm`` calls.
* **One-vs-all squared Euclidean** — the dot-product identity
  ``‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`` turns an inner loop of pairwise
  distances into one matrix-vector product.
* **Sliding-alignment profile** — the variable-length Eq. 1 distance
  (shorter subsequence slid along the longer) for *all* offsets at once
  via :func:`numpy.correlate` plus a squared cumulative sum, replacing
  the per-offset Python loop.
* **Batch early-abandon filtering** — distances above a cutoff are
  mapped to ``inf`` wholesale, matching the scalar early-abandon
  contract (the caller only needs to know the true distance exceeds the
  cutoff).

Every kernel is an exact (to floating-point roundoff) replacement for
its scalar counterpart; ``tests/test_kernels.py`` asserts agreement to
1e-9 on random inputs, and checks every discord engine against the
per-pair reference searches in ``tests/oracles.py`` for identical
discords, ranks and ``DistanceCounter`` accounting.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.exceptions import ParameterError
from repro.timeseries.windows import num_windows, sliding_windows
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD, znorm_rows

__all__ = [
    "centred_prefix_sums",
    "SeriesStats",
    "WindowMatrix",
    "sliding_window_stats",
    "znorm_sliding_windows",
    "row_sqnorms",
    "sq_cumsum",
    "one_vs_all_sq_euclidean",
    "one_vs_all_euclidean",
    "early_abandon_filter",
    "sliding_alignment_sq_profile",
    "aligned_min_distance",
    "sliding_min_normalized_distance",
    "variable_length_kernel",
    "first_below",
]


# ---------------------------------------------------------------------------
# Cumulative-sum window statistics
# ---------------------------------------------------------------------------


def centred_prefix_sums(
    series: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(centre, x, c, c2)`` for a float64 series.

    *centre* is the global mean, ``x = series − centre`` the centred
    series, and ``c = [0, cumsum(x)]``, ``c2 = [0, cumsum(x²)]`` its
    prefix sums.  Window statistics taken from raw prefix sums cancel
    catastrophically far from zero: ``E[x²] − mean²`` at an offset of
    1e6 keeps only a few digits of a unit variance.  Centred sums keep
    them independent of the offset (DESIGN.md §5).  The one definition
    behind :class:`SeriesStats`, :func:`sliding_window_stats` and the
    discretize core's letters (:func:`repro.sax.saxcore.letters`).
    """
    centre = float(series.mean()) if series.size else 0.0
    x = series - centre
    c = np.zeros(series.size + 1)
    np.cumsum(x, out=c[1:])
    c2 = np.zeros(series.size + 1)
    np.cumsum(x * x, out=c2[1:])
    return centre, x, c, c2


class SeriesStats:
    """O(1) mean/std/z-normalization of any interval after O(m) setup.

    Precomputes the prefix sums of the centred series and of its squares
    (:func:`centred_prefix_sums`) so the statistics of an arbitrary
    ``[start, end)`` interval come from two subtractions instead of a
    fresh pass over the values.  This is the batch replacement for
    calling :func:`repro.timeseries.znorm.znorm` once per candidate
    window.
    """

    __slots__ = ("series", "centre", "centred", "_cumsum", "_sq_cumsum")

    def __init__(self, series: np.ndarray):
        series = np.ascontiguousarray(series, dtype=float)
        if series.ndim != 1:
            raise ParameterError(
                f"SeriesStats expects a 1-d series, got shape {series.shape}"
            )
        self.series = series
        self.centre, self.centred, self._cumsum, self._sq_cumsum = (
            centred_prefix_sums(series)
        )

    @property
    def cumsums(self) -> tuple[np.ndarray, np.ndarray]:
        """The centred prefix sums ``(c, c2)``."""
        return self._cumsum, self._sq_cumsum

    def _check(self, start: int, end: int) -> None:
        if not (0 <= start < end <= self.series.size):
            raise ParameterError(
                f"interval [{start}, {end}) out of bounds for series "
                f"of length {self.series.size}"
            )

    def _moments(self, start: int, end: int) -> tuple[float, float]:
        """Centred mean and population std of ``series[start:end]``."""
        self._check(start, end)
        n = end - start
        mean = float(self._cumsum[end] - self._cumsum[start]) / n
        ex2 = float(self._sq_cumsum[end] - self._sq_cumsum[start]) / n
        return mean, math.sqrt(max(0.0, ex2 - mean * mean))

    def mean(self, start: int, end: int) -> float:
        """Mean of ``series[start:end]``."""
        return self.centre + self._moments(start, end)[0]

    def std(self, start: int, end: int) -> float:
        """Population standard deviation of ``series[start:end]``."""
        return self._moments(start, end)[1]

    def znorm(
        self,
        start: int,
        end: int,
        threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    ) -> np.ndarray:
        """Z-normalized copy of ``series[start:end]`` with the flatness rule.

        Matches :func:`repro.timeseries.znorm.znorm`: intervals whose
        standard deviation falls below *threshold* are mean-centered but
        never variance-scaled.
        """
        mean, std = self._moments(start, end)
        values = self.centred[start:end] - mean
        if std >= threshold:
            values /= std
        return values


def _centred_window_stats(
    series: np.ndarray, window: int, stats: Optional[SeriesStats]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(centre, x, means, stds)`` of every sliding window, where *means*
    are the windows' means of the centred series *x*."""
    if stats is not None:
        if stats.series.size != series.size:
            raise ParameterError(
                f"stats built over a series of length {stats.series.size}, "
                f"got one of length {series.size}"
            )
        centre, x, (cumsum, sq) = stats.centre, stats.centred, stats.cumsums
    else:
        centre, x, cumsum, sq = centred_prefix_sums(series)
    means = (cumsum[window:] - cumsum[:-window]) / window
    ex2 = (sq[window:] - sq[:-window]) / window
    variances = np.clip(ex2 - means * means, 0.0, None)
    return centre, x, means, np.sqrt(variances)


def sliding_window_stats(
    series: np.ndarray,
    window: int,
    *,
    stats: Optional[SeriesStats] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of every sliding window in O(m).

    Returns ``(means, stds)``, each of length ``m - window + 1``,
    computed from centred prefix sums rather than a per-window pass.
    Pass a prebuilt :class:`SeriesStats` over the same series to reuse
    its prefix sums instead of recomputing them (the results are
    bit-identical either way, since both build the same arrays).
    """
    series = np.ascontiguousarray(series, dtype=float)
    if num_windows(series.size, window) == 0:
        return np.empty(0), np.empty(0)
    centre, _, means, stds = _centred_window_stats(series, window, stats)
    return centre + means, stds


def znorm_sliding_windows(
    series: np.ndarray,
    window: int,
    threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    *,
    stats: Optional[SeriesStats] = None,
) -> np.ndarray:
    """Z-normalized sliding-window matrix using cumulative-sum statistics.

    Equivalent (to roundoff) to
    ``znorm_rows(sliding_windows(series, window))`` but computes the
    per-window mean/std in O(m) instead of O(m·window).  A prebuilt
    *stats* over the same series skips the cumulative-sum pass entirely.
    """
    series = np.ascontiguousarray(series, dtype=float)
    if num_windows(series.size, window) == 0:
        return np.empty((0, window))
    _, x, means, stds = _centred_window_stats(series, window, stats)
    scales = np.where(stds < threshold, 1.0, stds)
    return (sliding_windows(x, window) - means[:, None]) / scales[:, None]


class WindowMatrix:
    """Per-search cache of the sliding-window matrix and its statistics.

    Every fixed-length engine needs the same four artifacts — the raw
    window view, the z-normalized window matrix, the per-row squared
    norms, and (for discretization consumers) the series'
    cumulative-sum statistics.  Before this cache each rank of an
    iterated search recomputed all of them; building one
    :class:`WindowMatrix` per search and passing it down makes each a
    compute-once property.

    The normalized matrix deliberately comes from
    :func:`repro.timeseries.znorm.znorm_rows` over the window view —
    the exact arithmetic the engines always used — rather than the
    cumulative-sum shortcut, so distance trajectories (and the pinned
    golden call counts) are bit-identical to the pre-cache code.  The
    cumulative sums back :meth:`window_stats` and any consumer that
    wants interval statistics without another O(m·window) pass.
    """

    __slots__ = ("series", "window", "_stats", "_view", "_normalized", "_sqnorms")

    def __init__(self, series: np.ndarray, window: int):
        series = np.ascontiguousarray(series, dtype=float)
        if series.ndim != 1:
            raise ParameterError(
                f"WindowMatrix expects a 1-d series, got shape {series.shape}"
            )
        if num_windows(series.size, window) == 0:
            raise ParameterError(
                f"series of length {series.size} has no windows of size {window}"
            )
        self.series = series
        self.window = window
        self._stats: Optional[SeriesStats] = None
        self._view: Optional[np.ndarray] = None
        self._normalized: Optional[np.ndarray] = None
        self._sqnorms: Optional[np.ndarray] = None

    @property
    def stats(self) -> SeriesStats:
        """Cumulative-sum statistics of the series (built once)."""
        if self._stats is None:
            self._stats = SeriesStats(self.series)
        return self._stats

    @property
    def view(self) -> np.ndarray:
        """The raw ``(k, window)`` sliding-window view (zero-copy)."""
        if self._view is None:
            self._view = sliding_windows(self.series, self.window)
        return self._view

    @property
    def normalized(self) -> np.ndarray:
        """Z-normalized window matrix (the engines' distance substrate)."""
        if self._normalized is None:
            self._normalized = znorm_rows(self.view)
        return self._normalized

    @property
    def sqnorms(self) -> np.ndarray:
        """Squared row norms of :attr:`normalized`, computed once."""
        if self._sqnorms is None:
            self._sqnorms = row_sqnorms(self.normalized)
        return self._sqnorms

    def window_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-window ``(means, stds)`` reusing the cached cumulative sums."""
        return sliding_window_stats(self.series, self.window, stats=self.stats)


# ---------------------------------------------------------------------------
# One-vs-all Euclidean kernels
# ---------------------------------------------------------------------------


def row_sqnorms(matrix: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row — precompute once per search."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ParameterError(f"row_sqnorms expects a 2-d array, got {matrix.shape}")
    return np.einsum("ij,ij->i", matrix, matrix)


def sq_cumsum(values: np.ndarray) -> np.ndarray:
    """``[0, v₀², v₀²+v₁², ...]`` — window sums of squares in O(1) each."""
    values = np.asarray(values, dtype=float)
    return np.concatenate(([0.0], np.cumsum(values * values)))


def one_vs_all_sq_euclidean(
    query: np.ndarray,
    matrix: np.ndarray,
    *,
    query_sqnorm: Optional[float] = None,
    sqnorms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distance from *query* to every row of *matrix*.

    Uses ``‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`` so the whole batch is one
    matrix-vector product.  Pass precomputed norms to skip their
    recomputation inside a search loop.  Results are clipped at zero
    (the identity can go epsilon-negative for near-identical rows).
    """
    query = np.asarray(query, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != query.size:
        raise ParameterError(
            f"shape mismatch: query {query.shape} vs matrix {matrix.shape}"
        )
    if query_sqnorm is None:
        query_sqnorm = float(np.dot(query, query))
    if sqnorms is None:
        sqnorms = row_sqnorms(matrix)
    sq = query_sqnorm + sqnorms - 2.0 * (matrix @ query)
    return np.clip(sq, 0.0, None)


def one_vs_all_euclidean(
    query: np.ndarray,
    matrix: np.ndarray,
    *,
    cutoff: float = float("inf"),
    query_sqnorm: Optional[float] = None,
    sqnorms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Euclidean distances from *query* to every row, with batch abandoning.

    Distances strictly above *cutoff* come back as ``inf`` — the batch
    analogue of :func:`repro.timeseries.distance.euclidean_early_abandon`,
    whose callers only need to know the true distance exceeds the cutoff.
    """
    sq = one_vs_all_sq_euclidean(
        query, matrix, query_sqnorm=query_sqnorm, sqnorms=sqnorms
    )
    dists = np.sqrt(sq)
    return early_abandon_filter(dists, cutoff)


def early_abandon_filter(dists: np.ndarray, cutoff: float) -> np.ndarray:
    """Map every distance strictly above *cutoff* to ``inf``.

    Mirrors the scalar early-abandon contract: an abandoned computation
    reports ``inf``, a surviving one reports its true value.
    """
    dists = np.asarray(dists, dtype=float)
    if not np.isfinite(cutoff):
        return dists
    return np.where(dists > cutoff, np.inf, dists)


def first_below(values: np.ndarray, threshold: float) -> int:
    """Index of the first entry strictly below *threshold*, or -1.

    The batched searches use this to replay the per-pair inner loop's
    early-abandon decision: the pair that would have triggered the
    break is the last one that logically "happened" (and is counted).
    """
    hits = np.nonzero(values < threshold)[0]
    return int(hits[0]) if hits.size else -1


# ---------------------------------------------------------------------------
# Sliding-alignment (variable-length, Eq. 1) kernels
# ---------------------------------------------------------------------------


def _alignment_inputs(
    short: np.ndarray,
    long_: np.ndarray,
    short_sqnorm: Optional[float],
    long_sq_cumsum: Optional[np.ndarray],
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Validate an alignment pair and fill in the precomputable pieces."""
    short = np.asarray(short, dtype=float)
    long_ = np.asarray(long_, dtype=float)
    if short.size == 0 or long_.size < short.size:
        raise ParameterError(
            f"alignment needs 0 < len(short) <= len(long), "
            f"got {short.size} vs {long_.size}"
        )
    if short_sqnorm is None:
        short_sqnorm = float(np.dot(short, short))
    if long_sq_cumsum is None:
        long_sq_cumsum = sq_cumsum(long_)
    return short, short_sqnorm, long_, long_sq_cumsum


def sliding_alignment_sq_profile(
    short: np.ndarray,
    long_: np.ndarray,
    *,
    short_sqnorm: Optional[float] = None,
    long_sq_cumsum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared Euclidean distance of *short* against every alignment of *long_*.

    Entry ``o`` is ``‖short − long_[o : o + n]‖²`` for each of the
    ``len(long_) − n + 1`` offsets, computed in one shot: the cross
    terms via :func:`numpy.correlate` and the window energies via a
    squared cumulative sum.  Pass the precomputed pieces when scanning
    many pairs against the same sequences.
    """
    short, short_sqnorm, long_, long_sq_cumsum = _alignment_inputs(
        short, long_, short_sqnorm, long_sq_cumsum
    )
    n = short.size
    window_energy = long_sq_cumsum[n:] - long_sq_cumsum[:-n]
    cross = np.correlate(long_, short, mode="valid")
    sq = short_sqnorm + window_energy - 2.0 * cross
    return np.clip(sq, 0.0, None)


def aligned_min_distance(
    short: np.ndarray,
    short_sqnorm: float,
    long_: np.ndarray,
    long_sq_cumsum: np.ndarray,
) -> float:
    """Eq. 1 min-distance from precomputed pieces, with no argument checks.

    The one definition of the sliding-alignment minimum, shared by
    :func:`sliding_min_normalized_distance` and the RRA pair distance:
    ``(short_sqnorm + window_energy) − 2·correlate(long_, short)``,
    minimized over offsets, clamped at zero, then ``sqrt(· / n)``.
    Clamping the minimum gives the same float as minimizing the clamped
    :func:`sliding_alignment_sq_profile`.  Callers guarantee
    ``0 < len(short) <= len(long_)`` and float64 contiguous inputs.

    The cross terms stay on :func:`numpy.correlate`, which rounds like
    ``np.dot`` (BLAS ``ddot``) offset by offset; a matrix-vector product
    over a sliding-window view rounds differently and would move
    discords on knife-edge ties.  The RRA C core
    (:mod:`repro.timeseries.eq1core`) reproduces this arithmetic bit for
    bit, and its parity probe checks that on every first load.
    """
    n = short.size
    window_energy = long_sq_cumsum[n:] - long_sq_cumsum[:-n]
    sq = (short_sqnorm + window_energy) - 2.0 * np.correlate(long_, short)
    best = float(sq.min())
    if best < 0.0:
        best = 0.0
    return math.sqrt(best / n)


def sliding_min_normalized_distance(
    short: np.ndarray,
    long_: np.ndarray,
    *,
    short_sqnorm: Optional[float] = None,
    long_sq_cumsum: Optional[np.ndarray] = None,
) -> float:
    """Best (minimum) length-normalized distance over all alignments.

    The kernel form of the paper's Eq. 1 distance for already-normalized
    inputs: ``min over offsets of sqrt(‖short − segment‖² / len(short))``.
    """
    return aligned_min_distance(
        *_alignment_inputs(short, long_, short_sqnorm, long_sq_cumsum)
    )


def variable_length_kernel(p: np.ndarray, q: np.ndarray) -> float:
    """Kernel equivalent of ``variable_length_distance(normalize_inputs=False)``.

    Orders the pair by length and evaluates the full alignment profile
    in vectorized form; equal lengths degenerate to a single offset.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size == 0 or q.size == 0:
        raise ParameterError("variable_length_kernel requires non-empty inputs")
    short, long_ = (p, q) if p.size <= q.size else (q, p)
    return sliding_min_normalized_distance(short, long_)
