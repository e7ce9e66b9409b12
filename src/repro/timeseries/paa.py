"""Piecewise Aggregate Approximation (PAA).

PAA reduces an ``n``-point subsequence to ``w`` segment means.  It is the
dimensionality-reduction step inside SAX (Lin et al. 2002, cited by the
paper as [19]/[25]).

When ``n`` is not divisible by ``w`` we use the *fractional* PAA of the
original SAX papers: every point contributes to the segments it overlaps,
weighted by the overlapped fraction, so all segments aggregate exactly
``n / w`` points' worth of mass.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.exceptions import ParameterError


def paa_segment_bounds(n: int, w: int) -> list[tuple[float, float]]:
    """Fractional segment boundaries ``[(start, end), ...]`` for PAA.

    Each segment covers ``n / w`` points; boundaries may fall between
    integer sample positions.
    """
    if n <= 0:
        raise ParameterError(f"subsequence length must be positive, got {n}")
    if w <= 0:
        raise ParameterError(f"PAA size must be positive, got {w}")
    if w > n:
        raise ParameterError(f"PAA size {w} exceeds subsequence length {n}")
    seg = n / w
    return [(i * seg, (i + 1) * seg) for i in range(w)]


def paa(values: np.ndarray, w: int) -> np.ndarray:
    """Compute the *w*-segment PAA representation of *values*.

    Parameters
    ----------
    values:
        One-dimensional array (typically an already z-normalized
        subsequence).
    w:
        Number of output segments; must satisfy ``1 <= w <= len(values)``.

    Returns
    -------
    numpy.ndarray
        Array of *w* segment means.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ParameterError(f"paa expects a 1-d array, got shape {values.shape}")
    n = values.size
    if w <= 0:
        raise ParameterError(f"PAA size must be positive, got {w}")
    if w > n:
        raise ParameterError(f"PAA size {w} exceeds subsequence length {n}")
    if n == w:
        return values.copy()
    if n % w == 0:
        return values.reshape(w, n // w).mean(axis=1)
    return _fractional_paa(values, w)


def _fractional_paa(values: np.ndarray, w: int) -> np.ndarray:
    """PAA for the non-divisible case using fractional point weights."""
    return _fractional_paa_rows(values[None, :], w)[0]


def _fractional_paa_rows(matrix: np.ndarray, w: int) -> np.ndarray:
    """Row-wise fractional PAA, accumulating points in series order.

    Each point is spread over the fractional segment grid (segment
    boundaries sit at multiples of n/w in "point mass" coordinates) and
    added to every segment it overlaps, weighted by the overlap; the
    sums are divided by n/w at the end.  Every row's result depends on
    that row alone, so a window computes to the same bits whether it is
    PAA'd by itself or inside a batch of any size.
    """
    k, n = matrix.shape
    result = np.zeros((k, w), dtype=float)
    for i, s, overlap in _fractional_schedule(n, w):
        if overlap is None:
            result[:, s] += matrix[:, i]
        else:
            result[:, s] += matrix[:, i] * overlap
    return result / (n / w)


@lru_cache(maxsize=64)
def _fractional_schedule(n: int, w: int) -> tuple:
    """``(point, segment, overlap)`` additions of fractional PAA, in order.

    ``overlap`` is None for a point wholly inside one segment (added
    unweighted).
    """
    seg = n / w
    schedule = []
    for i in range(n):
        left = i
        right = i + 1.0
        first_seg = int(left / seg)
        last_seg = min(int((right - 1e-12) / seg), w - 1)
        if first_seg == last_seg:
            schedule.append((i, first_seg, None))
            continue
        for s in range(first_seg, last_seg + 1):
            overlap = min(right, (s + 1) * seg) - max(left, s * seg)
            if overlap > 0:
                schedule.append((i, s, overlap))
    return tuple(schedule)


def paa_batch(matrix: np.ndarray, w: int) -> np.ndarray:
    """Row-wise PAA over a 2-d array of subsequences (k, n) -> (k, w).

    Row *i* of the result equals ``paa(matrix[i], w)`` bit for bit: when
    ``n % w == 0`` this is a single vectorized reshape-mean, otherwise
    the fractional PAA runs over all rows at once, one point at a time.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ParameterError(f"paa_batch expects a 2-d array, got shape {matrix.shape}")
    k, n = matrix.shape
    if w <= 0:
        raise ParameterError(f"PAA size must be positive, got {w}")
    if w > n:
        raise ParameterError(f"PAA size {w} exceeds subsequence length {n}")
    if n == w:
        return matrix.copy()
    if n % w == 0:
        return matrix.reshape(k, w, n // w).mean(axis=2)
    return _fractional_paa_rows(matrix, w)
