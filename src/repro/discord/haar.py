"""Haar-wavelet discord discovery (paper related work: Fu et al. 2006).

The paper's related-work section cites discord algorithms that order the
search with Haar wavelets and augmented tries ([7] Fu et al., [2] Bu et
al.'s WAT).  This baseline implements that idea on the shared
bucket-ordered engine: each z-normalized window is summarized by the
signs/magnitudes of its coarsest Haar coefficients, windows with equal
Haar words share a bucket, and the exact search proceeds as in HOTSAX.

Like HOTSAX, the algorithm is exact — only the call count depends on how
well the Haar words group similar windows.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from repro.discord.inner_order import check_seed
from repro.discord.search import (
    DiscordSearchResult,
    bucket_rank,
    fixed_length_discords,
)
from repro.exceptions import ParameterError
from repro.resilience.budget import SearchBudget
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm_rows


def haar_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized Haar wavelet transform (length padded to 2^k).

    Output layout: ``[overall average, coarsest detail, ..., finest
    details]`` — the standard pyramid ordering, so the leading
    coefficients describe the window's coarse shape.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError("haar_transform expects a non-empty 1-d array")
    size = 1 << int(np.ceil(np.log2(values.size)))
    padded = np.zeros(size, dtype=float)
    padded[: values.size] = values
    if values.size < size:
        padded[values.size :] = values[-1]  # edge-pad, avoids a fake step

    output = padded.copy()
    length = size
    while length > 1:
        half = length // 2
        evens = output[0:length:2].copy()
        odds = output[1:length:2].copy()
        output[:half] = (evens + odds) / 2.0
        output[half:length] = (evens - odds) / 2.0
        length = half
    return output


def _quantize(coefficient: float, scale: float) -> str:
    """Map one coefficient to one of four letters by sign/magnitude."""
    if coefficient < -scale:
        return "a"
    if coefficient < 0.0:
        return "b"
    if coefficient < scale:
        return "c"
    return "d"


def haar_words(
    series: np.ndarray,
    window: int,
    *,
    num_coefficients: int = 4,
    normalized: Optional[np.ndarray] = None,
) -> list[str]:
    """The Haar bucket key of every sliding window.

    Each window is z-normalized, Haar-transformed, and its first
    *num_coefficients* coefficients are quantized to 4 levels.  Pass a
    prebuilt z-normalized window matrix to skip that pass.
    """
    if num_coefficients < 1:
        raise ParameterError(
            f"num_coefficients must be >= 1, got {num_coefficients}"
        )
    if normalized is None:
        normalized = znorm_rows(sliding_windows(series, window))
    words = []
    for row in normalized:
        coefficients = haar_transform(row)[:num_coefficients]
        scale = max(1e-9, float(np.abs(coefficients).mean()))
        words.append("".join(_quantize(c, scale) for c in coefficients))
    return words


def haar_discords(
    series: np.ndarray,
    window: int,
    *,
    num_discords: int = 1,
    num_coefficients: int = 4,
    counter: Optional[DistanceCounter] = None,
    seed: int = 0,
    budget: Optional[SearchBudget] = None,
    metrics=None,
    cache=None,
) -> DiscordSearchResult:
    """Ranked top-k discords with Haar-word loop ordering (anytime, exact).

    The Haar words (:func:`haar_words`) are computed once, from the
    search's window matrix, and shared by every rank.  *cache* serves an
    identical previous search from disk (discords + call count,
    ``from_cache=True``).
    """
    series = np.asarray(series, dtype=float)
    seed = check_seed(seed)

    def build_rank(windows):
        words = haar_words(
            series, window,
            num_coefficients=num_coefficients, normalized=windows.normalized,
        )
        return partial(bucket_rank, windows, words, source="haar", seed=seed)

    return fixed_length_discords(
        "haar",
        series,
        window,
        build_rank,
        params={"num_coefficients": int(num_coefficients), "seed": seed},
        num_discords=num_discords,
        counter=counter,
        budget=budget,
        metrics=metrics,
        cache=cache,
    )
