"""Time-series primitives: normalization, windows, PAA, and distances.

This subpackage provides the numeric substrate the rest of the library is
built on.  Everything operates on one-dimensional ``numpy`` arrays of
floats and is deterministic.
"""

from repro.timeseries.znorm import znorm, znorm_or_flat, znorm_rows, is_flat
from repro.timeseries.windows import (
    num_windows,
    sliding_windows,
    subsequence,
    windows_iter,
)
from repro.timeseries.paa import paa, paa_segment_bounds
from repro.timeseries.distance import (
    DistanceCounter,
    euclidean,
    euclidean_early_abandon,
    normalized_euclidean,
    variable_length_distance,
)
from repro.timeseries.kernels import (
    SeriesStats,
    one_vs_all_euclidean,
    one_vs_all_sq_euclidean,
    sliding_min_normalized_distance,
    sliding_window_stats,
    znorm_sliding_windows,
)
from repro.timeseries.preprocess import (
    clip_outliers,
    detrend,
    downsample,
    fill_missing,
    prepare,
)

__all__ = [
    "znorm",
    "znorm_or_flat",
    "znorm_rows",
    "is_flat",
    "num_windows",
    "sliding_windows",
    "subsequence",
    "windows_iter",
    "paa",
    "paa_segment_bounds",
    "DistanceCounter",
    "euclidean",
    "euclidean_early_abandon",
    "normalized_euclidean",
    "variable_length_distance",
    "SeriesStats",
    "sliding_window_stats",
    "znorm_sliding_windows",
    "one_vs_all_sq_euclidean",
    "one_vs_all_euclidean",
    "sliding_min_normalized_distance",
    "fill_missing",
    "detrend",
    "downsample",
    "clip_outliers",
    "prepare",
]
