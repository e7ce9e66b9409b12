"""WCAD-style compression-based anomaly detection (paper reference [14]).

Keogh, Lonardi & Ratanamahatana's Window Comparison Anomaly Detection
scores each window by how poorly it compresses *together with* the rest
of the series: a window whose content is unrelated to the remainder adds
nearly its full size when concatenated, whereas a repetitive window adds
almost nothing.

We follow the paper's critique faithfully: the method needs an
off-the-shelf compressor (we use :mod:`zlib`), a window size, and *many*
compressor executions — which is exactly why the EDBT paper calls it
computationally expensive.  It is included as a related-work baseline
for the ablation bench, not as a recommended detector.

The continuous series is discretized with SAX per window (like the
original, which works on discretized data) before compression.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.anomaly import Anomaly
from repro.exceptions import ParameterError
from repro.sax.alphabet import letter_indices
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm_rows


def _compressed_size(payload: bytes) -> int:
    return len(zlib.compress(payload, level=6))


def _discretize_whole(series: np.ndarray, window: int, paa_per_window: int, alpha: int) -> bytes:
    """Non-overlapping SAX discretization of the full series to bytes."""
    usable = (series.size // window) * window
    if usable == 0:
        raise ParameterError("series shorter than one window")
    chunks = series[:usable].reshape(-1, window)
    normalized = znorm_rows(chunks)
    paa_values = paa_batch(normalized, paa_per_window)
    letters = letter_indices(paa_values, alpha).astype(np.uint8)
    return (letters + ord("a")).tobytes()


def wcad_scores(
    series: np.ndarray,
    window: int,
    *,
    paa_per_window: int = 8,
    alphabet_size: int = 4,
) -> np.ndarray:
    """Per-window compression-based anomaly scores.

    Score of window *i* = C(rest + window_i) - C(rest), where C is the
    zlib-compressed size and *rest* is the discretized series with
    window *i* blanked out.  Higher = harder to compress with the rest =
    more anomalous.

    Returns one score per non-overlapping window (length
    ``len(series) // window``).
    """
    series = np.asarray(series, dtype=float)
    if window <= 1:
        raise ParameterError(f"window must be > 1, got {window}")
    payload = _discretize_whole(series, window, paa_per_window, alphabet_size)
    num_chunks = len(payload) // paa_per_window
    scores = np.zeros(num_chunks, dtype=float)
    for i in range(num_chunks):
        lo = i * paa_per_window
        hi = lo + paa_per_window
        rest = payload[:lo] + payload[hi:]
        chunk = payload[lo:hi]
        scores[i] = _compressed_size(rest + chunk) - _compressed_size(rest)
    return scores


def wcad_anomalies(
    series: np.ndarray,
    window: int,
    *,
    num_anomalies: int = 1,
    paa_per_window: int = 8,
    alphabet_size: int = 4,
) -> list[Anomaly]:
    """Top-k anomalies by WCAD score, as half-open series intervals."""
    if num_anomalies < 1:
        raise ParameterError(f"num_anomalies must be >= 1, got {num_anomalies}")
    scores = wcad_scores(
        series, window, paa_per_window=paa_per_window, alphabet_size=alphabet_size
    )
    order = np.argsort(-scores, kind="stable")[:num_anomalies]
    return [
        Anomaly(
            start=int(i) * window,
            end=(int(i) + 1) * window,
            score=float(scores[i]),
            rank=rank,
            source="wcad",
        )
        for rank, i in enumerate(order)
    ]
