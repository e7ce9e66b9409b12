"""ASCII sparklines and density strips for terminal output."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ParameterError

#: Eight block characters, lowest to highest.
_BLOCKS = "▁▂▃▄▅▆▇█"
#: Shades used by the density strip: light = low density (anomalous).
_SHADES = " ░▒▓█"


def _bin_series(values: np.ndarray, width: int) -> np.ndarray:
    """Downsample *values* to *width* bins by averaging.

    Each bin is bit for bit ``values[lo:hi].mean()``: the bins of one
    length are rows of a window view, summed along the row (the same
    pairwise sum as the slice's) and divided by the length.  An empty
    bin (``width`` above the length) holds the value at its left edge.
    """
    values = np.asarray(values, dtype=float)
    if width <= 0:
        raise ParameterError(f"width must be positive, got {width}")
    if values.size == 0:
        return np.zeros(width)
    edges = np.linspace(0, values.size, width + 1).astype(int)
    starts, lengths = edges[:-1], np.diff(edges)
    binned = values[np.minimum(starts, values.size - 1)]
    # The bins have at most two lengths, so this is one or two passes.
    for length in set(lengths.tolist()) - {0}:
        of_length = lengths == length
        rows = sliding_window_view(values, length)[starts[of_length]]
        binned[of_length] = rows.sum(axis=1) / length
    return binned


def sparkline(values: np.ndarray, width: int = 80) -> str:
    """One-line block-character sparkline of *values*.

    >>> sparkline([0, 1, 2, 3], width=4)
    '▁▃▆█'
    """
    binned = _bin_series(np.asarray(values, dtype=float), width)
    lo = float(binned.min())
    hi = float(binned.max())
    if not hi > lo:
        return _BLOCKS[0] * width
    idx = ((binned - lo) / (hi - lo) * (len(_BLOCKS) - 1)).round().astype(int)
    return "".join(_BLOCKS[i] for i in idx)


def density_strip(curve: np.ndarray, width: int = 80) -> str:
    """Density shading: the darker the cell, the higher the rule count.

    Light/blank cells mark the algorithmically anomalous regions — this
    is the textual equivalent of GrammarViz's blue shading (Figure 12).
    """
    binned = _bin_series(np.asarray(curve, dtype=float), width)
    lo = float(binned.min())
    hi = float(binned.max())
    if not hi > lo:
        return _SHADES[-1] * width
    idx = ((binned - lo) / (hi - lo) * (len(_SHADES) - 1)).round().astype(int)
    return "".join(_SHADES[i] for i in idx)


def marker_line(
    series_length: int, intervals: list[tuple[int, int]], width: int = 80, mark: str = "^"
) -> str:
    """A line with *mark* under every (scaled) interval, space elsewhere."""
    if series_length <= 0:
        raise ParameterError("series_length must be positive")
    cells = [" "] * width
    for start, end in intervals:
        lo = int(start / series_length * width)
        hi = max(lo + 1, int(np.ceil(end / series_length * width)))
        for i in range(lo, min(hi, width)):
            cells[i] = mark
    return "".join(cells)


def render_panels(
    series: np.ndarray,
    curve: np.ndarray,
    anomalies: list[tuple[int, int]],
    *,
    width: int = 80,
    title: str = "",
) -> str:
    """Three-panel text figure: series, rule density, anomaly markers.

    The textual analogue of the paper's Figures 1–3: top panel the data,
    middle panel the rule density curve, bottom the detected anomalies.
    """
    lines = []
    if title:
        lines.append(title)
    lines.append("series  | " + sparkline(series, width))
    lines.append("density | " + density_strip(curve, width))
    lines.append("anomaly | " + marker_line(len(series), anomalies, width))
    return "\n".join(lines)
