"""ASCII sparklines and density strips for terminal output."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ParameterError

#: Eight block characters, lowest to highest.
_BLOCKS = "▁▂▃▄▅▆▇█"
#: Shades used by the density strip: light = low density (anomalous).
_SHADES = " ░▒▓█"
#: The cell of a bin whose mean is NaN: there is no value to draw.
_MISSING = "·"


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


def _glyph_row(binned: np.ndarray, glyphs: str, flat: str) -> str:
    """One glyph per bin, on a linear scale from the least finite bin
    (``glyphs[0]``) to the greatest (``glyphs[-1]``).

    A ``-inf`` bin takes ``glyphs[0]``, a ``+inf`` bin ``glyphs[-1]`` and
    a NaN bin :data:`_MISSING`.  When the finite bins span no range they
    all take *flat*.  A range wider than the largest double is scaled by
    its halves, which are exact, so it does not overflow.
    """
    top = len(glyphs) - 1
    finite = np.isfinite(binned)
    values = binned[finite]
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 0.0
    idx = np.where(binned > 0, top, 0)  # the infinite bins' ends
    if hi > lo:
        if np.isinf(hi - lo):
            scaled = (values / 2 - lo / 2) / (hi / 2 - lo / 2)
        else:
            scaled = (values - lo) / (hi - lo)
        idx[finite] = (scaled * top).round().astype(int)
    cells = [glyphs[i] for i in idx.tolist()]
    if not hi > lo:
        for i in np.flatnonzero(finite).tolist():
            cells[i] = flat
    for i in np.flatnonzero(np.isnan(binned)).tolist():
        cells[i] = _MISSING
    return "".join(cells)


def sparkline(values: np.ndarray, width: int = 80) -> str:
    """One-line block-character sparkline of *values*.

    Bins holding ``±inf`` draw as the lowest or highest block and NaN
    bins as :data:`_MISSING`.

    >>> sparkline([0, 1, 2, 3], width=4)
    '▁▃▆█'
    >>> sparkline([0.0, float("inf"), float("nan")], width=3)
    '▁█·'
    """
    binned = _bin_series(np.asarray(values, dtype=float), width)
    return _glyph_row(binned, _BLOCKS, _BLOCKS[0])


def density_strip(curve: np.ndarray, width: int = 80) -> str:
    """Density shading: the darker the cell, the higher the rule count.

    Light/blank cells mark the algorithmically anomalous regions — this
    is the textual equivalent of GrammarViz's blue shading (Figure 12).
    Non-finite bins follow :func:`sparkline`.
    """
    binned = _bin_series(np.asarray(curve, dtype=float), width)
    return _glyph_row(binned, _SHADES, _SHADES[-1])


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
