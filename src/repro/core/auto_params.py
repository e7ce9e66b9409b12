"""Heuristic discretization-parameter suggestion (paper §5.2 + §7).

The paper's guidance: (a) choose the sliding window from the data's
*context* — "the length of a heartbeat in ECG data, a weekly duration in
power consumption data, or an observed phenomenon cycle length in
telemetry"; (b) sensible parameters are the ones under which the
grammar actually captures regularities (Figure 10 relates success to
grammar size and approximation precision).  The paper's future work asks
for exactly this analysis.

This module operationalizes both ideas:

* :func:`dominant_period` estimates the cycle length from the
  autocorrelation function — the "context" seed for the window;
* :func:`grammar_health` scores one (W, P, A) combination from the
  *grammar's own properties*, no ground truth needed:
  numerosity-reduction rate, compression ratio, and coverage;
* :func:`suggest_parameters` sweeps a small grid seeded by the dominant
  period and returns ranked suggestions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.rule_density import rule_density_curve
from repro.exceptions import ParameterError
from repro.grammar.intervals import rule_intervals
from repro.grammar.sequitur import induce_grammar_interned
from repro.sax.discretize import discretize


def dominant_period(
    series: np.ndarray,
    *,
    min_period: int = 4,
    max_period: Optional[int] = None,
) -> Optional[int]:
    """Dominant cycle length via the autocorrelation function.

    Returns the lag of the highest autocorrelation peak in
    ``[min_period, max_period]``, or None when the series shows no
    meaningful periodicity (peak correlation below 0.1).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    n = series.size
    if n < 4 * min_period:
        return None
    if max_period is None:
        max_period = n // 3
    max_period = min(max_period, n // 2)
    if max_period <= min_period:
        return None

    centered = series - series.mean()
    variance = float(np.dot(centered, centered))
    if variance < 1e-12:
        return None
    # FFT-based autocorrelation: O(n log n).
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(centered, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_period + 1]
    acf = acf / variance

    # The ACF is maximal at lag 0 and decays smoothly, so the raw argmax
    # lands right next to 0.  The period is the first *peak after the
    # first zero crossing* (the classic pitch-detection rule).
    negatives = np.nonzero(acf[min_period:] < 0.0)[0]
    search_from = min_period + int(negatives[0]) if negatives.size else min_period
    if search_from > max_period:
        return None
    window = acf[search_from : max_period + 1]
    best_lag = int(np.argmax(window)) + search_from
    if acf[best_lag] < 0.1:
        return None
    return best_lag


@dataclass(frozen=True)
class ParameterSuggestion:
    """One scored (window, paa_size, alphabet_size) combination."""

    window: int
    paa_size: int
    alphabet_size: int
    score: float
    reduction_ratio: float
    compression_ratio: float
    coverage: float

    def as_tuple(self) -> tuple[int, int, int]:
        return self.window, self.paa_size, self.alphabet_size


def grammar_health(
    series: np.ndarray, window: int, paa_size: int, alphabet_size: int
) -> Optional[ParameterSuggestion]:
    """Score one parameter combination from grammar properties alone.

    The score combines three ground-truth-free signals, each mapped to
    [0, 1] with a plateau in its healthy band:

    * **reduction ratio** — numerosity reduction should remove a solid
      majority of raw words (healthy ~0.6–0.97): too little means the
      words flicker with noise, too much means the representation is
      degenerate (everything looks alike);
    * **compression ratio** — tokens / grammar size, capped at 4; the
      grammar must actually compress (>1) for "incompressible"
      subsequences to be meaningful;
    * **coverage** — fraction of points covered by at least one rule;
      regular data under good parameters is almost fully covered.

    Returns None when the combination is invalid for the series.
    """
    series = np.asarray(series, dtype=float)
    if paa_size > window or window >= series.size or window < 2:
        return None
    try:
        disc = discretize(series, window, paa_size, alphabet_size)
    except Exception:
        return None
    if len(disc) < 4:
        return None
    grammar = induce_grammar_interned(disc.token_ids, disc.vocabulary)
    intervals = rule_intervals(grammar, disc)
    curve = rule_density_curve(intervals, series.size)

    reduction = disc.reduction_ratio()
    compression = grammar.compression_ratio()
    coverage = float((curve > 0).mean())

    score = (
        _band(reduction, 0.60, 0.97)
        * _band(min(compression, 4.0) / 4.0, 0.30, 1.00)
        * _band(coverage, 0.85, 1.00)
    )
    return ParameterSuggestion(
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        score=score,
        reduction_ratio=reduction,
        compression_ratio=compression,
        coverage=coverage,
    )


def _band(value: float, lo: float, hi: float) -> float:
    """1.0 inside [lo, hi], falling linearly to 0 outside."""
    if lo <= value <= hi:
        return 1.0
    if value < lo:
        return max(0.0, value / lo)
    return max(0.0, 1.0 - (value - hi) / max(1e-9, 1.0 - hi))


def suggest_parameters(
    series: np.ndarray,
    *,
    windows: Optional[Sequence[int]] = None,
    paa_sizes: Sequence[int] = (3, 4, 5, 6, 8),
    alphabet_sizes: Sequence[int] = (3, 4, 5, 6),
    top_k: int = 5,
) -> list[ParameterSuggestion]:
    """Rank (W, P, A) combinations for *series* by grammar health.

    When *windows* is not given, candidates are derived from the
    dominant autocorrelation period (the paper's "context" rule:
    window ≈ one phenomenon cycle), with fallbacks around n/20 when the
    series is aperiodic.
    """
    series = np.asarray(series, dtype=float)
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    if windows is None:
        period = dominant_period(series)
        if period is not None:
            windows = sorted(
                {
                    max(4, period // 2),
                    max(4, int(period * 0.8)),
                    period,
                    int(period * 1.25),
                }
            )
        else:
            base = max(8, series.size // 20)
            windows = sorted({base // 2, base, base * 2})

    suggestions = []
    for window in windows:
        for paa_size in paa_sizes:
            for alphabet_size in alphabet_sizes:
                suggestion = grammar_health(series, window, paa_size, alphabet_size)
                if suggestion is not None:
                    suggestions.append(suggestion)
    suggestions.sort(
        key=lambda s: (-s.score, -s.compression_ratio, s.window, s.paa_size)
    )
    return suggestions[:top_k]
