"""Discretization-parameter selection study (paper Section 5.2, Figure 10).

The paper samples the (window, PAA, alphabet) space on a dataset with a
single known true anomaly and records, for each parameter combination,
whether each algorithm recovered it.  Figure 10 plots the success region
in (approximation distance, grammar size) coordinates; the headline
number is that RRA's success region is roughly twice the density
detector's (7100 vs 1460 successful combinations in the paper's sweep).

A grid cell is an ensemble member (:mod:`repro.core.ensemble`) with one
RRA discord, run by the ensemble's own evaluator, cache and pool
fan-out, then scored against the truth.  This module provides that
scoring plus the two figure-axis quantities:

* **approximation distance** — the per-window Euclidean error between
  the z-normalized window and its PAA-reconstructed approximation,
  averaged over the series (the x-axis of Figure 10);
* **grammar size** — total RHS symbol count of the induced grammar
  (the y-axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.cache import ResultCache
from repro.core.ensemble import EnsembleMember, MemberOutcome, run_members
from repro.core.rule_density import find_density_anomalies
from repro.exceptions import GridCellError, ParameterError
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm_rows

#: Windows per block in :func:`approximation_distance`, which bounds
#: its working set to a few block-by-window matrices.
_DISTANCE_BLOCK = 4096


@dataclass(frozen=True)
class GridPoint:
    """One parameter combination and its outcomes.

    ``density_hit`` uses the paper-faithful density detector (plain
    global minimum, no edge handling) — the algorithm Figure 10
    measures.  ``density_hit_enhanced`` additionally applies this
    library's edge-exclusion improvement (see
    :func:`repro.core.rule_density.find_density_anomalies`), which makes
    the density detector substantially more parameter-robust.
    """

    window: int
    paa_size: int
    alphabet_size: int
    approximation_distance: float
    grammar_size: int
    density_hit: bool
    rra_hit: bool
    density_hit_enhanced: bool = False


def approximation_distance(
    series: np.ndarray,
    window: int,
    paa_size: int,
    *,
    sample_stride: int = 1,
) -> float:
    """Mean Euclidean error of the PAA approximation over all windows.

    Each window is z-normalized, reduced to ``paa_size`` segment means,
    reconstructed by repeating each mean over its segment, and compared
    with the original.  ``sample_stride`` lets large sweeps subsample
    windows.  The windows are processed in row blocks; each row's error
    is computed with a single window's arithmetic, and the errors are
    summed left to right, so the result does not depend on the block
    size.
    """
    if sample_stride < 1:
        raise ParameterError(f"sample_stride must be >= 1, got {sample_stride}")
    windows = sliding_windows(series, window)[::sample_stride]
    if windows.shape[0] == 0:
        raise ParameterError("series shorter than window")
    errors = []
    for lo in range(0, windows.shape[0], _DISTANCE_BLOCK):
        normalized = znorm_rows(windows[lo : lo + _DISTANCE_BLOCK])
        means = paa_batch(normalized, paa_size)
        residual = normalized - _paa_reconstruct(means, window)
        errors.append(np.sqrt(np.sum(residual**2, axis=1)))
    # cumsum adds in order, as a scalar loop would; sum() would not.
    return float(np.cumsum(np.concatenate(errors))[-1]) / windows.shape[0]


def _paa_reconstruct(means: np.ndarray, n: int) -> np.ndarray:
    """Stretch PAA means (the last axis) back to length *n*
    (piecewise-constant)."""
    w = means.shape[-1]
    idx = np.minimum((np.arange(n) * w) // n, w - 1)
    return means[..., idx]


def _hit(
    found: Iterable[tuple[int, int]],
    true_start: int,
    true_end: int,
    min_overlap: float,
) -> bool:
    """True when any found interval overlaps the truth by >= min_overlap.

    Overlap is measured relative to the shorter of the two intervals, so
    a short density interval inside a long true anomaly still counts.
    """
    for start, end in found:
        shorter = min(end - start, true_end - true_start)
        if shorter <= 0:
            continue
        shared = max(0, min(end, true_end) - max(start, true_start))
        if shared / shorter >= min_overlap:
            return True
    return False


class ParameterGridStudy:
    """Sweep (window, PAA, alphabet) and measure anomaly-recovery success.

    Parameters
    ----------
    series:
        The series under study.
    true_anomaly:
        Ground truth as a half-open ``(start, end)`` interval.
    min_overlap:
        Fraction of the shorter interval that must be shared for a
        detection to count as a hit (0.5 by default).
    """

    def __init__(
        self,
        series: np.ndarray,
        true_anomaly: tuple[int, int],
        *,
        min_overlap: float = 0.5,
    ) -> None:
        self.series = np.asarray(series, dtype=float)
        if not 0 <= true_anomaly[0] < true_anomaly[1] <= self.series.size:
            raise ParameterError(f"true anomaly {true_anomaly} out of bounds")
        self.true_anomaly = true_anomaly
        self.min_overlap = min_overlap

    def evaluate_point(
        self, window: int, paa_size: int, alphabet_size: int
    ) -> Optional[GridPoint]:
        """One cell of :meth:`sweep`; None when the cell is skipped
        (window too long for the series, PAA larger than the window, a
        pipeline error, ...)."""
        points = self.sweep([window], [paa_size], [alphabet_size])
        return points[0] if points else None

    def sweep(
        self,
        windows: Sequence[int],
        paa_sizes: Sequence[int],
        alphabet_sizes: Sequence[int],
        *,
        n_workers: Optional[int] = 1,
        cache=None,
    ) -> list[GridPoint]:
        """Evaluate the full cartesian grid (skipped cells left out).

        Each cell is an ensemble member with ``num_discords=1`` and seed
        0, run by :func:`repro.core.ensemble.run_members`: the member's
        pipeline fit and one RRA discord, then scored here against the
        truth.  Cells with ``paa_size > window`` are dropped, and cells
        that come back ``"invalid"`` or ``"error"`` are skipped; any
        other failure raises :class:`~repro.exceptions.GridCellError`
        naming the cell.  ``n_workers > 1`` runs one pool task per cell
        (see :mod:`repro.parallel`).  Points come in grid order, the
        same for any worker count.

        *cache* (a :class:`~repro.cache.ResultCache` or a directory
        path) stores each cell's member evidence under the ensemble's
        member key, so a sweep and an ``EnsembleDetector(grid,
        num_discords=1)`` over the same series answer each other's
        cells.  Scoring happens after the cache, so another truth or
        ``min_overlap`` reuses every entry.  The cache is purely
        accelerative: the points are identical with or without it.
        """
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        members = [
            EnsembleMember(int(w), int(p), int(a))
            for w in windows
            for p in paa_sizes
            if int(p) <= int(w)
            for a in alphabet_sizes
        ]
        outcomes = run_members(
            self.series, members, num_discords=1, n_workers=n_workers, cache=cache
        )
        distances: dict[tuple[int, int], float] = {}
        return [
            self._score(outcome, distances)
            for outcome in outcomes
            if outcome.contributing
        ]

    def _score(
        self, outcome: MemberOutcome, distances: dict[tuple[int, int], float]
    ) -> GridPoint:
        """Judge one cell's member evidence against the truth.

        *distances* memoizes the approximation distance per
        ``(window, paa_size)``, which every alphabet size shares.
        """
        window, paa_size, alphabet_size = outcome.member.triple
        try:
            # Symmetric criterion: each algorithm's single top-ranked
            # answer must overlap the truth (the paper counts a
            # combination as successful when the algorithm "discovered
            # the anomaly").
            density_paper = find_density_anomalies(
                outcome.density, max_anomalies=1, edge_exclusion=0
            )
            density_enhanced = find_density_anomalies(
                outcome.density, max_anomalies=1, edge_exclusion=window
            )
            if (window, paa_size) not in distances:
                distances[window, paa_size] = approximation_distance(
                    self.series,
                    window,
                    paa_size,
                    sample_stride=max(1, window // 4),
                )
        except Exception as exc:
            raise GridCellError.from_exception(outcome.member.triple, exc) from exc

        def hit(found) -> bool:
            return _hit(
                [(a.start, a.end) for a in found], *self.true_anomaly, self.min_overlap
            )

        return GridPoint(
            window=window,
            paa_size=paa_size,
            alphabet_size=alphabet_size,
            approximation_distance=distances[window, paa_size],
            grammar_size=outcome.grammar_size,
            density_hit=hit(density_paper),
            rra_hit=hit(outcome.discords),
            density_hit_enhanced=hit(density_enhanced),
        )

    @staticmethod
    def success_counts(points: Sequence[GridPoint]) -> dict[str, int]:
        """The Figure 10 headline numbers: hits per algorithm."""
        return {
            "total": len(points),
            "density_hits": sum(1 for p in points if p.density_hit),
            "rra_hits": sum(1 for p in points if p.rra_hit),
            "density_hits_enhanced": sum(
                1 for p in points if p.density_hit_enhanced
            ),
        }
