"""Discretization-parameter selection study (paper Section 5.2, Figure 10).

The paper samples the (window, PAA, alphabet) space on a dataset with a
single known true anomaly and records, for each parameter combination,
whether each algorithm recovered it.  Figure 10 plots the success region
in (approximation distance, grammar size) coordinates; the headline
number is that RRA's success region is roughly twice the density
detector's (7100 vs 1460 successful combinations in the paper's sweep).

This module provides the sweep machinery plus the two figure-axis
quantities:

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

from repro.cache import ResultCache, grid_cell_key
from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import GridCellError, ParameterError
from repro.parallel.pool import effective_workers
from repro.sax.discretize import Discretization, windowed_paa
from repro.timeseries.paa import paa
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm


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
    windows.
    """
    if sample_stride < 1:
        raise ParameterError(f"sample_stride must be >= 1, got {sample_stride}")
    windows = sliding_windows(series, window)[::sample_stride]
    if windows.shape[0] == 0:
        raise ParameterError("series shorter than window")
    total = 0.0
    for row in windows:
        normalized = znorm(row)
        means = paa(normalized, paa_size)
        reconstructed = _paa_reconstruct(means, window)
        total += float(np.sqrt(np.sum((normalized - reconstructed) ** 2)))
    return total / windows.shape[0]


def _paa_reconstruct(means: np.ndarray, n: int) -> np.ndarray:
    """Stretch PAA means back to length *n* (piecewise-constant)."""
    w = means.size
    idx = np.minimum((np.arange(n) * w) // n, w - 1)
    return means[idx]


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

    def _cell_key(self, window: int, paa_size: int, alphabet_size: int) -> str:
        """Result-cache key of one sweep cell (includes the study setup)."""
        return grid_cell_key(
            self.series,
            window=window,
            paa_size=paa_size,
            alphabet_size=alphabet_size,
            params={
                "true_anomaly": [int(b) for b in self.true_anomaly],
                "min_overlap": float(self.min_overlap),
            },
        )

    @staticmethod
    def _point_payload(point: GridPoint) -> dict:
        return {
            "window": int(point.window),
            "paa_size": int(point.paa_size),
            "alphabet_size": int(point.alphabet_size),
            "approximation_distance": float(point.approximation_distance),
            "grammar_size": int(point.grammar_size),
            "density_hit": bool(point.density_hit),
            "rra_hit": bool(point.rra_hit),
            "density_hit_enhanced": bool(point.density_hit_enhanced),
        }

    @staticmethod
    def _point_from_payload(payload: dict) -> GridPoint:
        return GridPoint(
            window=int(payload["window"]),
            paa_size=int(payload["paa_size"]),
            alphabet_size=int(payload["alphabet_size"]),
            approximation_distance=float(payload["approximation_distance"]),
            grammar_size=int(payload["grammar_size"]),
            density_hit=bool(payload["density_hit"]),
            rra_hit=bool(payload["rra_hit"]),
            density_hit_enhanced=bool(payload["density_hit_enhanced"]),
        )

    def evaluate_point(
        self,
        window: int,
        paa_size: int,
        alphabet_size: int,
        *,
        approx_distance: Optional[float] = None,
        paa_values: Optional[np.ndarray] = None,
        cache: Optional[ResultCache] = None,
    ) -> Optional[GridPoint]:
        """Evaluate one parameter combination; None when it is invalid
        (window too long for the series, PAA larger than the window, ...).

        ``approx_distance`` and ``paa_values`` accept the per-
        ``(window, paa_size)`` quantities precomputed by
        :meth:`_evaluate_pair`, which are identical for every alphabet
        size and dominate the per-point cost when recomputed.
        *cache* short-circuits the whole cell when an identical one was
        completed before (and stores this one on completion).
        """
        if paa_size > window or window >= self.series.size:
            return None
        cell_key = None
        if cache is not None:
            cell_key = self._cell_key(window, paa_size, alphabet_size)
            payload = cache.get(cell_key)
            if payload is not None:
                return self._point_from_payload(payload)
        detector = GrammarAnomalyDetector(window, paa_size, alphabet_size)
        try:
            fitted = detector.fit(self.series, paa_values=paa_values)
        except Exception:
            return None

        # A cell whose discretization cannot be fitted is an expected
        # invalid grid point (None, above).  A cell that fits but then
        # blows up in the detectors is a genuine bug: re-raise it with
        # the failing triple attached, so one bad cell in a
        # thousand-cell sweep (possibly deep inside a pool worker) is
        # localizable from the exception message alone.
        try:
            # Symmetric criterion: each algorithm's single top-ranked
            # answer must overlap the truth (the paper counts a
            # combination as successful when the algorithm "discovered
            # the anomaly").
            from repro.core.rule_density import find_density_anomalies

            density_paper = [
                (a.start, a.end)
                for a in find_density_anomalies(
                    fitted.density, max_anomalies=1, edge_exclusion=0
                )
            ]
            density_enhanced = [
                (a.start, a.end)
                for a in detector.density_anomalies(max_anomalies=1)
            ]
            rra = detector.discords(num_discords=1)
            rra_found = [(d.start, d.end) for d in rra.discords]

            true_start, true_end = self.true_anomaly
            if approx_distance is None:
                approx_distance = approximation_distance(
                    self.series,
                    window,
                    paa_size,
                    sample_stride=max(1, window // 4),
                )
        except GridCellError:
            raise
        except Exception as exc:
            cell = (int(window), int(paa_size), int(alphabet_size))
            raise GridCellError(
                f"grid cell (window={cell[0]}, paa_size={cell[1]}, "
                f"alphabet_size={cell[2]}) failed: "
                f"{type(exc).__name__}: {exc}",
                cell,
            ) from exc
        point = GridPoint(
            window=window,
            paa_size=paa_size,
            alphabet_size=alphabet_size,
            approximation_distance=approx_distance,
            grammar_size=fitted.grammar.grammar_size(),
            density_hit=_hit(density_paper, true_start, true_end, self.min_overlap),
            rra_hit=_hit(rra_found, true_start, true_end, self.min_overlap),
            density_hit_enhanced=_hit(
                density_enhanced, true_start, true_end, self.min_overlap
            ),
        )
        if cell_key is not None:
            cache.put(cell_key, self._point_payload(point))
        return point

    def _evaluate_pair(
        self,
        window: int,
        paa_size: int,
        alphabet_sizes: Sequence[int],
        *,
        cache: Optional[ResultCache] = None,
    ) -> list[GridPoint]:
        """Evaluate every alphabet size of one ``(window, paa_size)`` pair.

        The approximation distance and the per-window PAA coefficients
        depend only on the pair, so they are computed once here — never
        once per alphabet — and shared across the alphabet loop, both
        serially and as the unit of work one parallel sweep task
        executes.  They are also computed *lazily*: a pair whose cells
        all hit the result cache never discretizes at all.
        """
        if paa_size > window or window >= self.series.size:
            return []
        approx: Optional[float] = None
        paa_values: Optional[np.ndarray] = None
        points: list[GridPoint] = []
        for alphabet_size in alphabet_sizes:
            cell_key = None
            if cache is not None:
                cell_key = self._cell_key(window, paa_size, alphabet_size)
                payload = cache.get(cell_key)
                if payload is not None:
                    points.append(self._point_from_payload(payload))
                    continue
            if paa_values is None:
                approx = approximation_distance(
                    self.series,
                    window,
                    paa_size,
                    sample_stride=max(1, window // 4),
                )
                paa_values = windowed_paa(self.series, window, paa_size)
            point = self.evaluate_point(
                window,
                paa_size,
                alphabet_size,
                approx_distance=approx,
                paa_values=paa_values,
            )
            if point is not None:
                points.append(point)
                if cell_key is not None:
                    cache.put(cell_key, self._point_payload(point))
        return points

    def sweep(
        self,
        windows: Sequence[int],
        paa_sizes: Sequence[int],
        alphabet_sizes: Sequence[int],
        *,
        n_workers: Optional[int] = 1,
        cache=None,
    ) -> list[GridPoint]:
        """Evaluate the full cartesian grid (invalid points skipped).

        ``n_workers > 1`` evaluates one ``(window, paa_size)`` pair per
        pool task (see :mod:`repro.parallel`); the returned points are in
        the same order as the serial sweep.

        *cache* (a :class:`~repro.cache.ResultCache` or a directory
        path) persists each completed cell keyed by series content and
        cell parameters; a repeated sweep — or any sweep whose grid
        overlaps an earlier one over the same series — returns the
        stored :class:`GridPoint` for every hit.  In a parallel sweep
        the hits are resolved in the parent *before* dispatch, so fully
        cached pairs never reach the pool.  The cache is purely
        accelerative: the returned points are identical with or without
        it.
        """
        workers = effective_workers(n_workers)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if workers > 1:
            from repro.parallel.engine import (
                parallel_grid_pairs,
                parallel_grid_sweep,
            )

            if cache is None:
                return parallel_grid_sweep(
                    self, windows, paa_sizes, alphabet_sizes, n_workers=workers
                )
            # Resolve cache hits up front; only the missing cells go to the pool.
            cells: dict[tuple, GridPoint] = {}
            keys: dict[tuple, str] = {}
            pending: list[tuple] = []
            for window in windows:
                for paa_size in paa_sizes:
                    if paa_size > window or window >= self.series.size:
                        continue
                    missing: list[int] = []
                    for alphabet_size in alphabet_sizes:
                        cell = (int(window), int(paa_size), int(alphabet_size))
                        key = self._cell_key(*cell)
                        keys[cell] = key
                        payload = cache.get(key)
                        if payload is not None:
                            cells[cell] = self._point_from_payload(payload)
                        else:
                            missing.append(int(alphabet_size))
                    if missing:
                        pending.append((int(window), int(paa_size), missing))
            if pending:
                for point in parallel_grid_pairs(
                    self, pending, n_workers=workers
                ):
                    cell = (
                        int(point.window),
                        int(point.paa_size),
                        int(point.alphabet_size),
                    )
                    cells[cell] = point
                    cache.put(keys[cell], self._point_payload(point))
            return [
                cells[cell]
                for window in windows
                for paa_size in paa_sizes
                for alphabet_size in alphabet_sizes
                if (
                    cell := (int(window), int(paa_size), int(alphabet_size))
                )
                in cells
            ]
        points: list[GridPoint] = []
        for window in windows:
            for paa_size in paa_sizes:
                points.extend(
                    self._evaluate_pair(
                        window,
                        paa_size,
                        alphabet_sizes,
                        cache=cache,
                    )
                )
        return points

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
