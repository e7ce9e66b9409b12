"""Tests for repro.core.parameter_grid (the Figure 10 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameter_grid import (
    GridPoint,
    ParameterGridStudy,
    _hit,
    _paa_reconstruct,
    approximation_distance,
)
from repro.datasets import sine_with_anomaly
from repro.exceptions import ParameterError


@pytest.fixture(scope="module")
def bump():
    return sine_with_anomaly(
        length=1500, period=100, anomaly_start=700, anomaly_length=90,
        anomaly_kind="bump", noise=0.03, seed=11,
    )


class TestApproximationDistance:
    def test_finer_paa_smaller_error(self, bump):
        coarse = approximation_distance(bump.series, 100, 3, sample_stride=25)
        fine = approximation_distance(bump.series, 100, 20, sample_stride=25)
        assert fine < coarse

    def test_identity_paa_zero_error(self, bump):
        # w == n reconstructs exactly
        err = approximation_distance(bump.series, 50, 50, sample_stride=50)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_invalid_stride(self, bump):
        with pytest.raises(ParameterError):
            approximation_distance(bump.series, 50, 5, sample_stride=0)

    def test_series_too_short(self):
        with pytest.raises(ParameterError):
            approximation_distance(np.zeros(10), 20, 4)


class TestPaaReconstruct:
    def test_divisible(self):
        means = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            _paa_reconstruct(means, 4), [1.0, 1.0, 2.0, 2.0]
        )

    def test_non_divisible_lengths(self):
        out = _paa_reconstruct(np.array([1.0, 2.0, 3.0]), 7)
        assert out.size == 7
        assert out[0] == 1.0 and out[-1] == 3.0


class TestHitHelper:
    def test_overlap_relative_to_shorter(self):
        # short found interval fully inside long truth counts as a hit
        assert _hit([(100, 110)], 50, 300, 0.5)
        assert not _hit([(0, 40)], 50, 300, 0.5)


class TestStudy:
    def test_invalid_truth(self, bump):
        with pytest.raises(ParameterError):
            ParameterGridStudy(bump.series, (900, 100))

    def test_evaluate_point_invalid_combo_none(self, bump):
        study = ParameterGridStudy(bump.series, bump.anomalies[0])
        assert study.evaluate_point(50, 60, 4) is None  # paa > window
        assert study.evaluate_point(5000, 4, 4) is None  # window > series

    def test_evaluate_point_fields(self, bump):
        study = ParameterGridStudy(bump.series, bump.anomalies[0])
        point = study.evaluate_point(100, 5, 4)
        assert isinstance(point, GridPoint)
        assert point.grammar_size > 0
        assert point.approximation_distance > 0

    def test_good_parameters_hit(self, bump):
        # Not every combination succeeds (that is Figure 10's point);
        # this one is verified to sit inside the success region.
        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        point = study.evaluate_point(50, 4, 4)
        assert point.rra_hit
        # the paper-faithful density detector is edge-sensitive; the
        # enhanced (edge-excluded) variant hits reliably
        assert point.density_hit_enhanced

    def test_sweep_and_counts(self, bump):
        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        points = study.sweep(windows=[40, 80], paa_sizes=[4], alphabet_sizes=[3, 4])
        assert 1 <= len(points) <= 4
        counts = ParameterGridStudy.success_counts(points)
        assert counts["total"] == len(points)
        assert 0 <= counts["density_hits"] <= counts["total"]
        assert 0 <= counts["rra_hits"] <= counts["total"]


class TestSweepMemoization:
    def test_one_discretization_pass_per_pair(self, bump, monkeypatch):
        """Varying only the alphabet must not re-run ``windowed_paa``.

        The PAA coefficients depend on ``(window, paa_size)`` alone, so a
        sweep over A alphabet sizes performs exactly one discretization
        pass per valid pair — not one per cell.
        """
        import sys

        import repro.core.parameter_grid as grid_mod
        import repro.sax.discretize  # noqa: F401 - ensure module is loaded

        # ``repro.sax`` re-exports a *function* named ``discretize``,
        # which shadows the submodule on attribute access — go through
        # sys.modules to reach the module itself.
        discretize_mod = sys.modules["repro.sax.discretize"]

        real = discretize_mod.windowed_paa
        calls: list[tuple[int, int]] = []

        def counting(series, window, paa_size, **kwargs):
            calls.append((int(window), int(paa_size)))
            return real(series, window, paa_size, **kwargs)

        # ``discretize`` looks the name up in its module; the grid binds
        # it at import time — patch both, so a per-cell pass would count.
        monkeypatch.setattr(discretize_mod, "windowed_paa", counting)
        monkeypatch.setattr(grid_mod, "windowed_paa", counting)

        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        points = study.sweep(
            windows=[40, 80],
            paa_sizes=[4, 6],
            alphabet_sizes=[3, 4, 5],
        )
        assert points
        expected_pairs = {(40, 4), (40, 6), (80, 4), (80, 6)}
        assert sorted(calls) == sorted(expected_pairs)

    def test_sweep_cache_warm_equals_cold(self, bump, tmp_path):
        from repro.cache import ResultCache

        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        grid = dict(windows=[40, 80], paa_sizes=[4], alphabet_sizes=[3, 4])
        plain = study.sweep(**grid)
        cache = ResultCache(tmp_path / "store")
        cold = study.sweep(**grid, cache=cache)
        assert cold == plain
        warm = study.sweep(**grid, cache=cache)
        assert warm == plain
        assert cache.hits == len(plain)
        # An overlapping, larger grid reuses the stored cells and only
        # computes the new ones.
        wider = study.sweep(
            windows=[40, 80], paa_sizes=[4], alphabet_sizes=[3, 4, 5],
            cache=cache,
        )
        assert all(point in wider for point in plain)

    @pytest.mark.slow
    def test_parallel_sweep_cache_matches_serial(self, bump, tmp_path):
        from repro.cache import ResultCache

        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        grid = dict(windows=[40, 80], paa_sizes=[4], alphabet_sizes=[3, 4])
        plain = study.sweep(**grid)
        cache = ResultCache(tmp_path / "store")
        # Cold parallel sweep populates; warm parallel sweep is answered
        # from the store without dispatching any work.
        cold = study.sweep(**grid, cache=cache, n_workers=2)
        assert cold == plain
        warm = study.sweep(**grid, cache=cache, n_workers=2)
        assert warm == plain
        assert cache.hits >= len(plain)


class TestGridCellError:
    """One bad cell in a sweep must surface with its triple attached.

    Fit failures are expected invalid cells (``None``), but a cell that
    fits and then blows up in a detector is a genuine bug — the old
    behaviour was a bare re-raise with no hint of which of the hundreds
    of cells died.
    """

    def test_post_fit_failure_names_the_triple(self, bump, monkeypatch):
        from repro.core.pipeline import GrammarAnomalyDetector
        from repro.exceptions import GridCellError

        def boom(self, **kwargs):
            raise RuntimeError("synthetic detector failure")

        monkeypatch.setattr(GrammarAnomalyDetector, "discords", boom)
        study = ParameterGridStudy(bump.series, (700, 790))
        with pytest.raises(GridCellError) as excinfo:
            study.evaluate_point(100, 4, 4)
        message = str(excinfo.value)
        assert "window=100" in message
        assert "paa_size=4" in message
        assert "alphabet_size=4" in message
        assert "RuntimeError" in message
        assert excinfo.value.cell == (100, 4, 4)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_sweep_surfaces_the_failing_cell(self, bump, monkeypatch):
        from repro.core.pipeline import GrammarAnomalyDetector
        from repro.exceptions import GridCellError

        original = GrammarAnomalyDetector.discords

        def boom_only_w120(self, **kwargs):
            if self.window == 120:
                raise RuntimeError("synthetic detector failure")
            return original(self, **kwargs)

        monkeypatch.setattr(GrammarAnomalyDetector, "discords", boom_only_w120)
        study = ParameterGridStudy(bump.series, (700, 790))
        with pytest.raises(GridCellError) as excinfo:
            study.sweep([100, 120], [4], [4])
        assert excinfo.value.cell == (120, 4, 4)

    def test_fit_failures_stay_invalid_cells(self, bump):
        # Geometrically impossible cells still come back as None, not
        # as GridCellError: window longer than the series.
        study = ParameterGridStudy(bump.series, (700, 790))
        assert study.evaluate_point(len(bump.series) + 10, 4, 4) is None

    def test_pickle_roundtrip_keeps_cell(self):
        import pickle

        from repro.exceptions import GridCellError

        err = GridCellError("grid cell (window=9, ...) failed", (9, 4, 3))
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, GridCellError)
        assert str(clone) == str(err)
        assert clone.cell == (9, 4, 3)
