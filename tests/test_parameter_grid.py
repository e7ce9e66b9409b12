"""Tests for repro.core.parameter_grid (the Figure 10 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ResultCache
from repro.core.ensemble import EnsembleDetector, ensemble_grid
from repro.core.parameter_grid import (
    GridPoint,
    ParameterGridStudy,
    _hit,
    _paa_reconstruct,
    approximation_distance,
)
from repro.datasets import ecg_subtle_st_like, sine_with_anomaly
from repro.exceptions import ParameterError
from repro.parallel import shutdown
from tests.oracles import approximation_distance_oracle, grid_point_oracle


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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_equals_the_per_window_loop(self, data):
        window = data.draw(st.integers(2, 48), label="window")
        divisors = [p for p in range(1, window + 1) if window % p == 0]
        fractional = [p for p in range(1, window) if window % p]
        shapes = [st.sampled_from(divisors), st.just(window)]
        if fractional:
            shapes.append(st.sampled_from(fractional))
        paa_size = data.draw(st.one_of(shapes), label="paa_size")
        length = window + data.draw(st.integers(0, 120), label="extra")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        kind = data.draw(st.sampled_from(["walk", "flat", "near-flat", "tiny"]))
        if kind == "walk":
            series = rng.standard_normal(length).cumsum()
        elif kind == "flat":
            series = np.full(length, 2.5)
        elif kind == "near-flat":
            # Window stds straddle the flatness threshold (0.01).
            series = 7.0 + 0.01 * rng.standard_normal(length)
        else:
            series = 1e-3 * rng.standard_normal(length)
        stride = data.draw(st.integers(1, window), label="stride")
        got = approximation_distance(series, window, paa_size, sample_stride=stride)
        want = approximation_distance_oracle(
            series, window, paa_size, sample_stride=stride
        )
        assert got.hex() == want.hex()


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

    def test_sweep_after_ensemble_is_answered_from_the_cache(self, bump, tmp_path):
        """A grid cell and an ensemble member with ``num_discords=1``
        share one cache entry."""
        grid = dict(windows=[40, 80], paa_sizes=[4, 6], alphabet_sizes=[3, 4])
        study = ParameterGridStudy(bump.series, bump.anomalies[0], min_overlap=0.3)
        plain = study.sweep(**grid)
        cache = ResultCache(tmp_path / "store")
        members = ensemble_grid(*grid.values())
        EnsembleDetector(members, num_discords=1, cache=cache).fit(bump.series)
        assert cache.hits == 0
        assert study.sweep(**grid, cache=cache) == plain
        assert cache.hits == len(members) == len(plain)

    def test_new_truth_reuses_every_cell(self, bump, tmp_path):
        grid = dict(windows=[40, 80], paa_sizes=[4], alphabet_sizes=[3, 4])
        cache = ResultCache(tmp_path / "store")
        ParameterGridStudy(bump.series, bump.anomalies[0]).sweep(**grid, cache=cache)
        other = ParameterGridStudy(bump.series, (100, 250), min_overlap=0.8)
        assert other.sweep(**grid, cache=cache) == other.sweep(**grid)
        assert cache.hits == 4

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


class TestGridPointOracle:
    """The sweep scores ensemble members; the oracle fits one detector
    per cell.  Both must give the same points."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sweep_equals_per_cell_detectors(self, bump, n_workers):
        ecg = ecg_subtle_st_like()
        cases = [
            (bump.series, bump.anomalies[0], 0.3, [40, 90, 2000], [3, 4, 40]),
            (ecg.series, ecg.anomalies[0], 0.5, [60, 120], [4, 7]),
        ]
        try:
            for series, truth, overlap, windows, paa_sizes in cases:
                study = ParameterGridStudy(series, truth, min_overlap=overlap)
                got = study.sweep(windows, paa_sizes, [3, 5], n_workers=n_workers)
                want = [
                    point
                    for w in windows
                    for p in paa_sizes
                    for a in [3, 5]
                    if (
                        point := grid_point_oracle(
                            series, truth, w, p, a, min_overlap=overlap
                        )
                    )
                    is not None
                ]
                assert got == want
        finally:
            shutdown()


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
