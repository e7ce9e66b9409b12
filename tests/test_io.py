"""Tests for repro.io — series/dataset/result I/O."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.anomaly import Anomaly, Discord
from repro.datasets import sine_with_anomaly
from repro.exceptions import DatasetError, ReproError
from repro.io import (
    anomalies_from_json,
    anomalies_to_json,
    load_dataset,
    load_series,
    load_ucr,
    save_dataset,
    save_series,
    ucr_to_series,
)


class TestSeriesRoundTrip:
    def test_save_load(self, tmp_path, rng):
        series = rng.normal(size=200)
        path = tmp_path / "series.txt"
        save_series(path, series)
        loaded = load_series(path)
        np.testing.assert_allclose(loaded, series, rtol=1e-9)

    def test_column_selection(self, tmp_path):
        data = np.column_stack([np.arange(10.0), np.arange(10.0) * 2])
        path = tmp_path / "two.csv"
        np.savetxt(path, data, delimiter=" ")
        np.testing.assert_allclose(load_series(path, column=1),
                                   np.arange(10.0) * 2)

    def test_missing_file(self):
        with pytest.raises(ReproError):
            load_series("/nonexistent.txt")

    @pytest.mark.parametrize("text", ["", "# header only\n"])
    def test_empty_file_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ReproError, match="no numeric data"):
                load_series(path)

    def test_bad_column(self, tmp_path):
        path = tmp_path / "one.txt"
        np.savetxt(path, np.arange(5.0))
        # 1-d file ignores the column argument; 2-d must validate
        data = np.column_stack([np.arange(5.0), np.arange(5.0)])
        path2 = tmp_path / "two.txt"
        np.savetxt(path2, data)
        with pytest.raises(ReproError):
            load_series(path2, column=7)

    def test_save_rejects_2d(self, tmp_path):
        with pytest.raises(ReproError):
            save_series(tmp_path / "x.txt", np.zeros((2, 2)))


class TestUCR:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.ucr"
        path.write_text(text)
        return path

    def test_whitespace_rows(self, tmp_path):
        path = self._write(tmp_path, "1 0.5 0.6 0.7\n2 1.0 1.1 1.2\n")
        rows = load_ucr(path)
        assert [label for label, _ in rows] == [1, 2]
        np.testing.assert_allclose(rows[0][1], [0.5, 0.6, 0.7])

    def test_comma_rows(self, tmp_path):
        path = self._write(tmp_path, "1,0.5,0.6\n")
        rows = load_ucr(path)
        np.testing.assert_allclose(rows[0][1], [0.5, 0.6])

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, "1 1.0 2.0\n\n2 3.0 4.0\n")
        assert len(load_ucr(path)) == 2

    def test_malformed_row(self, tmp_path):
        path = self._write(tmp_path, "1\n")
        with pytest.raises(ReproError):
            load_ucr(path)

    def test_non_numeric(self, tmp_path):
        path = self._write(tmp_path, "1 a b\n")
        with pytest.raises(ReproError):
            load_ucr(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ReproError):
            load_ucr(path)

    def test_to_series_with_truth(self):
        rows = [
            (1, np.zeros(50)),
            (2, np.ones(30)),   # the anomalous class
            (1, np.zeros(40)),
        ]
        dataset = ucr_to_series(rows, anomalous_label=2)
        assert dataset.length == 120
        assert dataset.anomalies == [(50, 80)]

    def test_to_series_empty(self):
        with pytest.raises(DatasetError):
            ucr_to_series([])


class TestDatasetBundle:
    def test_round_trip(self, tmp_path):
        dataset = sine_with_anomaly(length=500, period=50, anomaly_start=200,
                                    anomaly_length=40, seed=5)
        path = tmp_path / "bundle.npz"
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        np.testing.assert_allclose(loaded.series, dataset.series)
        assert loaded.anomalies == dataset.anomalies
        assert loaded.window == dataset.window
        assert loaded.name == dataset.name

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "not.npz"
        np.savez(path, unrelated=np.zeros(3))
        with pytest.raises(ReproError):
            load_dataset(path)

    def test_load_missing(self):
        with pytest.raises(ReproError):
            load_dataset("/nonexistent.npz")


class TestAnomalyJSON:
    def test_round_trip_mixed(self):
        anomalies = [
            Discord(start=10, end=60, score=1.5, rank=0, nn_distance=1.5,
                    rule_id=3),
            Anomaly(start=100, end=120, score=0.5, rank=1, source="density"),
        ]
        payload = anomalies_to_json(anomalies)
        loaded = anomalies_from_json(payload)
        assert isinstance(loaded[0], Discord)
        assert loaded[0].nn_distance == 1.5
        assert loaded[0].rule_id == 3
        assert not isinstance(loaded[1], Discord)
        assert (loaded[1].start, loaded[1].end) == (100, 120)

    def test_invalid_json(self):
        with pytest.raises(ReproError):
            anomalies_from_json("{not json")
