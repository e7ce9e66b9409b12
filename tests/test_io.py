"""Tests for repro.io — series/dataset/result I/O."""

from __future__ import annotations

import gzip
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.io
from repro import _cbuild
from repro.core.anomaly import Anomaly, Discord
from repro.datasets import sine_with_anomaly
from repro.exceptions import DatasetError, ReproError
from repro.io import (
    anomalies_from_json,
    anomalies_to_json,
    load_dataset,
    load_series,
    load_ucr,
    read_series,
    save_dataset,
    save_series,
    ucr_to_series,
)

SRC = Path(__file__).resolve().parents[1] / "src"

needs_core = pytest.mark.skipif(
    _cbuild._gate() == "off" or repro.io._io_core.load() is None,
    reason="the reader's C core is unavailable",
)


def _core_off():
    """Run the body with the reader's C core unavailable."""
    return mock.patch.object(repro.io._io_core, "load", lambda: None)


def _outcome(path, **kwargs):
    """``read_series``'s values (bits) or its error message."""
    try:
        return read_series(path, keep_nonfinite=True, **kwargs).tobytes()
    except ReproError as exc:
        return str(exc)


@pytest.fixture(params=["core", "no core"])
def gate(request):
    """Each test body once with the reader's C core and once without."""
    if request.param == "no core":
        with _core_off():
            yield request.param
    else:
        yield request.param


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


class TestCsv:
    def test_two_column_csv(self, tmp_path, gate):
        path = tmp_path / "two.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_series(path, column=0), [1.0, 3.0])
        np.testing.assert_array_equal(load_series(path, column=1), [2.0, 4.0])

    def test_dirty_csv_cell_becomes_nan(self, tmp_path, gate):
        path = tmp_path / "dirty.csv"
        path.write_text("1.0, 2.0\nn/a, 4.0\n5.0, 6.0\n")
        np.testing.assert_array_equal(load_series(path, column=0), [1.0, 5.0])
        np.testing.assert_array_equal(load_series(path, column=1), [2.0, 4.0, 6.0])
        kept = read_series(path, column=0, keep_nonfinite=True)
        assert kept.size == 3 and np.isnan(kept[1])

    def test_comma_in_a_comment_keeps_whitespace_cells(self, tmp_path, gate):
        path = tmp_path / "commented.txt"
        path.write_text("# time, value\n1 2\n3 4\n")
        np.testing.assert_array_equal(load_series(path, column=1), [2.0, 4.0])

    def test_one_column_file_unchanged(self, tmp_path, gate):
        path = tmp_path / "one.txt"
        path.write_text("1.5\n-2\n3e2\n")
        np.testing.assert_array_equal(load_series(path), [1.5, -2.0, 300.0])

    def test_gzip_file(self, tmp_path, gate):
        path = tmp_path / "series.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("1,2\n3,4\n")
        np.testing.assert_array_equal(load_series(path, column=1), [2.0, 4.0])


_FORMATS = ("%.10g", "%.17g", "%.18e", "repr", "%.6f", "%.3e", "%.25g")
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    st.sampled_from([0.0, -0.0, 1.0, 0.1]),
)


@st.composite
def _tables(draw):
    """The text of a random float64 table (1-3 columns) and its values."""
    cols = draw(st.integers(1, 3))
    values = draw(st.lists(
        st.lists(_VALUES, min_size=cols, max_size=cols), min_size=1, max_size=12
    ))
    fmt = draw(st.sampled_from(_FORMATS))
    delimiter = draw(st.sampled_from([" ", "\t", "  ", ",", ", ", " ,"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in values:
        cells = []
        for value in row:
            text = repr(value) if fmt == "repr" else fmt % value
            if not text.startswith("-") and draw(st.booleans()):
                text = "+" + text
            cells.append(text)
        lines.append(delimiter.join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    if draw(st.booleans()):
        lines.insert(0, "")
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestReaderCore:
    """The C core (``_io_core.c``) reads clean files exactly as
    ``np.loadtxt`` does and declines every other file."""

    @needs_core
    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_core_on_equals_core_off(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "table.txt"
        path.write_bytes(text.encode())
        raw = text.encode()
        assert repro.io._parse_table(
            repro.io._io_core.load(), raw, repro.io._delimiter(raw)
        ) is not None
        on = repro.io._read_table(path)
        with _core_off():
            off = repro.io._read_table(path)
        assert on.shape == off.shape and on.tobytes() == off.tobytes()
        for column in range(on.shape[1] if on.ndim == 2 else 1):
            with _core_off():
                want = _outcome(path, column=column)
            assert _outcome(path, column=column) == want

    @needs_core
    @pytest.mark.parametrize(
        "raw",
        [
            b"1.5\nnan\n2.5\n",
            b"1.5\ninf\n",
            b"# header\n1.5\n",
            b"1.5 # note\n",
            b"1_000\n",
            b"1.5\r2.5\r",
            b"1.5\v2.5\n",
            b"1.5\f2.5\n",
            b"1.5\x002.5\n",
            "1.5\n\u00e9\n".encode(),
            b"\xef\xbb\xbf1.5\n",
            b"1 2\n3\n",
            b"1,,2\n",
            b",1\n",
            b"1,2,\n3,4,\n",
            b"1,2\n \n3,4\n",
            b"1 2,3\n",
            b"1 2\n3,4\n",
            b"",
            b"\n \n",
            b"1e\n",
            b"1e+\n",
            b".\n",
            b"+\n",
            b"1.2.3\n",
            b"--1\n",
            b"1-2\n",
            b"1" + b"0" * 600 + b"\n",
        ],
    )
    def test_declined_files_read_as_without_the_core(self, tmp_path, raw):
        assert repro.io._parse_table(
            repro.io._io_core.load(), raw, repro.io._delimiter(raw)
        ) is None
        path = tmp_path / "declined.txt"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with _core_off():
                want = _outcome(path)
            assert _outcome(path) == want

    @needs_core
    def test_core_reads_without_loadtxt(self, tmp_path, monkeypatch):
        """A clean file builds no Python float per value: neither
        ``np.loadtxt`` nor ``np.genfromtxt`` runs."""
        path = tmp_path / "two.txt"
        np.savetxt(path, np.column_stack([np.arange(50.0), np.arange(50.0) / 7]))

        def refuse(*args, **kwargs):
            raise AssertionError("the text fallback ran")

        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(np, "genfromtxt", refuse)
        np.testing.assert_array_equal(read_series(path, column=1), np.arange(50.0) / 7)

    def test_failed_probe_falls_back(self, tmp_path, monkeypatch):
        if _cbuild._find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        core = _cbuild.CCore(
            repro.io._io_core.source, repro.io._bind_core, lambda lib: False
        )
        monkeypatch.setattr(repro.io, "_io_core", core)
        path = tmp_path / "one.txt"
        path.write_text("1.5\n2.5\n")
        monkeypatch.setenv("REPRO_C_CORE", "")
        np.testing.assert_array_equal(read_series(path), [1.5, 2.5])
        assert core.load() is None
        monkeypatch.setenv("REPRO_C_CORE", "require")
        core.reset_for_testing()
        with pytest.raises(_cbuild.CCoreUnavailable, match="parity probe"):
            read_series(path)

    def test_ensemble_workers_do_not_read_or_load(self, tmp_path):
        """The ensemble reads the series in the parent; its forked
        workers neither read a file nor load the reader's core."""
        path = tmp_path / "series.txt"
        save_series(path, sine_with_anomaly(length=600, period=60, seed=2).series)
        log = tmp_path / "pids.log"
        code = (
            "import os, sys\n"
            "import repro.io as rio\n"
            "def logged(fn):\n"
            "    def wrapper(*args):\n"
            f"        with open({str(log)!r}, 'a') as handle:\n"
            "            handle.write(f'{fn.__name__} {os.getpid()}\\n')\n"
            "        return fn(*args)\n"
            "    return wrapper\n"
            "rio._read_table = logged(rio._read_table)\n"
            "rio._io_core._probe = logged(rio._io_core._probe)\n"
            "from repro.cli import main\n"
            f"code = main(['ensemble', {str(path)!r}, '--grid', '40,60:4:3,4',"
            " '--workers', '2'])\n"
            "print('parent', os.getpid())\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        parent = done.stdout.split()[-1]
        calls = log.read_text().split("\n")[:-1]
        assert {line.split()[1] for line in calls} == {parent}
        assert [line.split()[0] for line in calls].count("_read_table") == 1


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
