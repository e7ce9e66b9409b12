"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

import repro.cli
import repro.io
from repro import _cbuild
from repro.cli import _load_series, _render_curve, build_parser, main
from repro.datasets import sine_with_anomaly
from repro.datasets.ecg import ecg_record_like
from repro.datasets.respiration import respiration_like
from repro.exceptions import ReproError
from repro.grammar import ccore
from repro.sax import saxcore
from repro.timeseries import eq1core


@pytest.fixture
def series_file(tmp_path):
    ds = sine_with_anomaly(length=1200, period=80, anomaly_start=600,
                           anomaly_length=80, anomaly_kind="bump", seed=3)
    path = tmp_path / "series.csv"
    np.savetxt(path, ds.series)
    return str(path)


@pytest.fixture
def two_column_file(tmp_path):
    data = np.column_stack([np.arange(100.0), np.sin(np.arange(100.0))])
    path = tmp_path / "two.csv"
    np.savetxt(path, data)
    return str(path)


class TestLoadSeries:
    def test_single_column(self, series_file):
        series = _load_series(series_file, 0)
        assert series.size == 1200

    def test_column_selection(self, two_column_file):
        col1 = _load_series(two_column_file, 1)
        np.testing.assert_allclose(col1, np.sin(np.arange(100.0)), atol=1e-6)

    def test_missing_file(self):
        with pytest.raises(ReproError):
            _load_series("/nonexistent/file.csv", 0)

    def test_bad_column(self, two_column_file):
        with pytest.raises(ReproError):
            _load_series(two_column_file, 5)

    def test_single_value_file(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("42\n")
        np.testing.assert_array_equal(_load_series(str(path), 0), [42.0])

    def test_ragged_file_is_a_repro_error(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ReproError, match="cannot parse"):
            _load_series(str(path), 0)

    def test_unparsable_cells_fall_back_to_genfromtxt(self, tmp_path):
        """Cells ``np.loadtxt`` rejects become NaN via ``np.genfromtxt``
        and are dropped, exactly as before the fast path existed."""
        path = tmp_path / "dirty.txt"
        path.write_text("1.5\nn/a\n2.5\n\n3e2\n")
        np.testing.assert_array_equal(_load_series(str(path), 0), [1.5, 2.5, 300.0])
        kept = _load_series(str(path), 0, keep_nonfinite=True)
        assert kept.size == 4 and np.isnan(kept[1])

    def test_fast_path_equals_genfromtxt(self, series_file, two_column_file):
        for path, column in ((series_file, 0), (two_column_file, 1)):
            data = np.genfromtxt(path, delimiter=None, dtype=float)
            expected = data if data.ndim == 1 else data[:, column]
            np.testing.assert_array_equal(_load_series(path, column), expected)

    def test_shared_with_io_load_series(self, two_column_file):
        from repro.io import load_series

        np.testing.assert_array_equal(
            load_series(two_column_file, column=1), _load_series(two_column_file, 1)
        )


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in (["demo"], ["table1"], ["find", "x.csv"], ["density", "x.csv"]):
            args = parser.parse_args(cmd)
            assert callable(args.func)

    def test_sax_defaults(self):
        args = build_parser().parse_args(["find", "x.csv"])
        assert (args.window, args.paa, args.alphabet) == (100, 4, 4)


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Anomalies:" in out

    def test_find_runs(self, series_file, capsys):
        code = main(["find", series_file, "-w", "40", "-p", "4", "-a", "4", "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rra" in out

    def test_density_outputs_one_value_per_point(self, series_file, capsys):
        assert main(["density", series_file, "-w", "40"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1200

    def test_density_output_is_one_int_per_line(self, series_file, capsys):
        from repro.core.pipeline import GrammarAnomalyDetector

        assert main(["density", series_file, "-w", "40"]) == 0
        detector = GrammarAnomalyDetector(40, 4, 4)
        detector.fit(_load_series(series_file, 0))
        expected = "".join(f"{int(v)}\n" for v in detector.density_curve())
        assert capsys.readouterr().out == expected

    def test_density_empty_curve_prints_nothing(self, series_file, capsys, monkeypatch):
        from repro.core.pipeline import GrammarAnomalyDetector

        monkeypatch.setattr(
            GrammarAnomalyDetector, "density_curve", lambda self: np.zeros(0, dtype=int)
        )
        assert main(["density", series_file, "-w", "40"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "text, message",
        [("42\n", "shorter than window"), ("1 2\n3\n", "cannot parse")],
    )
    def test_density_degenerate_files_exit_with_message(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert main(["density", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_error_path_returns_1(self, capsys):
        assert main(["find", "/nonexistent.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", ["require", "off"])
    @pytest.mark.parametrize("paa", ["0", "-1"])
    def test_find_rejects_paa_below_one(
        self, series_file, capsys, monkeypatch, request, gate, paa
    ):
        if gate == "require" and _cbuild._find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_C_CORE", gate)
        for core in (ccore, eq1core, saxcore, repro.io._io_core):
            core.reset_for_testing()
            request.addfinalizer(core.reset_for_testing)
        argv = ["find", series_file, "-w", "50", "-p", paa, "-a", "4"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: PAA size must be in [1, 50], got {paa}\n"

    def test_table1_single_row(self, capsys):
        assert main(["table1", "--only", "ecg_qtdb_0606"]) == 0
        out = capsys.readouterr().out
        assert "ECG 0606" in out

    def test_find_accepts_workers_1(self, series_file, capsys):
        argv = ["find", series_file, "-w", "40", "-p", "4", "-a", "4", "-k", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--workers", "1"]) == 0
        assert capsys.readouterr().out == plain

    def test_find_rejects_workers_2(self, series_file, capsys):
        """The discord search runs in one process: asking for more is an
        argparse error, not a silent serial run."""
        with pytest.raises(SystemExit) as exc:
            main(["find", series_file, "-w", "40", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers: invalid choice: 2" in capsys.readouterr().err

    def test_find_accepts_backend_kernel(self, series_file, capsys):
        argv = ["find", series_file, "-w", "40", "-p", "4", "-a", "4", "-k", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--backend", "kernel"]) == 0
        assert capsys.readouterr().out == plain

    def test_find_rejects_backend_batch(self, series_file, capsys):
        """The kernel path is the only distance path: naming another is
        an argparse error, not a silent kernel run."""
        with pytest.raises(SystemExit) as exc:
            main(["find", series_file, "-w", "40", "--backend", "batch"])
        assert exc.value.code == 2
        assert "--backend: invalid choice: 'batch'" in capsys.readouterr().err

    def test_motifs_command(self, series_file, capsys):
        assert main(["motifs", series_file, "-w", "40", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "R" in out

    def test_suggest_command(self, series_file, capsys):
        assert main(["suggest", series_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "dominant period" in out
        assert "score" in out


def _reference_render(curve) -> str:
    return "\n".join(map(str, curve.tolist())) + "\n"


class TestDensityRender:
    """The run-length render is byte-equal to one ``str`` per point."""

    @pytest.mark.parametrize(
        "curve",
        [
            np.full(1, 0),
            np.full(500, 7),
            np.array([0, 1, 1, 2, 0, 0, 3]),
            np.array([999, 1000, 1000, 1001, 250_000, 3, 3]),
            np.random.default_rng(2).integers(0, 1500, size=2000),
        ],
    )
    def test_equals_str_per_point(self, curve):
        assert _render_curve(curve) == _reference_render(curve)

    def test_empty_curve_renders_nothing(self):
        assert _render_curve(np.zeros(0, dtype=np.int64)) == ""

    @pytest.mark.parametrize(
        "make, window, paa, alphabet",
        [
            (lambda: respiration_like(length=35_000, seed=43), 128, 5, 4),
            (
                lambda: ecg_record_like(
                    "300", length=100_000, num_anomalies=3, seed=300
                ),
                300, 4, 4,
            ),
        ],
        ids=["respiration_35k", "ecg_100k"],
    )
    def test_generated_curves(self, make, window, paa, alphabet):
        from repro.core.pipeline import GrammarAnomalyDetector

        detector = GrammarAnomalyDetector(window, paa, alphabet)
        detector.fit(make().series)
        curve = detector.density_curve()
        assert curve.size >= 35_000
        assert _render_curve(curve) == _reference_render(curve)


class TestDispatch:
    def test_parser_is_built_once(self, series_file, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            repro.cli, "build_parser", lambda: calls.append(1) or build_parser()
        )
        repro.cli._parser.cache_clear()
        try:
            assert main(["density", series_file, "-w", "40"]) == 0
            assert main(["density", series_file, "-w", "40"]) == 0
        finally:
            repro.cli._parser.cache_clear()
        assert calls == [1]

    def test_handler_patched_after_first_call_is_used(
        self, series_file, capsys, monkeypatch
    ):
        assert main(["density", series_file, "-w", "40"]) == 0
        assert capsys.readouterr().out
        seen = []

        def patched(args):
            seen.append(args.window)
            return 7

        monkeypatch.setattr(repro.cli, "_cmd_density", patched)
        assert main(["density", series_file, "-w", "40"]) == 7
        assert seen == [40]
        assert capsys.readouterr().out == ""
