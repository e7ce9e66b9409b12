"""Tests for the shared C-core builder (:mod:`repro._cbuild`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.io
from repro import _cbuild
from repro.grammar import ccore
from repro.sax import saxcore
from repro.timeseries import eq1core

SRC = Path(__file__).resolve().parents[1] / "src"

needs_compiler = pytest.mark.skipif(
    _cbuild._find_compiler() is None, reason="no C compiler on PATH"
)

_LOAD_ALL = (
    "import repro.io\n"
    "from repro.grammar import ccore\n"
    "from repro.sax import saxcore\n"
    "from repro.timeseries import eq1core\n"
    "assert None not in (ccore.load(), eq1core.load(), saxcore.load(),\n"
    "                    repro.io._io_core.load())\n"
)


def _env(build_dir: Path, gate: str, path_prefix: str = "") -> dict:
    env = dict(os.environ)
    if path_prefix:
        env["PATH"] = os.pathsep.join([path_prefix, env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    env["REPRO_C_CORE"] = gate
    env["REPRO_C_CORE_BUILD_DIR"] = str(build_dir)
    return env


@needs_compiler
def test_concurrent_first_builds_share_one_object_per_source(tmp_path):
    """Two processes start on an empty build directory at once: both load
    every core, each source is compiled once, and exactly one shared
    object per source digest remains, which a third process loads
    without compiling."""
    build_dir = tmp_path / "build"
    # A ``cc`` shim that logs every compile before running the real one.
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    log = tmp_path / "compiles.log"
    shim = shim_dir / "cc"
    shim.write_text(
        f'#!/bin/sh\necho "$@" >> "{log}"\nexec "{_cbuild._find_compiler()}" "$@"\n'
    )
    shim.chmod(0o755)
    env = _env(build_dir, "require", path_prefix=str(shim_dir))
    procs = [
        subprocess.Popen([sys.executable, "-c", _LOAD_ALL], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    objects = sorted(p.name for p in build_dir.iterdir() if p.name != ".lock")
    assert len(objects) == 4, objects
    stems = sorted(name.split("-")[0] for name in objects)
    assert stems == ["eq1_core", "io_core", "sax_core", "sequitur_core"]
    assert all(name.endswith(".so") for name in objects)
    assert len(log.read_text().splitlines()) == 4
    # A later process loads the cached objects: no compile, and no
    # ``subprocess`` import, which only the compile path needs.
    subprocess.run(
        [sys.executable, "-c",
         _LOAD_ALL + "import sys\nassert 'subprocess' not in sys.modules\n"],
        env=env, check=True, timeout=120,
    )
    assert len(log.read_text().splitlines()) == 4


def test_off_gate_loads_nothing(tmp_path):
    series = tmp_path / "series.txt"
    series.write_text("1.5 2\n-3e2 4\n")
    code = (
        "import repro.io\n"
        "from repro.grammar import ccore\n"
        "from repro.sax import saxcore\n"
        "from repro.timeseries import eq1core\n"
        "assert ccore.load() is None and eq1core.load() is None\n"
        "assert saxcore.load() is None and repro.io._io_core.load() is None\n"
        "from repro.sax.discretize import discretize\n"
        "assert len(discretize(list(range(50)), 10, 2, 3)) == 1\n"
        f"assert repro.io.read_series({str(series)!r}).tolist() == [1.5, -300.0]\n"
    )
    build_dir = tmp_path / "build"
    subprocess.run([sys.executable, "-c", code], env=_env(build_dir, "off"), check=True)
    assert not build_dir.exists()


def test_require_raises_when_the_source_is_missing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_C_CORE", "require")
    core = _cbuild.CCore(tmp_path / "missing.c", lambda lib: lib)
    with pytest.raises(_cbuild.CCoreUnavailable):
        core.load()
    # The failure is cached and still raises under ``require``.
    with pytest.raises(_cbuild.CCoreUnavailable):
        core.load()
    monkeypatch.setenv("REPRO_C_CORE", "")
    core.reset_for_testing()
    assert core.load() is None


@needs_compiler
def test_a_load_skipped_under_off_is_not_cached(monkeypatch):
    """A load under ``REPRO_C_CORE=off`` tries nothing and caches
    nothing: in the same process a later ``require`` loads the core, and
    so does the default gate after an ``off``."""
    for then in ("require", ""):
        core = _cbuild.CCore(eq1core._SOURCE, lambda lib: lib)
        monkeypatch.setenv("REPRO_C_CORE", "off")
        assert core.load() is None
        monkeypatch.setenv("REPRO_C_CORE", then)
        lib = core.load()
        assert lib is not None, then
        monkeypatch.setenv("REPRO_C_CORE", "")
        assert core.load() is lib


def test_require_after_off_reports_the_real_failure(tmp_path, monkeypatch):
    core = _cbuild.CCore(tmp_path / "missing.c", lambda lib: lib)
    monkeypatch.setenv("REPRO_C_CORE", "off")
    assert core.load() is None
    monkeypatch.setenv("REPRO_C_CORE", "require")
    with pytest.raises(_cbuild.CCoreUnavailable, match="missing C source"):
        core.load()


@needs_compiler
def test_failed_parity_probe_falls_back(monkeypatch):
    core = _cbuild.CCore(eq1core._SOURCE, eq1core._bind, lambda lib: False)
    monkeypatch.setenv("REPRO_C_CORE", "")
    assert core.load() is None
    monkeypatch.setenv("REPRO_C_CORE", "require")
    core.reset_for_testing()
    with pytest.raises(_cbuild.CCoreUnavailable, match="parity probe"):
        core.load()


#: Every core's loader, by the name a failure report uses.
CORES = {
    "sequitur": ccore._core,
    "eq1": eq1core._core,
    "sax": saxcore._core,
    "io": repro.io._io_core,
}


@pytest.mark.skipif(
    _cbuild._gate() == "off" or _cbuild._find_compiler() is None,
    reason="the C cores are off or cannot be built on this host",
)
@pytest.mark.parametrize("name", CORES)
def test_core_loads_wherever_it_can_be_built(name, monkeypatch):
    """With a compiler and the gate not ``off``, each core builds, binds
    and passes its parity probe: a regression there fails this test
    instead of turning the core's checks into skips."""
    core = CORES[name]
    monkeypatch.setenv("REPRO_C_CORE", "require")
    core.reset_for_testing()
    try:
        assert core.load() is not None
    except _cbuild.CCoreUnavailable as exc:  # names the failed step or probe
        pytest.fail(f"the {name} core does not load: {exc}")
    finally:
        core.reset_for_testing()


def test_sequitur_loader_keeps_its_entry_points():
    # perfbench/child.py reports ``ccore.load() is not None``.
    assert callable(ccore.load) and callable(ccore.reset_for_testing)
    assert ccore._SOURCE.name == "_sequitur_core.c"


def test_sax_loader_keeps_its_entry_points():
    assert callable(saxcore.load) and callable(saxcore.reset_for_testing)
    assert saxcore._SOURCE.name == "_sax_core.c"


def test_reader_core_keeps_its_source():
    assert callable(repro.io._io_core.load)
    assert repro.io._io_core.source.name == "_io_core.c"
