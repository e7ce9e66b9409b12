"""Compile-on-first-use ctypes loader shared by the package's C cores.

Four hot loops have a C implementation next to their Python
reference: Sequitur induction (:mod:`repro.grammar.ccore`), the RRA
inner loop (:mod:`repro.timeseries.eq1core`), the discretize front
half (:mod:`repro.sax.saxcore`) and the series reader
(``_io_core.c``, bound in :mod:`repro.io`).  Each core is one C file.
This module compiles it with whatever C compiler the host already ships
(``cc``/``gcc``/``clang``), caches the shared object keyed by the digest
of the source and the compiler flags, and loads it through ctypes.

The cores are strictly optional: any failure (no compiler, read-only
filesystem, unexpected platform, a failed parity probe) degrades to
``load() -> None`` and the callers run their Python path, which gives
bit-identical results.

Compilation holds an ``fcntl.flock`` on ``.lock`` in the build directory,
so processes that start on an empty cache at the same time (forked
ensemble workers, parallel test runs) compile each source once and never
see a half-written file.

Environment knobs
-----------------
``REPRO_C_CORE=off``
    Never compile or load a C core (pure-Python paths only).
``REPRO_C_CORE=require``
    Raise :class:`CCoreUnavailable` instead of silently falling back, so
    a toolchain regression cannot masquerade as a slow-but-green run.
``REPRO_C_CORE_BUILD_DIR``
    Override the build cache directory (default: ``_build/`` in the
    package directory, falling back to a per-user temp dir when that is
    not writable).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts build unlocked
    fcntl = None

ENV_GATE = "REPRO_C_CORE"
ENV_BUILD_DIR = "REPRO_C_CORE_BUILD_DIR"

#: No fast-math and no FMA contraction: the cores' float arithmetic must
#: round exactly as the NumPy / ``math`` expressions they replace.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class CCoreUnavailable(RuntimeError):
    """Raised when ``REPRO_C_CORE=require`` cannot be honoured."""


def _gate() -> str:
    """The normalized ``REPRO_C_CORE`` value (``""`` when unset)."""
    return os.environ.get(ENV_GATE, "").strip().lower()


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_dirs() -> list[Path]:
    """Candidate cache directories, most preferred first."""
    dirs = []
    override = os.environ.get(ENV_BUILD_DIR)
    if override:
        dirs.append(Path(override))
    dirs.append(Path(__file__).with_name("_build"))
    dirs.append(Path(tempfile.gettempdir()) / f"repro-ccore-{os.getuid()}")
    return dirs


def _compile(compiler: str, source: Path) -> Optional[Path]:
    digest = hashlib.sha256(
        source.read_bytes() + " ".join(CFLAGS).encode()
    ).hexdigest()[:16]
    soname = f"{source.stem.lstrip('_')}-{digest}.so"
    for build_dir in _build_dirs():
        so_path = build_dir / soname
        if so_path.exists():
            return so_path
        # Imported here, not at module level: loading a cached build
        # never starts a process.  Bound before the ``try`` because its
        # ``except`` names it.
        import subprocess

        tmp = so_path.with_name(f".{soname}.{os.getpid()}.tmp")
        try:
            build_dir.mkdir(parents=True, exist_ok=True)
            with open(build_dir / ".lock", "a") as lock:
                if fcntl is not None:
                    fcntl.flock(lock, fcntl.LOCK_EX)
                # Another process may have finished the build while this
                # one waited for the lock.
                if not so_path.exists():
                    subprocess.run(
                        [compiler, *CFLAGS, "-o", str(tmp), str(source), "-lm"],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                    os.replace(tmp, so_path)
            return so_path
        except (OSError, subprocess.SubprocessError):
            try:
                tmp.unlink()
            except OSError:
                pass
            continue
    return None


class CCore:
    """One C source, compiled and bound once per process.

    *bind* sets the ctypes signatures on the loaded library; *probe*,
    when given, runs once after binding and must return True for the
    core to be used.  Either may raise :class:`CCoreUnavailable`.
    *dll* is :class:`ctypes.CDLL` (calls release the GIL) or
    :class:`ctypes.PyDLL` (calls hold it, for a core whose handles
    Python objects share).
    """

    def __init__(
        self,
        source: Path,
        bind: Callable[[ctypes.CDLL], ctypes.CDLL],
        probe: Optional[Callable[[ctypes.CDLL], bool]] = None,
        dll: type = ctypes.CDLL,
    ):
        self.source = source
        self._bind = bind
        self._probe = probe
        self._dll = dll
        self._lock = threading.Lock()
        self._cached: Optional[ctypes.CDLL] = None
        self._attempted = False

    def _load_uncached(self) -> ctypes.CDLL:
        if not self.source.exists():
            raise CCoreUnavailable(f"missing C source: {self.source}")
        compiler = _find_compiler()
        if compiler is None:
            raise CCoreUnavailable("no C compiler (cc/gcc/clang) on PATH")
        so_path = _compile(compiler, self.source)
        if so_path is None:
            raise CCoreUnavailable(f"compiling {self.source.name} failed")
        try:
            lib = self._bind(self._dll(str(so_path)))
        except OSError as exc:
            raise CCoreUnavailable(f"loading {so_path} failed: {exc}") from exc
        if self._probe is not None and not self._probe(lib):
            raise CCoreUnavailable(
                f"{self.source.name} failed its parity probe against the Python path"
            )
        return lib

    def load(self) -> Optional[ctypes.CDLL]:
        """Return the bound library, or None when unavailable.

        The first call outside ``REPRO_C_CORE=off`` compiles (or finds a
        cached build of) the core; the outcome, a failure included, is
        kept for the process lifetime.  A call under ``off`` returns
        None without trying, so a later call under another gate still
        loads the core.  ``REPRO_C_CORE=require`` turns every failure
        into :class:`CCoreUnavailable`.
        """
        with self._lock:
            mode = _gate()
            if not self._attempted and mode != "off":
                self._attempted = True
                try:
                    self._cached = self._load_uncached()
                except CCoreUnavailable:
                    if mode == "require":
                        raise
            elif self._attempted and self._cached is None and mode == "require":
                raise CCoreUnavailable(
                    f"{self.source.name} core unavailable (cached failure)"
                )
            return self._cached

    def reset_for_testing(self) -> None:
        """Drop the cached load result (tests flip the env gate)."""
        with self._lock:
            self._cached = None
            self._attempted = False
