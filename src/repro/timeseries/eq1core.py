"""ctypes binding for the RRA inner-loop C core (``_eq1_core.c``).

One C call runs one outer candidate's whole RRA inner loop (paper
Algorithm 1, lines 5–13): the inner ordering, the paper line-7 self-match
skip, the Eq. 1 pair distance, early abandoning and the nearest-neighbour
update.  The Python loop in :func:`repro.core.rra.find_discord` spends
most of its time in NumPy dispatch on ~44-element temporaries; the core
does the same arithmetic without it.

The cross terms call the ILP64 ``cblas_ddot`` that ``np.dot`` and
``np.correlate`` call, resolved from the BLAS library the running NumPy
already mapped, so the floats do not change.  :mod:`repro._cbuild`
compiles the source on first use.  On first load a parity probe compares
the core with :meth:`repro.core.rra._CandidateSet.pair_distance` bit for
bit; a missing symbol, a missing compiler or a failed probe makes
:func:`load` return None (``REPRO_C_CORE=require`` raises instead), and
RRA runs its Python loop.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Optional

import numpy as np

from repro._cbuild import CCore, CCoreUnavailable

_SOURCE = Path(__file__).with_name("_eq1_core.c")
#: ILP64 ``cblas_ddot`` names, as NumPy wheels (scipy-openblas) and
#: plain ILP64 OpenBLAS builds export them.
_DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_")


def _mapped_blas_paths() -> list[str]:
    """Paths of the already-loaded shared libraries with BLAS in the name."""
    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(None, 5) for line in maps)
            paths = {f[5].strip() for f in fields if len(f) == 6}
    except OSError:
        root = Path(np.__file__).parent
        paths = {
            str(p)
            for p in (*root.parent.glob("numpy.libs/*"), *root.glob(".dylibs/*"))
        }
    return sorted(p for p in paths if "blas" in os.path.basename(p).lower())


def _numpy_ddot() -> int:
    """Address of NumPy's ILP64 ``cblas_ddot``, without loading a new BLAS."""
    for path in _mapped_blas_paths():
        try:
            blas = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except (OSError, AttributeError):
            continue
        for name in _DDOT_SYMBOLS:
            try:
                return ctypes.cast(getattr(blas, name), ctypes.c_void_p).value
            except AttributeError:
                continue
    raise CCoreUnavailable("no ILP64 cblas_ddot in the BLAS NumPy loaded")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.eq1_new.argtypes = [ptr]
    lib.eq1_new.restype = ptr
    lib.eq1_free.argtypes = [ptr]
    lib.eq1_free.restype = None
    lib.eq1_add_many.argtypes = [ptr, i64, ptr, ptr, ptr, ptr]
    lib.eq1_add_many.restype = i64
    lib.eq1_memo_get.argtypes = [ptr, i64, i64, ctypes.POINTER(f64)]
    lib.eq1_memo_get.restype = ctypes.c_int
    lib.eq1_memo_put.argtypes = [ptr, i64, i64, f64]
    lib.eq1_memo_put.restype = None
    lib.eq1_distance.argtypes = [ptr, i64, i64]
    lib.eq1_distance.restype = f64
    lib.eq1_scan.argtypes = [ptr, i64, ptr, i64, ptr, ptr, i64, f64, ptr, ptr]
    lib.eq1_scan.restype = ctypes.c_int
    lib.ddot_address = _numpy_ddot()
    return lib


class Eq1Tables:
    """One C-side candidate table and pair-distance memo.

    Owned by a :class:`repro.core.rra._CandidateSet`; freed with it.
    """

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        self.handle = lib.eq1_new(lib.ddot_address)
        if not self.handle:
            raise MemoryError("eq1 core: allocation failed")
        self._free = lib.eq1_free
        self._out = ctypes.c_double()
        # Out-parameters of :meth:`scan`, passed by address.
        self.nearest = ctypes.c_double()
        self.calls = ctypes.c_int64()
        self._scan = lib.eq1_scan
        self._outs = (ctypes.addressof(self.nearest), ctypes.addressof(self.calls))

    def __del__(self):
        if getattr(self, "handle", None):
            self._free(self.handle)
            self.handle = None

    def add_many(self, starts: list[int], entries: list[tuple]) -> int:
        """Copy intervals' ``(values, sqnorm, sq_cumsum)`` entries into the
        tables in one call; return the first id (the rest follow)."""
        lens = np.asarray([values.size for values, _, _ in entries], dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        sqnorms = np.asarray([sqnorm for _, sqnorm, _ in entries], dtype=float)
        pool = np.concatenate([a for values, _, cumsum in entries for a in (values, cumsum)])
        first = self.lib.eq1_add_many(
            self.handle, len(entries), starts.ctypes.data, lens.ctypes.data,
            sqnorms.ctypes.data, pool.ctypes.data,
        )
        if first < 0:
            raise MemoryError("eq1 core: allocation failed")
        return first

    def memo_get(self, a: int, b: int) -> Optional[float]:
        if self.lib.eq1_memo_get(self.handle, a, b, ctypes.byref(self._out)):
            return self._out.value
        return None

    def memo_put(self, a: int, b: int, distance: float) -> None:
        self.lib.eq1_memo_put(self.handle, a, b, distance)

    def distance(self, a: int, b: int) -> float:
        """The core's memoized Eq. 1 distance between two ids."""
        return self.lib.eq1_distance(self.handle, a, b)

    def scan(
        self, p: int, same: int, n_same: int, rest: int, perm: Optional[int],
        n_rest: int, best_dist: float,
    ) -> bool:
        """Run outer candidate *p*'s inner loop; True when it abandoned.

        *same*, *rest* and *perm* are addresses of int64 arrays (*perm*
        None for the identity): the ids ``same[:n_same]`` come first,
        then ``rest[perm[j]]``.  The nearest distance seen is left in
        :attr:`nearest` and the visited-pair count in :attr:`calls`.
        """
        return self._scan(
            self.handle, p, same, n_same, rest, perm, n_rest, best_dist, *self._outs
        ) == 1

    def take_calls(self) -> int:
        """Read :attr:`calls` and reset it to zero."""
        calls = self.calls.value
        self.calls.value = 0
        return calls


def _probe(lib: ctypes.CDLL) -> bool:
    """True when the core reproduces ``pair_distance`` bit for bit.

    Covers the unrolled small-kernel correlate (short length ≤ 11), the
    BLAS one, equal lengths, a flat (unscaled) window, both argument
    orders and memo hits.
    """
    from repro.core.rra import _CandidateSet
    from repro.grammar.intervals import RuleInterval

    series = np.cumsum(np.random.default_rng(20150323).normal(size=400))
    series[300:340] = series[300]
    spans = [(0, 2), (10, 13), (40, 51), (60, 72), (100, 160), (170, 230),
             (90, 187), (250, 347), (290, 350), (5, 69)]
    intervals = [RuleInterval(0, s, e, usage=1) for s, e in spans]
    reference = _CandidateSet(series, core=False)
    fast = _CandidateSet(series, core=lib)
    for _ in range(2):  # the second pass reads the core's memo
        for p in intervals:
            for q in intervals:
                want = reference.pair_distance(p, q)
                a, b = fast.idents([p, q])
                got = fast.tables.distance(int(a), int(b))
                if want.hex() != got.hex():
                    return False
    return True


# PyDLL: a core call holds the GIL, so two threads sharing one
# candidate set (through a SearchContext) never run its memo and
# out-parameters concurrently.
_core = CCore(_SOURCE, _bind, _probe, dll=ctypes.PyDLL)
load = _core.load
reset_for_testing = _core.reset_for_testing
