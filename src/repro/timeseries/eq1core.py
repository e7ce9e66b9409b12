"""ctypes binding for the RRA rank C core (``_eq1_core.c``).

One C call runs a stretch of outer candidates of one RRA rank (paper
Algorithm 1): for each, the same-rule candidates and then the lazily
drawn random tail of its inner loop, the paper line-7 self-match skip,
the Eq. 1 pair distance, early abandoning and the nearest-neighbour and
best-so-far updates.  A lower bound lets it skip the pairs and alignment
offsets that provably cannot change the answer (DESIGN.md §20).  The
core also builds the candidate table (z-normalized values, norms,
squared cumulative sums) from the series' centred prefix sums.  The
rank loop (:func:`repro.discord.search.rank_search`) returns to Python
only at its boundaries (DESIGN.md §16).

The cross terms call the ILP64 ``cblas_ddot`` that ``np.dot`` and
``np.correlate`` call, resolved from the BLAS library the running NumPy
already mapped, so the floats do not change, and the tail is
:mod:`repro.discord.inner_order`'s, draw for draw.
:mod:`repro._cbuild` compiles the source on first use.  On first load a
parity probe compares the core with
:meth:`repro.core.rra._CandidateSet.pair_distance` and with
:mod:`~repro.discord.inner_order`'s keys, draws and tails; a missing
symbol, a missing compiler or a failed probe makes :func:`load` return
None (``REPRO_C_CORE=require`` raises instead), and RRA runs its Python
loop.
"""

from __future__ import annotations

import ctypes
import math
import os
from pathlib import Path

import numpy as np

from repro._cbuild import CCore, CCoreUnavailable
from repro.exceptions import ParameterError
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD

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
    lib.eq1_add_spans.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr, f64]
    lib.eq1_add_spans.restype = i64
    lib.eq1_distance.argtypes = [ptr, i64, i64]
    lib.eq1_distance.restype = f64
    lib.eq1_scan.argtypes = [ptr, i64, ptr, i64, f64, ptr, ptr, ptr]
    lib.eq1_scan.restype = ctypes.c_int
    u64 = ctypes.c_uint64
    lib.eq1_key.argtypes = [u64, u64, u64]
    lib.eq1_key.restype = u64
    lib.eq1_draw.argtypes = [ptr, u64]
    lib.eq1_draw.restype = u64
    lib.eq1_tail.argtypes = [ptr, i64, ptr, i64, u64, i64, ptr]
    lib.eq1_tail.restype = i64
    lib.eq1_rank.argtypes = [ptr, i64, ptr, ptr, ptr, ptr, ptr, u64, u64, i64, i64, i64,
                             ptr, ptr, ptr, ptr, ptr, ptr]
    lib.eq1_rank.restype = i64
    lib.eq1_parked.argtypes = []
    lib.eq1_parked.restype = i64
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
        #: Pair distances and alignment offsets :meth:`nearest` computed.
        self.work = np.zeros(2, dtype=np.int64)

    def __del__(self):
        if getattr(self, "handle", None):
            self._free(self.handle)
            self.handle = None

    def add_spans(self, spans: list[tuple[int, int]], stats) -> int:
        """Build the table entries of *spans* from *stats*' centred prefix
        sums (a :class:`~repro.timeseries.kernels.SeriesStats`) in one
        call; return the first id (the rest follow)."""
        starts, ends = np.asarray(spans, dtype=np.int64).reshape(-1, 2).T.copy()
        bad = np.flatnonzero((starts < 0) | (ends <= starts) | (ends > stats.series.size))
        if bad.size:
            raise ParameterError(
                f"interval [{starts[bad[0]]}, {ends[bad[0]]}) out of bounds for "
                f"series of length {stats.series.size}"
            )
        cumsum, sq_cumsum = stats.cumsums
        first = self.lib.eq1_add_spans(
            self.handle, len(spans), starts.ctypes.data, ends.ctypes.data,
            stats.centred.ctypes.data, cumsum.ctypes.data, sq_cumsum.ctypes.data,
            DEFAULT_FLATNESS_THRESHOLD,
        )
        if first < 0:
            raise MemoryError("eq1 core: allocation failed")
        return first

    def distance(self, a: int, b: int) -> float:
        """The core's memoized Eq. 1 distance between two ids."""
        return self.lib.eq1_distance(self.handle, a, b)

    def nearest(self, p: int, ids: np.ndarray) -> tuple[float, int]:
        """Nearest distance from *p* to its non-self matches among the
        int64 *ids*, and the number of pairs visited."""
        nearest, calls = ctypes.c_double(), ctypes.c_int64()
        self.lib.eq1_scan(
            self.handle, p, ids.ctypes.data, ids.size, 0.0,
            ctypes.addressof(nearest), ctypes.addressof(calls), self.work.ctypes.data,
        )
        return nearest.value, calls.value

    def tail(self, n: int, group: np.ndarray, key: int, take: int) -> np.ndarray:
        """The first *take* positions of the core's lazy tail of *key*
        over *n* candidates less the ascending int64 *group*: what
        :class:`repro.discord.inner_order.TailOrder` yields."""
        group = np.ascontiguousarray(group, dtype=np.int64)
        if not 0 <= take <= n - group.size:
            raise ParameterError(f"take must be in [0, {n - group.size}], got {take}")
        out = np.empty(take, dtype=np.int64)
        if self.lib.eq1_tail(
            self.handle, n, group.ctypes.data, group.size, key, take, out.ctypes.data
        ) < 0:
            raise MemoryError("eq1 core: allocation failed")
        return out


class RankRun:
    """The core calls of one RRA rank over one candidate list.

    *ids* and *keys* are the candidates' table ids and rule keys (-1 for
    gaps) and *outer* their outer order, all int64; *seed* and *rank* key
    the inner loops' random tails.  The rank's key index is built here,
    once: the candidate positions sorted by key (stable, so ascending
    within a key) and each candidate's range of same-key positions in
    that list, empty for a gap, which is also the group its tail leaves
    out.  Each RRA rank (:func:`repro.core.rra._rra_rank`) owns
    one, with its own out-parameters, so threads that share one
    candidate set's tables share only what the core touches while it
    holds the GIL.  It is the stretch runner of
    :func:`repro.discord.search.rank_search`.
    """

    #: Most outer candidates one call may run.
    MAX_OUTERS = 64

    def __init__(self, tables: Eq1Tables, ids: np.ndarray, keys: np.ndarray,
                 outer: np.ndarray, seed: int, rank: int):
        same = np.argsort(keys, kind="stable")
        grouped = keys[same]
        lo = np.searchsorted(grouped, keys, "left")
        hi = np.where(keys < 0, lo, np.searchsorted(grouped, keys, "right"))
        index = tuple(np.ascontiguousarray(a, dtype=np.int64) for a in (same, lo, hi))
        self._keep = (tables, ids, index, outer)  # the handle and pointers stay valid
        self._rank = tables.lib.eq1_rank
        self._args = (
            tables.handle, ids.size, ids.ctypes.data,
            *(a.ctypes.data for a in index), outer.ctypes.data, seed, rank,
        )
        self.calls = ctypes.c_int64()
        self._best_dist, self._best = ctypes.c_double(), ctypes.c_int64()
        #: Per outer candidate of the last call: 1 when it was abandoned,
        #: 2 when it became the best, else 0; and its pairs.
        self.flags = np.zeros(self.MAX_OUTERS, dtype=np.int8)
        self.outer_calls = np.zeros(self.MAX_OUTERS, dtype=np.int64)
        #: Pair distances and alignment offsets the calls computed: the
        #: physical work behind :attr:`calls`, less what the bounds skip.
        self.work = np.zeros(2, dtype=np.int64)
        self._outs = tuple(
            ctypes.addressof(v) for v in (self._best_dist, self._best, self.calls)
        ) + (self.flags.ctypes.data, self.outer_calls.ctypes.data, self.work.ctypes.data)

    def __call__(
        self, first: int, stop: int, calls_left: int, best_dist: float
    ) -> tuple[int, float, int]:
        """Run outer positions ``first`` up to *stop* (at most
        :attr:`MAX_OUTERS`); ``(end, best_dist, best)``.

        The run ends before *stop* at the first later boundary where its
        pairs reach *calls_left*.  *best* is the outer position of a new
        best, else -1.  The visited pairs are added to :attr:`calls`, the
        computed pairs and offsets to :attr:`work`, and the per-candidate
        outcomes written to :attr:`flags` and :attr:`outer_calls`.
        """
        self._best_dist.value = best_dist
        self._best.value = -1
        end = self._rank(
            *self._args, first, min(stop, first + self.MAX_OUTERS), calls_left, *self._outs,
        )
        if end < 0:
            raise MemoryError("eq1 core: allocation failed")
        return end, self._best_dist.value, self._best.value

    def take_calls(self) -> int:
        """Read :attr:`calls` and reset it to zero."""
        calls = self.calls.value
        self.calls.value = 0
        return calls

    def take_work(self) -> list[int]:
        """Read :attr:`work` and reset it to zero."""
        work = self.work.tolist()
        self.work[:] = 0
        return work


def _probe(lib: ctypes.CDLL) -> bool:
    """True when the core reproduces ``pair_distance`` bit for bit and
    :mod:`~repro.discord.inner_order`'s keys, draws and tails exactly.

    The pairs cover the unrolled small-kernel correlate (short length
    ≤ 11), the BLAS one, equal lengths, a flat (unscaled) window, both
    argument orders, memo hits and offsets pruned by the bound.  The
    scans run over repeated integer-level motifs: the bound is tight on
    them and the distances are near-ties, so pairs are skipped and
    offsets pruned at the margin, against the pair's minimum and against
    the scan's nearest (DESIGN.md §20); every pair's distance is then
    read back from the memo those scans left.  The draws cover bounds
    from 1 to ``2**64 - 1``, those above ``2**63`` rejecting about half
    their raw draws, and compare the stream state afterwards; the tails
    cover no, one and many group members, and are drained in full.
    """
    from repro.core.rra import _CandidateSet
    from repro.discord import inner_order
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
    rng = np.random.default_rng(5)
    motif = rng.integers(0, 4, size=24)
    levels = np.concatenate([motif + (rng.random(24) < 0.05) for _ in range(8)])
    ties = np.repeat(levels.astype(float), 2)
    spans = zip(rng.integers(0, 136, size=12) * 2, rng.choice([64, 80, 96, 112], size=12))
    intervals = [RuleInterval(0, int(s), int(s + n), usage=1) for s, n in spans]
    reference = _CandidateSet(ties, core=False)
    fast = _CandidateSet(ties, core=lib)
    ids = fast.idents(intervals)
    for p, p_id in zip(intervals, ids.tolist()):
        want = min(
            (reference.pair_distance(p, q) for q in intervals
             if abs(p.start - q.start) > p.length),
            default=math.inf,
        )
        if want.hex() != fast.tables.nearest(p_id, ids)[0].hex():
            return False
    # A pair the scans proved to be at least their nearest yields no
    # distance and must not be memoized as one: every read is exact.
    for p, p_id in zip(intervals, ids.tolist()):
        for q, q_id in zip(intervals, ids.tolist()):
            if reference.pair_distance(p, q).hex() != fast.tables.distance(p_id, q_id).hex():
                return False
    for seed, rank, k in ((0, 0, 0), (2**64 - 1, 3, 17), (12345, 2**40, 2**63)):
        if lib.eq1_key(seed, rank, k) != inner_order.inner_key(seed, rank, k):
            return False
    state = ctypes.c_uint64()
    for n in (1, 2, 3, 1000, 2**32 - 1, 2**32 + 1, 3 * 2**62, 2**63 + 1, 2**64 - 1):
        state.value = want_state = inner_order.inner_key(7, 0, n)
        for _ in range(16):
            want, want_state = inner_order.draw_below(want_state, n)
            got = lib.eq1_draw(ctypes.addressof(state), n)
            if got != want or state.value != want_state:
                return False
    members = np.flatnonzero(rng.random(300) < 0.4)
    for n, group in ((0, []), (1, []), (1, [0]), (6, [0, 5]), (40, [3, 4, 9, 39]),
                     (300, members.tolist())):
        key = inner_order.inner_key(n, len(group), 5)
        want = list(inner_order.TailOrder(n, group, key))
        if fast.tables.tail(n, np.asarray(group), key, len(want)).tolist() != want:
            return False
    return True


# PyDLL: a core call holds the GIL, so two threads sharing one
# candidate set never run its tables and memo concurrently;
# out-parameters belong to one call or one RankRun.
_core = CCore(_SOURCE, _bind, _probe, dll=ctypes.PyDLL)
load = _core.load
reset_for_testing = _core.reset_for_testing
