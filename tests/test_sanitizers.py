"""Every C core under AddressSanitizer and UndefinedBehaviorSanitizer.

A child process builds ``_sequitur_core.c``, ``_eq1_core.c``,
``_sax_core.c`` and ``_io_core.c`` with ``-fsanitize=address,undefined``
into a temporary build directory, with the ASan runtime preloaded, and
fuzzes each core against its Python path: Sequitur grammars, the RRA
rank loop (budgets, checkpoint resume, the nearest-neighbour scan, gap
and rule keys through the key index's id lists, the value pool parked
and reused across searches of every size, and repeated integer-level
motifs on which the lower bound skips pairs and prunes offsets at its
margin, against the pair's minimum and the scan's nearest, with
candidates up to the whole series so that the bound's scratch grows,
and whose proved pairs later scans and distance reads revisit), the
core's generator against its Python twin (keys, bounded draws near
2^32, 2^63 and 2^64, and lazy tails over up to 5000 candidates with no,
few or most of them in the group, cut short or drained, from one
stamped scratch that grows and is reused), discretize (random
offsets and scales, flat stretches, fractional segment edges, every
numerosity strategy, words too long to pack into keys) and the series
reader (random byte buffers, each in an exactly sized ``malloc`` block
so that a read past its end is caught, among them buffers that end
mid-token, mid-exponent or after a lone sign, and 10k-digit tokens).
Any sanitizer report aborts the child.  Skipped when the system gcc has
no ``libasan``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_FUZZ = r"""
import ctypes, io, os, sys, tempfile, warnings
import numpy as np
import repro.io
from repro import _cbuild
_cbuild.CFLAGS = _cbuild.CFLAGS + (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
)
_cbuild._find_compiler = lambda: sys.argv[3]  # the gcc whose libasan is preloaded
from repro.core.rra import _CandidateSet, find_discords, nearest_neighbor_distances
from repro.discord import inner_order
from repro.grammar import ccore
from repro.grammar.intervals import RuleInterval
from repro.grammar.sequitur import induce_grammar
from repro.resilience.budget import SearchBudget
from repro.sax import saxcore
from repro.sax.discretize import NumerosityReduction, discretize
from repro.timeseries import eq1core


def gate(value):
    os.environ["REPRO_C_CORE"] = value
    ccore.reset_for_testing()
    eq1core.reset_for_testing()
    saxcore.reset_for_testing()
    repro.io._io_core.reset_for_testing()


def both(run):
    gate("require")
    on = run()
    gate("off")
    off = run()
    assert on == off, (on, off)


def dump(result):
    return (
        [(d.start, d.end, d.score.hex(), d.rule_id) for d in result.discords],
        result.distance_calls, result.status,
    )


fuzz = np.random.default_rng(int(sys.argv[1]))
def words(disc):
    return disc.offsets.tolist(), disc.token_ids.tolist(), disc.vocabulary


# The bound's work over the motif scans: pairs visited and evaluated,
# offsets of the visited pairs and offsets evaluated.
bound_work = np.zeros(4, dtype=np.int64)


def motif_scans(series, intervals):
    gate("require")
    cache = _CandidateSet(series)
    ids = cache.idents(intervals)
    first = []
    for p, p_id in zip(intervals, ids.tolist()):
        first.append(cache.tables.nearest(p_id, ids))
        bound_work[0] += first[-1][1]
        bound_work[2] += sum(
            abs(q.length - p.length) + 1 for q in intervals
            if abs(p.start - q.start) > p.length
        )
    bound_work[[1, 3]] += cache.tables.work
    # Pairs proved against a scan's nearest are not memoized: the same
    # scans again and scans of subsets revisit them with other nearests,
    # and every distance reads back exact.
    assert [cache.tables.nearest(p_id, ids) for p_id in ids.tolist()] == first
    reference = _CandidateSet(series, core=False)
    for _ in range(len(intervals)):
        at = fuzz.permutation(len(intervals))[: int(fuzz.integers(1, len(intervals) + 1))]
        p = int(fuzz.integers(0, len(intervals)))
        want = min(
            (reference.pair_distance(intervals[p], intervals[j]) for j in at
             if abs(intervals[p].start - intervals[j].start) > intervals[p].length),
            default=np.inf,
        )
        got = cache.tables.nearest(int(ids[p]), np.ascontiguousarray(ids[at]))[0]
        assert got.hex() == want.hex(), (got, want)
    for p, a in zip(intervals, ids.tolist()):
        for q, b in zip(intervals, ids.tolist()):
            assert cache.tables.distance(a, b).hex() == reference.pair_distance(p, q).hex()



gate("require")
assert None not in (ccore.load(), eq1core.load(), saxcore.load(), repro.io._io_core.load())
unpacked = 0  # discretize cases with A^P >= 2^62
for trial in range(int(sys.argv[2])):
    tokens = [str(t) for t in fuzz.integers(0, fuzz.integers(2, 6), size=fuzz.integers(0, 400))]
    both(lambda: induce_grammar(tokens))

    window = int(fuzz.integers(2, 60))
    paa = int(fuzz.integers(1, min(window, 10) + 1))
    alphabet = int(fuzz.integers(2, 27))
    if fuzz.random() < 0.25:
        # A^P >= 2^62: too long to pack into keys, so the core gives the
        # letters and the Python path reduces them.
        paa = next(p for p in range(1, 63) if alphabet**p >= 2**62)
        paa += int(fuzz.integers(0, 4))
        window = int(fuzz.integers(paa, paa + 60))
        unpacked += 1
    raw = np.cumsum(fuzz.normal(size=int(fuzz.integers(window, 500))))
    raw = raw * 10.0 ** fuzz.uniform(-3, 3) + fuzz.uniform(-1e6, 1e6)
    if fuzz.random() < 0.3:
        lo = int(fuzz.integers(0, raw.size))
        raw[lo : lo + int(fuzz.integers(1, 2 * window))] = raw[lo]
    for strategy in NumerosityReduction:
        both(lambda: words(discretize(raw, window, paa, alphabet, strategy=strategy)))

    length = int(fuzz.integers(50, 700))
    series = np.cumsum(fuzz.normal(size=length)) + fuzz.uniform(-1e6, 1e6)
    if fuzz.random() < 0.3:
        lo = int(fuzz.integers(0, length - 20))
        series[lo : lo + 20] = series[lo]
    intervals = []
    for _ in range(int(fuzz.integers(1, 40))):
        n = int(fuzz.integers(1, min(length, 150)))
        start = int(fuzz.integers(0, length - n + 1))
        rule = int(fuzz.integers(-2, 6))
        intervals.append(RuleInterval(rule, start, start + n, usage=int(fuzz.integers(0, 4))))
    seed = int(fuzz.integers(0, 2**32))
    max_calls = [None, 0, 1, int(fuzz.integers(1, 300))][trial % 4]

    def search():
        budget = None if max_calls is None else SearchBudget(max_calls=max_calls)
        return dump(find_discords(series, intervals, num_discords=3, seed=seed, budget=budget))

    starve_at, every = int(fuzz.integers(1, 200)), int(fuzz.integers(1, 8))

    def resume():
        path = os.path.join(tempfile.mkdtemp(), "ck.json")
        find_discords(
            series, intervals, num_discords=3, seed=seed,
            budget=SearchBudget(max_calls=starve_at),
            checkpoint_path=path, checkpoint_every=every,
        )
        return dump(find_discords(series, intervals, num_discords=3, seed=seed, resume_from=path))

    both(search)
    both(resume)
    both(lambda: [(iv.start, iv.end, d.hex()) for iv, d in nearest_neighbor_distances(series, intervals)])

    motif = fuzz.integers(0, 4, size=int(fuzz.integers(8, 40))).astype(float)
    series = np.repeat(np.tile(motif, int(fuzz.integers(4, 12))), int(fuzz.choice([1, 2, 4])))
    intervals = []
    for _ in range(int(fuzz.integers(2, 24))):
        n = int(fuzz.integers(2, series.size))
        start = int(fuzz.integers(0, series.size - n + 1))
        rule = int(fuzz.integers(-1, 3))
        intervals.append(RuleInterval(rule, start, start + n, usage=int(fuzz.integers(0, 3))))
    both(search)
    both(lambda: [(iv.start, iv.end, d.hex()) for iv, d in nearest_neighbor_distances(series, intervals)])
    motif_scans(series, intervals)

    gate("require")
    # The lazy tail: keys, bounded draws and tails of the core against
    # the Python twin.  Tails over up to 5000 candidates with no, few or
    # most of them in the group, cut after a random prefix or drained,
    # all from one scratch, which grows with n and is reused by stamps.
    lib = eq1core.load()
    tables = eq1core.Eq1Tables(lib)
    rank, k = int(fuzz.integers(0, 4)), int(fuzz.integers(0, 2**40))
    assert lib.eq1_key(seed, rank, k) == inner_order.inner_key(seed, rank, k)
    for n in (int(fuzz.integers(1, 2**32)), 2**63 + int(fuzz.integers(0, 2**62)), 2**64 - 1):
        state = ctypes.c_uint64(inner_order.inner_key(seed, rank, k))
        want_state = state.value
        for _ in range(8):
            want, want_state = inner_order.draw_below(want_state, n)
            assert lib.eq1_draw(ctypes.addressof(state), n) == want
            assert state.value == want_state
    for _ in range(4):
        size = int(fuzz.integers(0, 5000)) if trial % 2 else 2 ** int(fuzz.integers(0, 13))
        share = (0.0, 0.01, 0.5, 0.99)[int(fuzz.integers(0, 4))]
        group = np.flatnonzero(fuzz.random(size) < share)
        key = inner_order.inner_key(seed, rank, int(fuzz.integers(0, 2**40)))
        want = list(inner_order.TailOrder(size, group, key))
        take = len(want) if fuzz.random() < 0.5 else int(fuzz.integers(0, len(want) + 1))
        assert tables.tail(size, group, key, take).tolist() == want[:take]

assert unpacked > 0
visited, evaluated, offsets, offsets_evaluated = bound_work.tolist()
assert 0 < evaluated < visited and 0 < offsets_evaluated < offsets, bound_work

# Searches of growing and shrinking size in one process: each takes the
# pool the last one parked when it is large enough, else a larger one.
# Under ASan the pool is malloc'd, and parking, reuse and replacement run
# as they do on mapped pools.
def pool_search(length, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=length))
    intervals = [
        RuleInterval(int(rng.integers(-1, 3)), int(s), int(s + n), usage=int(rng.integers(0, 3)))
        for s, n in zip(rng.integers(0, length // 2, size=16), rng.integers(2, length // 2, size=16))
    ]
    return dump(find_discords(series, intervals, num_discords=2, seed=seed))


lengths = [int(n) for n in fuzz.integers(40, 8000, size=24)]
gate("off")
want = [pool_search(n, seed) for seed, n in enumerate(lengths)]
gate("require")
lib, parked = eq1core.load(), []
for seed, n in enumerate(lengths):
    assert pool_search(n, seed) == want[seed], n
    parked.append(lib.eq1_parked())
assert all(parked) and parked == list(np.maximum.accumulate(parked)), parked
assert 1 < len(set(parked)) < len(parked), parked

libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.malloc.argtypes = [ctypes.c_size_t]
libc.free.argtypes = [ctypes.c_void_p]
reader = repro.io._io_core.load()


# io_parse on an exactly sized copy of *data*; None when declined.
def read(data, comma):
    cap = (len(data) + 1) // 2
    buf, out = libc.malloc(max(len(data), 1)), libc.malloc(8 * max(cap, 1))
    shape = np.zeros(2, dtype=np.int64)
    try:
        ctypes.memmove(buf, data, len(data))
        n = reader.io_parse(buf, len(data), comma, out, cap, shape.ctypes.data)
        if n <= 0:
            return None
        values = np.frombuffer(ctypes.string_at(out, 8 * n), dtype=float)
        return np.squeeze(values.reshape(shape))
    finally:
        libc.free(buf)
        libc.free(out)


pieces = [b"1", b"-", b"+", b".", b"e", b"E", b"0", b"9", b"5.25", b"1e-3", b"7e+",
          b" ", b"\t", b"\n", b"\r\n", b"\r", b",", b"#", b"x", b"\x00", b"\xff",
          b"1" * 10000, b"0." + b"0" * 10000 + b"1", b"1e" + b"9" * 10000,
          b"12345678901234567890123", b"4.9e-324", b"1.7976931348623157e308"]
accepted = 0
for trial in range(3000):
    data = b"".join(fuzz.choice(pieces, size=int(fuzz.integers(0, 12))))
    data = data[: int(fuzz.integers(0, len(data) + 1))]  # often mid-token
    delimiter = repro.io._delimiter(data)
    got = read(data, delimiter == ",")
    if got is None:
        continue
    accepted += 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = np.loadtxt(io.StringIO(data.decode()), delimiter=delimiter)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), data
assert accepted > 100, accepted
print("fuzzed", trial + 1)
"""


def _libasan() -> str:
    gcc = shutil.which("gcc")
    if gcc is None:
        return ""
    found = subprocess.run(
        [gcc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    return found if os.path.isabs(found) and os.path.exists(found) else ""


@pytest.mark.slow
def test_c_cores_fuzzed_under_asan_and_ubsan(tmp_path):
    libasan = _libasan()
    if not libasan:
        pytest.skip("the system gcc has no libasan")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]),
        REPRO_C_CORE_BUILD_DIR=str(tmp_path / "build"),
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
    )
    done = subprocess.run(
        [sys.executable, "-c", _FUZZ, "20150323", "60", shutil.which("gcc")],
        env=env, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "fuzzed 3000" in done.stdout
    assert "Sanitizer" not in done.stderr, done.stderr[-4000:]
    assert "runtime error" not in done.stderr, done.stderr[-4000:]
    built = sorted(p.name for p in (tmp_path / "build").glob("*.so"))
    assert [name.split("-")[0] for name in built] == [
        "eq1_core", "io_core", "sax_core", "sequitur_core"
    ]
