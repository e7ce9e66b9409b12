"""Both C cores under AddressSanitizer and UndefinedBehaviorSanitizer.

A child process builds ``_sequitur_core.c`` and ``_eq1_core.c`` with
``-fsanitize=address,undefined`` into a temporary build directory, with
the ASan runtime preloaded, and fuzzes each core against its Python path:
Sequitur grammars, the RRA rank loop (budgets, checkpoint resume, the
nearest-neighbour scan) and the core's shuffle.  Any sanitizer report
aborts the child.  Skipped when the system gcc has no ``libasan``.
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
import os, sys, tempfile
import numpy as np
from repro import _cbuild
_cbuild.CFLAGS = _cbuild.CFLAGS + (
    "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
)
_cbuild._find_compiler = lambda: sys.argv[3]  # the gcc whose libasan is preloaded
from repro.core.rra import find_discords, nearest_neighbor_distances
from repro.grammar import ccore
from repro.grammar.intervals import RuleInterval
from repro.grammar.sequitur import induce_grammar
from repro.resilience.budget import SearchBudget
from repro.timeseries import eq1core


def gate(value):
    os.environ["REPRO_C_CORE"] = value
    ccore.reset_for_testing()
    eq1core.reset_for_testing()


def both(run):
    gate("require")
    on = run()
    gate("off")
    off = run()
    assert on == off, (on, off)


def dump(result, rng):
    return (
        [(d.start, d.end, d.score.hex(), d.rule_id) for d in result.discords],
        result.distance_calls, result.status, repr(rng.bit_generator.state),
    )


fuzz = np.random.default_rng(int(sys.argv[1]))
gate("require")
assert ccore.load() is not None and eq1core.load() is not None
for trial in range(int(sys.argv[2])):
    tokens = [str(t) for t in fuzz.integers(0, fuzz.integers(2, 6), size=fuzz.integers(0, 400))]
    both(lambda: induce_grammar(tokens))

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
        rng = np.random.default_rng(seed)
        budget = None if max_calls is None else SearchBudget(max_calls=max_calls)
        return dump(find_discords(series, intervals, num_discords=3, rng=rng, budget=budget), rng)

    starve_at, every = int(fuzz.integers(1, 200)), int(fuzz.integers(1, 8))

    def resume():
        path = os.path.join(tempfile.mkdtemp(), "ck.json")
        find_discords(
            series, intervals, num_discords=3, rng=np.random.default_rng(seed),
            budget=SearchBudget(max_calls=starve_at),
            checkpoint_path=path, checkpoint_every=every,
        )
        result = find_discords(series, intervals, num_discords=3, resume_from=path)
        return dump(result, np.random.default_rng(0))[:3]

    both(search)
    both(resume)
    both(lambda: [(iv.start, iv.end, d.hex()) for iv, d in nearest_neighbor_distances(series, intervals)])

    gate("require")
    ids = fuzz.integers(0, 10**9, size=int(fuzz.integers(0, 5000)))
    core, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ids.copy()
    eq1core.shuffle(eq1core.load(), core, got)
    numpy_.shuffle(ids)
    assert np.array_equal(got, ids)
    assert core.bit_generator.state == numpy_.bit_generator.state
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
    assert "fuzzed 60" in done.stdout
    assert "Sanitizer" not in done.stderr, done.stderr[-4000:]
    assert "runtime error" not in done.stderr, done.stderr[-4000:]
    built = sorted(p.name for p in (tmp_path / "build").glob("*.so"))
    assert [name.split("-")[0] for name in built] == ["eq1_core", "sequitur_core"]
