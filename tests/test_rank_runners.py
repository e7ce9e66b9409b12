"""Parity of the RRA stretch runners behind the shared rank loop.

:func:`repro.discord.search.rank_search` runs every engine's rank through
a stretch runner with one contract: ``run(first, stop, calls_left,
best_dist) -> (end, best_dist, best)`` plus per-candidate ``flags`` and
``outer_calls`` and ``take_calls()``.  RRA has two: the C core's
:class:`~repro.timeseries.eq1core.RankRun` and the Python loop the core
replaces.  Over the same stretches they must agree on everything the
loop reads, drawing their inner tails from the same keyed substreams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _cbuild
from repro.core.rra import (
    _admissible,
    _CandidateSet,
    _outer_order,
    _PythonRankRun,
    _rank_run,
)
from repro.timeseries import eq1core
from tests.test_rra import _blip_series, _candidates_for

needs_core = pytest.mark.skipif(
    _cbuild._gate() == "off" or _cbuild._find_compiler() is None,
    reason="the Eq. 1 C core is off or cannot be built on this host",
)


def _rank():
    series = _blip_series(length=600)
    valid = _admissible(_candidates_for(series), series.size)
    return series, valid, _outer_order(valid.table)


def _runners(seed: int, rank: int):
    """The core and Python runners of rank *rank* of a search with *seed*
    over the same candidates."""
    series, valid, order = _rank()
    rows = np.arange(len(valid))
    core = _rank_run(_CandidateSet(series), valid, rows, order, seed, rank)
    python = _rank_run(_CandidateSet(series, core=False), valid, rows, order, seed, rank)
    assert isinstance(core, eq1core.RankRun)
    assert isinstance(python, _PythonRankRun)
    return core, python, rows.size


def _step(run, first, stop, calls_left, best_dist):
    end, best_dist, best = run(first, stop, calls_left, best_dist)
    return {
        "end": end,
        "best_dist": best_dist.hex(),
        "best": best,
        "flags": [int(f) for f in run.flags[: end - first]],
        "depths": [int(d) for d in run.outer_calls[: end - first]],
        "calls": run.take_calls(),
    }, best_dist


@needs_core
@pytest.mark.parametrize("span", [1, 2, 64])
@pytest.mark.parametrize("calls_left", [2**62, 40], ids=["no-ceiling", "ceiling-40"])
def test_core_and_python_runners_agree(span, calls_left):
    """Stretch by stretch over a whole rank: the same end, best, flags,
    depths and calls, in ranks 0 and 1 of two seeds.  A *calls_left* of
    40 ends stretches of 2 and 64 early."""
    for seed, rank in ((3, 0), (3, 1), (2**64 - 1, 0)):
        core, python, n = _runners(seed, rank)
        _agree_over_the_rank(core, python, n, span, calls_left)


def _agree_over_the_rank(core, python, n, span, calls_left):
    first, best_dist, cut = 0, 0.0, 0
    while first < n:
        stop = min(n, first + span)
        got, core_best = _step(core, first, stop, calls_left, best_dist)
        want, _ = _step(python, first, stop, calls_left, best_dist)
        assert got == want, (first, stop)
        cut += got["end"] < stop
        first, best_dist = got["end"], core_best
    assert first == n
    if calls_left < 2**62 and span > 1:
        assert cut > 0  # the ceiling ended some stretch before its stop


def test_python_runner_counts_an_interrupted_candidate():
    """A scan that raises still adds the pairs it visited to ``calls``."""
    series, valid, order = _rank()
    python = _PythonRankRun(_CandidateSet(series, core=False), valid, order, 0, 0)
    visited = []

    def interrupting(p, q):
        visited.append(q)
        if len(visited) == 3:
            raise KeyboardInterrupt
        return 1.0

    python._distance = interrupting
    with pytest.raises(KeyboardInterrupt):
        python(0, 1, 2**62, 0.0)
    assert python.take_calls() == 3
