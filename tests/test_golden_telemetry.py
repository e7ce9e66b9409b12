"""Golden telemetry of the four discord engines.

``tests/golden/counts.json`` pins each engine's discords and call count;
this suite pins how the engines got there, from the metrics registry of
the same eight ``dataset/engine`` cases:

* the ``search.*`` counters (candidates visited, abandoned and survived,
  best-so-far updates);
* the ``search.abandon_depth`` histogram;
* each rank's ``search.rank_complete`` event (its ledger slice, its
  discord and whether it was exact);
* one run truncated by a ``max_calls`` budget (a third of the full run's
  calls): its status, ``rank_complete`` flags, calls and best-so-far
  discords.

The RRA rank core's pair and offset work counters are pinned when the
core is loaded; on the Python path (``REPRO_C_CORE=off``) they must read
zero.  Scores are compared as float hex.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m tests.test_golden_telemetry --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.rra import find_discords
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.observability.metrics import MetricsRegistry
from repro.resilience.budget import SearchBudget
from repro.timeseries import eq1core
from repro.timeseries.distance import DistanceCounter
from tests.test_golden_counts import (
    DATASETS,
    ENGINES,
    NUM_DISCORDS,
    _load_dataset,
    _rra_intervals,
)

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "telemetry_golden.json"
GOLDEN_FORMAT = "repro-golden-telemetry/1"

#: Counters only the RRA rank core feeds: the physical work behind its
#: logical calls.
CORE_WORK = ("search.pairs_evaluated", "search.offsets_evaluated")

CASES = [(ds, engine) for ds in DATASETS for engine in ENGINES]


def _search(name, dataset, intervals, **kwargs):
    if name == "rra":
        return find_discords(dataset.series, intervals, **kwargs)
    if name == "hotsax":
        return hotsax_discords(
            dataset.series, dataset.window,
            paa_size=dataset.paa_size, alphabet_size=dataset.alphabet_size,
            **kwargs,
        )
    if name == "haar":
        return haar_discords(dataset.series, dataset.window, **kwargs)
    return brute_force_discords(dataset.series, dataset.window, **kwargs)


def _discords(result) -> list:
    return [[d.start, d.end, d.score.hex()] for d in result.discords]


def _rank_event(attrs: dict) -> dict:
    if "score" in attrs:
        attrs = {**attrs, "score": attrs["score"].hex()}
    return attrs


def telemetry(name, dataset, intervals, max_calls=None) -> tuple[dict, dict]:
    """``(entry, work)``: the case's golden entry and its core work
    counters.  *max_calls* defaults to a third of the full run's calls."""
    metrics = MetricsRegistry()
    full = _search(
        name, dataset, intervals, num_discords=NUM_DISCORDS,
        counter=DistanceCounter(), metrics=metrics,
    )
    snapshot = metrics.snapshot()
    counters = {
        key: value for key, value in snapshot["counters"].items()
        if key.startswith("search.") and key not in CORE_WORK
    }
    work = {key: snapshot["counters"][key] for key in CORE_WORK if key in snapshot["counters"]}
    if max_calls is None:
        max_calls = full.distance_calls // 3
    cut = _search(
        name, dataset, intervals, num_discords=NUM_DISCORDS,
        counter=DistanceCounter(), budget=SearchBudget(max_calls=max_calls),
    )
    entry = {
        "calls": full.distance_calls,
        "counters": counters,
        "abandon_depth": snapshot["histograms"]["search.abandon_depth"],
        "ranks": [
            _rank_event(event["attrs"]) for event in metrics.events
            if event["name"] == "search.rank_complete"
        ],
        "truncated": {
            "max_calls": max_calls,
            "status": cut.status.value,
            "rank_complete": cut.rank_complete,
            "calls": cut.distance_calls,
            "discords": _discords(cut),
        },
    }
    return entry, work


def _golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == GOLDEN_FORMAT
    return data


@pytest.fixture(scope="module")
def golden():
    return _golden()


@pytest.fixture(scope="module")
def datasets():
    return {name: _load_dataset(name) for name in DATASETS}


@pytest.fixture(scope="module")
def rra_intervals(datasets):
    return {name: _rra_intervals(ds) for name, ds in datasets.items()}


@pytest.mark.parametrize(
    "dataset_name, engine", CASES, ids=[f"{ds}/{engine}" for ds, engine in CASES]
)
def test_telemetry_matches_golden(golden, datasets, rra_intervals, dataset_name, engine):
    key = f"{dataset_name}/{engine}"
    want = golden["entries"][key]
    entry, work = telemetry(
        engine, datasets[dataset_name], rra_intervals[dataset_name],
        max_calls=want["truncated"]["max_calls"],
    )
    assert entry == want, key
    if engine != "rra":
        assert work == {}, key
    elif eq1core.load() is None:
        assert work == {name: 0 for name in CORE_WORK}, key
    else:
        assert work == golden["core_work"][key], key


def test_golden_file_covers_every_case(golden):
    keys = {f"{ds}/{engine}" for ds, engine in CASES}
    assert set(golden["entries"]) == keys
    assert set(golden["core_work"]) == {key for key in keys if key.endswith("/rra")}


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    if eq1core.load() is None:
        raise SystemExit("regenerate with the RRA rank core loaded")
    entries, core_work = {}, {}
    for name in DATASETS:
        dataset = _load_dataset(name)
        intervals = _rra_intervals(dataset)
        for engine in ENGINES:
            key = f"{name}/{engine}"
            entries[key], work = telemetry(engine, dataset, intervals)
            if engine == "rra":
                core_work[key] = work
            print(key, entries[key]["calls"], "calls")
    payload = {"format": GOLDEN_FORMAT, "entries": entries, "core_work": core_work}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
