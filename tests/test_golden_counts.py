"""Golden-count regression suite for the distance-call ledger.

The paper's efficiency metric is the number of distance-function calls
(Section 6: the distance function accounts for >= 99% of runtime).
Several layers of machinery sit on top of that counter — vectorized
kernels, anytime budgets, and the result cache — and every one of them
promises to preserve the *logical* call counts.  This suite pins the
exact :class:`~repro.timeseries.distance.DistanceCounter` ``calls`` and
discord results for all four engines on two seeded bundled datasets
against the checked-in ``tests/golden/counts.json``, so a future perf
layer cannot silently change logical work.

Each golden entry is keyed by ``dataset/engine`` only: the live and
cached runs must both reproduce the same entry, which asserts their
bit-identity directly rather than pinning separate numbers.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_golden_counts.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.datasets import synthetic_ecg
from repro.datasets.synthetic import sine_with_anomaly
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.timeseries.distance import DistanceCounter

GOLDEN_PATH = Path(__file__).parent / "golden" / "counts.json"
GOLDEN_FORMAT = "repro-golden-counts/2"

# Two seeded bundled datasets, small enough that the full matrix stays
# inside the tier-1 time budget but large enough that every engine does
# non-trivial early abandoning.
DATASETS = {
    "sine": dict(kind="sine", length=1200, period=100, seed=7),
    "ecg": dict(kind="ecg", num_beats=8, anomaly_beats=(5,), seed=3),
}

ENGINES = ("rra", "hotsax", "haar", "brute_force")
NUM_DISCORDS = 2


def _load_dataset(name: str):
    spec = DATASETS[name]
    if spec["kind"] == "sine":
        return sine_with_anomaly(
            length=spec["length"], period=spec["period"], seed=spec["seed"]
        )
    return synthetic_ecg(
        num_beats=spec["num_beats"],
        anomaly_beats=spec["anomaly_beats"],
        seed=spec["seed"],
    )


def _rra_intervals(dataset):
    """Grammar-rule candidate intervals for the RRA engine (deterministic)."""
    detector = GrammarAnomalyDetector(
        window=dataset.window,
        paa_size=dataset.paa_size,
        alphabet_size=dataset.alphabet_size,
    )
    return detector.fit(dataset.series).candidates


def run_engine(name: str, dataset, intervals, *, cache=None):
    """Run one engine; return its call count + discord tuples as a golden
    entry."""
    counter = DistanceCounter()
    series = dataset.series
    if name == "rra":
        result = find_discords(
            series,
            intervals,
            num_discords=NUM_DISCORDS,
            counter=counter,
            cache=cache,
        )
    elif name == "hotsax":
        result = hotsax_discords(
            series,
            dataset.window,
            num_discords=NUM_DISCORDS,
            paa_size=dataset.paa_size,
            alphabet_size=dataset.alphabet_size,
            counter=counter,
            cache=cache,
        )
    elif name == "haar":
        result = haar_discords(
            series,
            dataset.window,
            num_discords=NUM_DISCORDS,
            counter=counter,
            cache=cache,
        )
    elif name == "brute_force":
        result = brute_force_discords(
            series,
            dataset.window,
            num_discords=NUM_DISCORDS,
            counter=counter,
            cache=cache,
        )
    else:  # pragma: no cover - config error
        raise ValueError(name)
    return {
        "calls": counter.calls,
        "discords": [
            [d.start, d.end, float(np.round(d.score, 10))] for d in result.discords
        ],
    }


def _entry_key(dataset: str, engine: str) -> str:
    return f"{dataset}/{engine}"


def _case_id(dataset: str, engine: str) -> str:
    # Case ids keep the ``/prune=off`` suffix of the format-1 keys so
    # that the test names stay stable across the format change.
    return f"{_entry_key(dataset, engine)}/prune=off"


def _golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == GOLDEN_FORMAT
    return data


CASES = [(ds, engine) for ds in DATASETS for engine in ENGINES]


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
    "dataset_name, engine",
    CASES,
    ids=[_case_id(*case) for case in CASES],
)
def test_serial_counts_match_golden(
    golden, datasets, rra_intervals, dataset_name, engine
):
    key = _entry_key(dataset_name, engine)
    entry = run_engine(
        engine,
        datasets[dataset_name],
        rra_intervals[dataset_name],
    )
    assert entry == golden["entries"][key], key


@pytest.mark.parametrize(
    "dataset_name, engine",
    CASES,
    ids=[_case_id(*case) for case in CASES],
)
def test_cached_counts_match_golden(
    golden, datasets, rra_intervals, dataset_name, engine, tmp_path
):
    """A warm result-cache hit must reproduce the SAME golden entry.

    The first run populates the store; the second is answered from it
    (asserted via the store's hit tally) and must replay the identical
    logical call count and discord list — cached results are pinned
    against the live goldens, never separate cached numbers.
    """
    from repro.cache import ResultCache

    key = _entry_key(dataset_name, engine)
    cache = ResultCache(tmp_path / "store")
    cold = run_engine(
        engine,
        datasets[dataset_name],
        rra_intervals[dataset_name],
        cache=cache,
    )
    assert cold == golden["entries"][key], key
    warm = run_engine(
        engine,
        datasets[dataset_name],
        rra_intervals[dataset_name],
        cache=cache,
    )
    assert warm == golden["entries"][key], key
    assert cache.hits == 1 and cache.misses == 1, key


def test_golden_file_covers_every_case(golden):
    expected = {_entry_key(*case) for case in CASES}
    assert set(golden["entries"]) == expected


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    entries = {}
    for name in DATASETS:
        dataset = _load_dataset(name)
        intervals = _rra_intervals(dataset)
        for engine in ENGINES:
            key = _entry_key(name, engine)
            entries[key] = run_engine(engine, dataset, intervals)
            print(key, entries[key]["calls"], "calls")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": GOLDEN_FORMAT,
        "datasets": {k: {**v, "anomaly_beats": list(v.get("anomaly_beats", []))}
                     if "anomaly_beats" in v else v
                     for k, v in DATASETS.items()},
        "num_discords": NUM_DISCORDS,
        "entries": entries,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
