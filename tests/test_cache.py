"""Tests for the fingerprint-keyed result cache.

Three invariants rule this module:

* **Warm equals cold, bitwise.**  A cache hit must return the exact
  discords (starts, ends, hex-identical scores, ranks) and replay the
  exact logical call count of the run that populated it — for every
  engine.
* **Corruption only ever costs a recompute.**  Truncated, garbled,
  version-mismatched, or mislabeled entries are discarded and reported
  as misses; they can never surface a wrong answer.
* **Disabled means untouched.**  ``cache=None`` (the default) leaves
  every code path byte-identical to the pre-cache behavior — pinned
  separately by the golden-count suite.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.cache import (
    CACHE_FORMAT,
    ResultCache,
    discord_search_key,
)
from repro.cache.results import discords_from_json, discords_to_json
from repro.core.anomaly import Discord
from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import DiscordSearchError
from repro.observability.metrics import MetricsRegistry
from repro.resilience.budget import SearchBudget
from repro.resilience.checkpoint import series_digest
from repro.timeseries.distance import DistanceCounter

WINDOW = 40
ENGINES = ("rra", "hotsax", "haar", "brute_force")


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 30.0, 600)
    s = np.sin(t * 2 * np.pi / 5.0) + 0.15 * rng.normal(size=600)
    s[300:340] += 1.2
    return s


@pytest.fixture(scope="module")
def rra_candidates(series):
    detector = GrammarAnomalyDetector(
        window=WINDOW, paa_size=4, alphabet_size=4
    )
    return detector.fit(series).candidates


def run_engine(
    engine,
    series,
    candidates,
    *,
    cache=None,
    budget=None,
):
    counter = DistanceCounter()
    kwargs = dict(num_discords=2, counter=counter, cache=cache, budget=budget)
    if engine == "rra":
        result = find_discords(series, candidates, **kwargs)
    elif engine == "hotsax":
        result = hotsax_discords(
            series, WINDOW, paa_size=4, alphabet_size=4, **kwargs
        )
    elif engine == "haar":
        result = haar_discords(series, WINDOW, **kwargs)
    else:
        result = brute_force_discords(series, WINDOW, **kwargs)
    return result, counter


def signature(result, counter):
    """Bit-exact comparison payload: discords + logical call count."""
    return (
        [
            (d.start, d.end, float(d.score).hex(), d.rank, float(d.nn_distance).hex())
            for d in result.discords
        ],
        counter.calls,
    )


# ---------------------------------------------------------------------------
# Warm-equals-cold equivalence matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("reopen", [False, True])
def test_cache_hit_bit_identical(
    series, rra_candidates, engine, reopen, tmp_path
):
    """With ``reopen`` the warm run reads the entry back from disk through
    a freshly opened store, as a new process would."""
    plain = signature(*run_engine(engine, series, rra_candidates))
    cache = ResultCache(tmp_path / "store")
    cold_result, cold_counter = run_engine(
        engine, series, rra_candidates, cache=cache
    )
    assert not cold_result.from_cache
    assert signature(cold_result, cold_counter) == plain
    assert cache.hits == 0 and cache.misses == 1
    if reopen:
        cache = ResultCache(tmp_path / "store")
    warm_result, warm_counter = run_engine(
        engine, series, rra_candidates, cache=cache
    )
    assert warm_result.from_cache
    assert signature(warm_result, warm_counter) == plain
    assert all(warm_result.rank_complete)
    assert cache.hits == 1 and cache.misses == (0 if reopen else 1)


# ---------------------------------------------------------------------------
# Store robustness
# ---------------------------------------------------------------------------


def _store_one(tmp_path, key=None):
    cache = ResultCache(tmp_path / "store")
    key = key or ("ab" * 32)
    cache.put(key, {"value": 7})
    return cache, key


def test_store_roundtrip(tmp_path):
    cache, key = _store_one(tmp_path)
    assert cache.get(key) == {"value": 7}
    assert cache.stats()["entries"] == 1


def test_truncated_entry_recovers(tmp_path):
    cache, key = _store_one(tmp_path)
    path = os.path.join(cache.directory, key + ".json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    assert cache.get(key) is None
    assert not os.path.exists(path)  # offender deleted
    assert cache.misses == 1


def test_garbage_entry_recovers(tmp_path):
    cache, key = _store_one(tmp_path)
    path = os.path.join(cache.directory, key + ".json")
    with open(path, "wb") as fh:
        fh.write(b"\x00\xff\x13garbage")
    assert cache.get(key) is None
    assert not os.path.exists(path)


def test_format_mismatch_recovers(tmp_path):
    cache, key = _store_one(tmp_path)
    path = os.path.join(cache.directory, key + ".json")
    with open(path) as fh:
        document = json.load(fh)
    document["format"] = "repro-result-cache/999"
    with open(path, "w") as fh:
        json.dump(document, fh)
    assert cache.get(key) is None
    assert not os.path.exists(path)


def test_key_mismatch_recovers(tmp_path):
    """An entry whose body disagrees with its filename is discarded."""
    cache, key = _store_one(tmp_path)
    other = "cd" * 32
    os.rename(
        os.path.join(cache.directory, key + ".json"),
        os.path.join(cache.directory, other + ".json"),
    )
    assert cache.get(other) is None
    assert cache.get(key) is None  # original name gone too


def test_malformed_keys_are_safe(tmp_path):
    cache = ResultCache(tmp_path / "store")
    for bad in ("", "short", "../../../etc/passwd", "AB" * 32, "zz" * 32):
        cache.put(bad, {"x": 1})
        assert cache.get(bad) is None
    assert cache.stats()["entries"] == 0


def test_lru_eviction_respects_byte_cap(tmp_path):
    cache = ResultCache(tmp_path / "store", max_bytes=1)
    first = "aa" * 32
    second = "bb" * 32
    cache.put(first, {"payload": "x" * 100})
    # A single oversized entry survives (the just-written entry is
    # never evicted), so one result always caches.
    assert cache.get(first) is not None
    cache.put(second, {"payload": "y" * 100})
    # The cap is enforced against older entries: first is evicted.
    assert cache.stats()["entries"] == 1
    assert cache.get(second) is not None
    assert cache.evictions == 1


def test_lru_get_refreshes_recency(tmp_path):
    entry_bytes = None
    cache = ResultCache(tmp_path / "store")
    keys = [format(i, "02d") * 32 for i in range(3)]
    for i, key in enumerate(keys):
        cache.put(key, {"i": i})
        path = os.path.join(cache.directory, key + ".json")
        entry_bytes = os.path.getsize(path)
        os.utime(path, ns=(i * 10**9, i * 10**9))  # deterministic ages
    # Touch the oldest, then shrink the cap to two entries: the
    # refreshed entry must survive, the stale middle one must go.
    assert cache.get(keys[0]) is not None
    cache.max_bytes = 2 * entry_bytes
    cache.put(keys[2], {"i": 2})  # re-put triggers eviction
    assert cache.get(keys[1]) is None
    assert cache.get(keys[0]) is not None


def test_cache_metrics_counters(tmp_path):
    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "store", max_bytes=1, metrics=registry)
    key_a, key_b = "aa" * 32, "bb" * 32
    assert cache.get(key_a) is None
    cache.put(key_a, {"v": 1})
    assert cache.get(key_a) == {"v": 1}
    cache.put(key_b, {"v": 2})  # evicts key_a (cap = 1 byte)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["cache.miss"] == 1
    assert snapshot["counters"]["cache.hit"] == 1
    assert snapshot["counters"]["cache.evicted"] == 1
    assert snapshot["gauges"]["cache.bytes"] > 0


# ---------------------------------------------------------------------------
# Keys and fingerprints
# ---------------------------------------------------------------------------


def test_series_digest_is_content_addressed():
    a = np.arange(50, dtype=float)
    b = np.arange(50, dtype=float)
    assert a is not b
    assert series_digest(a) == series_digest(b)
    expected = hashlib.sha256(
        np.ascontiguousarray(a, dtype=float).tobytes()
    ).hexdigest()
    assert series_digest(a) == expected


def test_series_digest_memoizes_by_identity():
    a = np.arange(64, dtype=float)
    first = series_digest(a)
    # Mutating in place is NOT rehashed for the same object — the memo
    # is keyed by array identity, per the documented contract that
    # searched series are treated as immutable.
    a[0] = 123.0
    assert series_digest(a) == first
    fresh = np.array(a)
    assert series_digest(fresh) != first


def test_discord_search_key_sensitivity(series):
    base = dict(window=40, num_discords=2)
    key = discord_search_key(series, (), engine="hotsax", params=base)
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")
    assert key == discord_search_key(series, (), engine="hotsax", params=dict(base))
    assert key != discord_search_key(series, (), engine="haar", params=base)
    assert key != discord_search_key(
        series, (), engine="hotsax", params={**base, "num_discords": 3}
    )
    assert key != discord_search_key(
        series, (), engine="hotsax", params={**base, "seed": 0}
    )


@pytest.mark.parametrize("engine", ["rra", "hotsax", "haar"])
def test_an_entry_serves_only_its_own_seed(engine, series, rra_candidates, tmp_path):
    """The seed keys the inner loops' random tails, so it is in the key:
    an entry of seed 0 does not serve seed 1, which has its own calls."""
    cache = ResultCache(tmp_path)
    searches = {
        "rra": lambda **kw: find_discords(series, rra_candidates, num_discords=2, **kw),
        "hotsax": lambda **kw: hotsax_discords(series, WINDOW, num_discords=2, **kw),
        "haar": lambda **kw: haar_discords(series, WINDOW, num_discords=2, **kw),
    }
    search = searches[engine]
    search(seed=0, cache=cache)
    assert search(seed=0, cache=cache).from_cache
    live = search(seed=1)
    cold = search(seed=1, cache=cache)
    assert not cold.from_cache and cache.hits == 1 and cache.misses == 2
    assert cold.distance_calls == live.distance_calls
    assert search(seed=1, cache=cache).from_cache


def test_ledger_delta_roundtrip(series, rra_candidates, tmp_path):
    """An entry stores what the search added to its counter, and a hit
    adds exactly that to the caller's counter, whatever it held."""
    cache = ResultCache(tmp_path)
    cold = DistanceCounter()
    cold.calls = 10
    find_discords(series, rra_candidates, num_discords=2, counter=cold, cache=cache)
    added = cold.calls - 10
    assert added > 0
    warm = DistanceCounter()
    warm.calls = 25
    result = find_discords(
        series, rra_candidates, num_discords=2, counter=warm, cache=cache
    )
    assert result.from_cache
    assert warm.calls == result.distance_calls == 25 + added


@pytest.mark.parametrize("engine", ENGINES)
def test_2d_series_refused_before_a_cache_hit(engine, series, rra_candidates, tmp_path):
    """A 2-d series is refused before the cache is read: its bytes equal
    a cached 1-d search's, so a lookup first would serve that search's
    discords."""
    cache = ResultCache(tmp_path)
    run_engine(engine, series, rra_candidates, cache=cache)
    assert run_engine(engine, series, rra_candidates, cache=cache)[0].from_cache
    with pytest.raises(DiscordSearchError, match="1-d"):
        run_engine(engine, series.reshape(20, 30), rra_candidates, cache=cache)


def test_version_one_entries_are_misses(
    series, rra_candidates, tmp_path, monkeypatch
):
    """Entries stored under key version 1 — whose ledgers carried four
    fields and whose keys also carried ``prune`` — are never read back,
    so a stale answer (here: no discords, one call) cannot surface."""
    from repro.cache import keys

    valid = [
        iv for iv in rra_candidates if iv.end <= series.size and iv.length >= 2
    ]
    stale = {
        "engine": "rra",
        "discords": [],
        "ledger": {"calls": 1},
    }
    cache = ResultCache(tmp_path / "store")
    monkeypatch.setattr(keys, "CACHE_KEY_VERSION", 1)
    for params in (
        {"num_discords": 2, "backend": "kernel", "prune": False},
        {"num_discords": 2, "backend": "kernel"},
    ):
        cache.put(
            discord_search_key(series, valid, engine="rra", params=params),
            stale,
        )
    monkeypatch.undo()
    result, counter = run_engine("rra", series, rra_candidates, cache=cache)
    assert not result.from_cache
    assert cache.hits == 0 and cache.misses == 1
    assert signature(result, counter) == signature(
        *run_engine("rra", series, rra_candidates)
    )


def test_version_two_entries_are_misses(
    series, rra_candidates, tmp_path, monkeypatch
):
    """Entries stored under key version 2, whose keys also carried the
    distance ``backend``, are never read back — not even one stored
    under today's parameters."""
    from repro.cache import keys

    valid = [
        iv for iv in rra_candidates if iv.end <= series.size and iv.length >= 2
    ]
    stale = {"engine": "rra", "discords": [], "ledger": {"calls": 1}}
    cache = ResultCache(tmp_path / "store")
    monkeypatch.setattr(keys, "CACHE_KEY_VERSION", 2)
    for params in (
        {"num_discords": 2, "backend": "kernel"},
        {"num_discords": 2},
    ):
        cache.put(
            discord_search_key(series, valid, engine="rra", params=params),
            stale,
        )
    monkeypatch.undo()
    result, counter = run_engine("rra", series, rra_candidates, cache=cache)
    assert not result.from_cache
    assert cache.hits == 0 and cache.misses == 1
    assert signature(result, counter) == signature(
        *run_engine("rra", series, rra_candidates)
    )


def test_discord_json_roundtrip():
    discords = [
        Discord(start=3, end=17, score=1.25, rank=0, nn_distance=1.25,
                rule_id=7, source="rra"),
        Discord(start=40, end=80, score=0.5, rank=1, nn_distance=0.5,
                rule_id=None, source="hotsax"),
    ]
    assert discords_from_json(discords_to_json(discords)) == discords


# ---------------------------------------------------------------------------
# Budget / checkpoint interoperation
# ---------------------------------------------------------------------------


def test_truncated_search_is_not_cached(series, rra_candidates, tmp_path):
    cache = ResultCache(tmp_path / "store")
    result, _ = run_engine(
        "rra",
        series,
        rra_candidates,
        cache=cache,
        budget=SearchBudget(max_calls=5),
    )
    assert not result.complete
    assert cache.stats()["entries"] == 0
    # The incomplete attempt never poisons later full runs.
    full_result, full_counter = run_engine(
        "rra", series, rra_candidates, cache=cache
    )
    assert not full_result.from_cache
    plain = signature(*run_engine("rra", series, rra_candidates))
    assert signature(full_result, full_counter) == plain


def test_resumed_search_populates_cache(series, rra_candidates, tmp_path):
    """A checkpointed run killed mid-search, then resumed to completion,
    stores the same entry an uninterrupted run would."""
    plain = signature(*run_engine("rra", series, rra_candidates))
    checkpoint = str(tmp_path / "ckpt.json")
    cache = ResultCache(tmp_path / "store")
    counter = DistanceCounter()
    partial = find_discords(
        series,
        rra_candidates,
        num_discords=2,
        counter=counter,
        budget=SearchBudget(max_calls=60),
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        cache=cache,
    )
    assert not partial.complete and os.path.exists(checkpoint)
    assert cache.stats()["entries"] == 0
    counter = DistanceCounter()
    resumed = find_discords(
        series,
        rra_candidates,
        num_discords=2,
        counter=counter,
        resume_from=checkpoint,
        cache=cache,
    )
    assert resumed.complete
    assert signature(resumed, counter) == plain
    assert cache.stats()["entries"] == 1
    warm_result, warm_counter = run_engine(
        "rra", series, rra_candidates, cache=cache
    )
    assert warm_result.from_cache
    assert signature(warm_result, warm_counter) == plain


def test_cache_hit_short_circuits_checkpointing(
    series, rra_candidates, tmp_path
):
    cache = ResultCache(tmp_path / "store")
    run_engine("rra", series, rra_candidates, cache=cache)
    checkpoint = str(tmp_path / "never-written.json")
    counter = DistanceCounter()
    result = find_discords(
        series,
        rra_candidates,
        num_discords=2,
        counter=counter,
        checkpoint_path=checkpoint,
        checkpoint_every=1,
        cache=cache,
    )
    assert result.from_cache
    assert not os.path.exists(checkpoint)


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------


def test_pipeline_cache_path_coercion(series, tmp_path):
    directory = tmp_path / "store"
    detector = GrammarAnomalyDetector(
        window=WINDOW, paa_size=4, alphabet_size=4, cache=str(directory)
    )
    assert isinstance(detector.cache, ResultCache)
    detector.fit(series)
    cold = detector.discords(num_discords=2)
    assert not cold.from_cache
    warm_detector = GrammarAnomalyDetector(
        window=WINDOW, paa_size=4, alphabet_size=4, cache=directory
    )
    warm_detector.fit(series)
    warm = warm_detector.discords(num_discords=2)
    assert warm.from_cache
    assert [
        (d.start, d.end, float(d.score).hex()) for d in warm.discords
    ] == [(d.start, d.end, float(d.score).hex()) for d in cold.discords]
    assert warm.distance_calls == cold.distance_calls


# -- ensemble / cache interplay -------------------------------------------


def _ensemble_grid():
    from repro.core.ensemble import ensemble_grid

    return ensemble_grid([WINDOW, 60], [4, 6], [3, 4])


def test_ensemble_cold_run_populates_per_member_entries(series, tmp_path):
    """A cold ensemble run stores one cache entry per evaluated member."""
    from repro.core.ensemble import EnsembleDetector

    cache = ResultCache(tmp_path / "store")
    grid = _ensemble_grid()
    result = EnsembleDetector(grid, num_discords=2, cache=cache).fit(series)
    assert result.member_counts() == {"ok": len(grid)}
    assert cache.misses == len(grid)
    assert cache.hits == 0
    entries = list((tmp_path / "store").glob("*.json"))
    assert len(entries) == len(grid)


def test_ensemble_warm_run_is_bit_identical(series, tmp_path):
    """The warm run answers every member from the store, same bits."""
    from repro.core.ensemble import EnsembleDetector

    cache = ResultCache(tmp_path / "store")
    grid = _ensemble_grid()
    cold = EnsembleDetector(grid, num_discords=2, cache=cache).fit(series)
    warm = EnsembleDetector(grid, num_discords=2, cache=cache).fit(series)
    assert cache.hits == len(grid)
    assert warm.member_counts() == {"cached": len(grid)}
    assert warm.score_digest() == cold.score_digest()
    assert [
        (d.start, d.end, d.support, d.votes, float(d.score).hex())
        for d in warm.discords
    ] == [
        (d.start, d.end, d.support, d.votes, float(d.score).hex())
        for d in cold.discords
    ]
    assert not warm.degraded


def test_ensemble_warm_run_ignores_aggregation_knobs(series, tmp_path):
    """Cached members store RAW evidence; knob changes still hit.

    The cache key covers the member geometry and search parameters but
    deliberately not the normalization/aggregation knobs — those are
    applied at aggregate time, so one cold run warms every knob combo.
    """
    from repro.core.ensemble import EnsembleDetector

    cache = ResultCache(tmp_path / "store")
    grid = _ensemble_grid()
    EnsembleDetector(grid, num_discords=2, cache=cache).fit(series)
    rank_vote = EnsembleDetector(
        grid, num_discords=2, cache=cache,
        normalization="rank", aggregation="vote",
    ).fit(series)
    assert cache.hits == len(grid)
    assert rank_vote.member_counts() == {"cached": len(grid)}
    fresh = EnsembleDetector(
        grid, num_discords=2, normalization="rank", aggregation="vote"
    ).fit(series)
    assert rank_vote.score_digest() == fresh.score_digest()


def test_ensemble_truncated_members_are_never_cached(series, tmp_path):
    """Budget-truncated members must not poison the store.

    A tripped budget yields partial member evidence; caching it would
    let a degraded run masquerade as a complete one forever after.
    Only ``"ok"`` members are stored, so the follow-up unbudgeted run
    recomputes everything the budget cut short.
    """
    from repro.core.ensemble import EnsembleDetector

    cache = ResultCache(tmp_path / "store")
    grid = _ensemble_grid()
    budgeted = EnsembleDetector(grid, num_discords=2, cache=cache).fit(
        series, budget=SearchBudget(max_calls=1)
    )
    assert budgeted.degraded
    counts = budgeted.member_counts()
    stored = counts.get("ok", 0)
    assert counts.get("truncated", 0) + counts.get("skipped", 0) > 0
    entries = list((tmp_path / "store").glob("*.json"))
    assert len(entries) == stored
    full = EnsembleDetector(grid, num_discords=2, cache=cache).fit(series)
    assert not full.degraded
    assert full.contributing == len(grid)
    reference = EnsembleDetector(grid, num_discords=2).fit(series)
    assert full.score_digest() == reference.score_digest()


def test_ensemble_member_key_sensitivity(series):
    """Member keys split on geometry and search params, not topology."""
    from repro.cache.keys import ensemble_member_key

    base = ensemble_member_key(
        series, window=WINDOW, paa_size=4, alphabet_size=4,
        params={"num_discords": 2, "seed": 0},
    )
    same = ensemble_member_key(
        series, window=WINDOW, paa_size=4, alphabet_size=4,
        params={"num_discords": 2, "seed": 0},
    )
    assert base == same
    for other in (
        ensemble_member_key(
            series, window=WINDOW + 1, paa_size=4, alphabet_size=4,
            params={"num_discords": 2, "seed": 0},
        ),
        ensemble_member_key(
            series, window=WINDOW, paa_size=5, alphabet_size=4,
            params={"num_discords": 2, "seed": 0},
        ),
        ensemble_member_key(
            series, window=WINDOW, paa_size=4, alphabet_size=3,
            params={"num_discords": 2, "seed": 0},
        ),
        ensemble_member_key(
            series, window=WINDOW, paa_size=4, alphabet_size=4,
            params={"num_discords": 3, "seed": 0},
        ),
        ensemble_member_key(
            np.append(series, 1.0), window=WINDOW, paa_size=4,
            alphabet_size=4, params={"num_discords": 2, "seed": 0},
        ),
    ):
        assert other != base


def test_version_three_entries_are_misses(
    series, rra_candidates, tmp_path, monkeypatch
):
    """Entries stored under key version 3, whose calls came from the
    inner order of a NumPy generator, are never read back — not even one
    stored under today's parameters."""
    from repro.cache import keys

    valid = [
        iv for iv in rra_candidates if iv.end <= series.size and iv.length >= 2
    ]
    stale = {"engine": "rra", "discords": [], "ledger": {"calls": 1}}
    cache = ResultCache(tmp_path / "store")
    monkeypatch.setattr(keys, "CACHE_KEY_VERSION", 3)
    for params in ({"num_discords": 2}, {"num_discords": 2, "seed": 0}):
        cache.put(discord_search_key(series, valid, engine="rra", params=params), stale)
    monkeypatch.undo()
    result, counter = run_engine("rra", series, rra_candidates, cache=cache)
    assert not result.from_cache
    assert cache.hits == 0 and cache.misses == 1
    assert signature(result, counter) == signature(
        *run_engine("rra", series, rra_candidates)
    )
