"""Fingerprint-keyed result cache and cross-search memoization layer.

Two cooperating pieces make repeated and overlapping discord searches
near-free without touching the bit-identical results + call-ledger
invariant:

* :class:`~repro.cache.store.ResultCache` — a persistent,
  content-addressed, on-disk store of *completed* search results keyed
  by the checkpoint layer's SHA-256 input fingerprint.  A hit returns
  the stored discords and the stored call ledger flagged
  ``from_cache=True``, byte-identical to a live run.
* :class:`~repro.cache.context.SearchContext` — an in-process
  memoization context owning per-series shared artifacts (cumulative
  sums, z-normalized window matrices, SAX/Haar discretizations) that
  the engines, the pipeline, and the parameter-grid sweep thread
  through so the same intermediate is never computed twice for one
  series.

Both are opt-in: every entry point defaults to ``cache=None`` /
``context=None`` and the disabled path is byte-identical to the
pre-cache code (pinned by the golden-count suite).
"""

from repro.cache.context import SearchContext
from repro.cache.keys import (
    CACHE_KEY_VERSION,
    discord_search_key,
    ensemble_member_key,
    grid_cell_key,
    rng_fingerprint,
)
from repro.cache.results import (
    apply_ledger_delta,
    discords_from_json,
    discords_to_json,
    ledger_delta,
)
from repro.cache.store import CACHE_FORMAT, DEFAULT_MAX_BYTES, ResultCache

__all__ = [
    "CACHE_FORMAT",
    "CACHE_KEY_VERSION",
    "DEFAULT_MAX_BYTES",
    "ResultCache",
    "SearchContext",
    "apply_ledger_delta",
    "discord_search_key",
    "discords_from_json",
    "discords_to_json",
    "ensemble_member_key",
    "grid_cell_key",
    "ledger_delta",
    "rng_fingerprint",
]
