"""Fingerprint-keyed persistent result cache.

:class:`~repro.cache.store.ResultCache` is a content-addressed on-disk
store of *completed* search results, ensemble members and grid cells,
keyed by the checkpoint layer's SHA-256 input fingerprint.  A hit
returns the stored discords and the stored call ledger flagged
``from_cache=True``, byte-identical to a live run.

The cache is opt-in: every entry point defaults to ``cache=None``.
"""

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
    "apply_ledger_delta",
    "discord_search_key",
    "discords_from_json",
    "discords_to_json",
    "ensemble_member_key",
    "grid_cell_key",
    "ledger_delta",
    "rng_fingerprint",
]
