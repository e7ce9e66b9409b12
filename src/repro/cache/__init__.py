"""Fingerprint-keyed persistent result cache.

:class:`~repro.cache.store.ResultCache` is a content-addressed on-disk
store of *completed* search results and ensemble members (a grid
sweep's cells are members), keyed by the checkpoint layer's SHA-256 input fingerprint.  A hit
returns the stored discords and adds the stored call count, flagged
``from_cache=True``, byte-identical to a live run.

The cache is opt-in: every entry point defaults to ``cache=None``.
"""

from repro._lazy import lazy_exports

#: Module → the public names taken from it, each imported on first
#: access (DESIGN §17).  ``__all__`` lists these names.
_EXPORTS = {
    "repro.cache.keys": (
        "CACHE_KEY_VERSION",
        "discord_search_key",
        "ensemble_member_key",
    ),
    "repro.cache.results": ("discords_from_json", "discords_to_json"),
    "repro.cache.store": ("CACHE_FORMAT", "DEFAULT_MAX_BYTES", "ResultCache"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
