"""Cache-key derivation for the fingerprint-keyed result cache.

Every key is the checkpoint layer's :func:`search_fingerprint` over the
series content, the candidate intervals, and a parameter dict (the
search's seed included, for the engines whose inner loops have a random
tail) — plus two cache-private entries folded into the params: the
engine name and :data:`CACHE_KEY_VERSION`.  Bumping the version orphans (never
corrupts) every existing entry when the result schema or the search
semantics change.

There is no worker count in any key.  Discord searches always run in
one process; the ensemble's member fan-out runs those same serial
searches in pool workers, so a member computed there is exactly the
member a serial run would produce — and may be served to one (pinned by
the ensemble golden suite).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.resilience.checkpoint import search_fingerprint

__all__ = [
    "CACHE_KEY_VERSION",
    "discord_search_key",
    "ensemble_member_key",
]

#: Version of the key derivation + stored-payload schema.  Part of every
#: key, so a bump silently invalidates (misses) all prior entries.
CACHE_KEY_VERSION = 4


def discord_search_key(
    series: np.ndarray,
    intervals,
    *,
    engine: str,
    params: dict,
) -> str:
    """Cache key for one complete discord search.

    *params* must contain everything that can change the discords or
    the logical ledger (num_discords, window geometry, the seed of a
    random inner tail, ...).
    """
    merged = dict(params)
    merged["__cache_engine__"] = engine
    merged["__cache_key_version__"] = CACHE_KEY_VERSION
    return search_fingerprint(series, intervals, merged)


def ensemble_member_key(
    series: np.ndarray,
    *,
    window: int,
    paa_size: int,
    alphabet_size: int,
    params: Optional[dict] = None,
) -> str:
    """Cache key for one :class:`~repro.core.ensemble.EnsembleDetector`
    member: the member's raw evidence (density curve + discords) for one
    series and discretization triple.

    Like every key here, it has no worker count (see module docstring).
    The *params* dict must carry everything else that shapes the stored
    payload (``num_discords``, ``seed``).
    """
    merged = dict(params or {})
    merged.update(
        {
            "__cache_engine__": "ensemble_member",
            "__cache_key_version__": CACHE_KEY_VERSION,
            "window": int(window),
            "paa_size": int(paa_size),
            "alphabet_size": int(alphabet_size),
        }
    )
    return search_fingerprint(series, (), merged)

