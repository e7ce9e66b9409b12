"""JSON checkpointing of discord-search state.

A checkpoint is a plain JSON document capturing everything an RRA run
needs to resume bit-identically: the rank and the outer position it
reached, the best-so-far discords and the distance-call count.  The
inner loops' random tails are keyed by ``(seed, rank, outer position)``,
so no generator state is stored.  Writes are atomic (temp file +
``os.replace``), so a crash mid-save leaves the previous checkpoint
intact.

The checkpoint carries a *fingerprint* of the search inputs (series
bytes, candidate intervals, parameters, the seed among them); resuming
against different inputs raises :class:`~repro.exceptions.
CheckpointError` instead of silently producing garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from typing import Sequence

import numpy as np

from repro.exceptions import CheckpointError

#: Format tag written into (and required from) every checkpoint file.
CHECKPOINT_FORMAT = "repro-search-checkpoint/2"

#: Formats that cannot be resumed, and why.
_RETIRED_FORMATS = {
    "repro-search-checkpoint/1": (
        "its inner loops drew from a NumPy generator whose stream the "
        "search no longer uses, so it cannot be resumed"
    ),
}


# -- input fingerprinting ----------------------------------------------

#: Per-array-object memo of series digests, keyed by ``id(array)``.  A
#: weakref finalizer evicts entries when the array dies, so a recycled
#: id can never resurface a stale digest.  Pipelines, sweeps, and the
#: result cache hash the same (large) series array over and over; this
#: reduces every hash after the first to a dict lookup.  Like any
#: identity memo it assumes the array is not mutated after first use —
#: the same assumption every search layer already makes.
_SERIES_DIGESTS: dict[int, str] = {}


def series_digest(series: np.ndarray) -> str:
    """SHA-256 hex digest of the series' float64 bytes (memoized).

    The digest is over ``np.ascontiguousarray(series, dtype=float)``
    bytes, so logically equal inputs of any layout or dtype agree.
    """
    key = None
    if isinstance(series, np.ndarray):
        key = id(series)
        cached = _SERIES_DIGESTS.get(key)
        if cached is not None:
            return cached
    digest = hashlib.sha256(
        np.ascontiguousarray(series, dtype=float).tobytes()
    ).hexdigest()
    if key is not None:
        try:
            weakref.finalize(series, _SERIES_DIGESTS.pop, key, None)
        except TypeError:  # pragma: no cover - weakref-less ndarray subclass
            pass
        else:
            _SERIES_DIGESTS[key] = digest
    return digest


def search_fingerprint(
    series: np.ndarray,
    intervals: Sequence,
    params: dict,
) -> str:
    """Digest of the search inputs, for resume-time validation.

    Covers the series content (via the memoized :func:`series_digest`),
    every candidate interval's ``(rule_id, start, end, usage)`` tuple,
    and the search parameters — anything that could change the
    visitation order or the distances.

    The intervals enter as the text ``"r,s,e,u;"`` per interval, all
    formatted in one pass over the rows of their
    :class:`~repro.grammar.intervals.RuleIntervalList` table (a list or
    tuple is converted first), so no interval object is needed.
    """
    # Imported here: the checkpoint layer does not otherwise depend on
    # the grammar package.
    from repro.grammar.intervals import RuleIntervalList

    table = RuleIntervalList.of(intervals).table
    digest = hashlib.sha256()
    digest.update(series_digest(series).encode())
    digest.update(
        (("%d,%d,%d,%d;" * table.shape[1]) % tuple(table.T.ravel().tolist())).encode()
    )
    digest.update(json.dumps(params, sort_keys=True).encode())
    return digest.hexdigest()


# -- atomic JSON persistence -------------------------------------------


def save_checkpoint(path: str, data: dict) -> None:
    """Atomically write *data* as JSON to *path*.

    The document is written to a temp file in the target directory and
    moved into place, so readers never observe a half-written file and a
    crash mid-write preserves the previous checkpoint.
    """
    payload = dict(data)
    payload["format"] = CHECKPOINT_FORMAT
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint document.

    Raises
    ------
    CheckpointError
        If the file is unreadable, not JSON, or not a checkpoint of the
        supported format.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    found = data.get("format") if isinstance(data, dict) else None
    if found in _RETIRED_FORMATS:
        raise CheckpointError(
            f"{path} is a {found} checkpoint: {_RETIRED_FORMATS[found]}; "
            f"restart the search"
        )
    if found != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} checkpoint (format={found!r})"
        )
    return data
