"""JSON checkpointing of discord-search state.

A checkpoint is a plain JSON document capturing everything an RRA run
needs to resume bit-identically: which candidates the outer loop has
visited, the best-so-far discords, the distance-call count, and the
exact NumPy RNG state.  Writes are atomic (temp file + ``os.replace``),
so a crash mid-save leaves the previous checkpoint intact.

The checkpoint carries a *fingerprint* of the search inputs (series
bytes, candidate intervals, parameters); resuming against different
inputs raises :class:`~repro.exceptions.CheckpointError` instead of
silently producing garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from typing import Any, Sequence

import numpy as np

from repro.exceptions import CheckpointError

#: Format tag written into (and required from) every checkpoint file.
CHECKPOINT_FORMAT = "repro-search-checkpoint/1"


# -- RNG state (de)serialization ----------------------------------------


def _encode(value: Any) -> Any:
    """Recursively make a bit_generator state dict JSON-serializable."""
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    return value


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {k: _decode(v) for k, v in value.items()}
    return value


def rng_state_to_json(rng: np.random.Generator) -> dict:
    """Capture a Generator's full state as a JSON-serializable dict."""
    return {
        "bit_generator": type(rng.bit_generator).__name__,
        "state": _encode(rng.bit_generator.state),
    }


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a Generator from :func:`rng_state_to_json` output."""
    name = state.get("bit_generator")
    factory = getattr(np.random, str(name), None)
    if factory is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint")
    bit_generator = factory()
    try:
        bit_generator.state = _decode(state["state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed RNG state in checkpoint: {exc}") from exc
    return np.random.Generator(bit_generator)


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
    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} checkpoint "
            f"(format={data.get('format') if isinstance(data, dict) else None!r})"
        )
    return data
