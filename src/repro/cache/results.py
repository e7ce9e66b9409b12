"""(De)serialization of cached search results and ledger deltas.

A cached entry stores the search's *ledger delta* — what the search
added to its :class:`~repro.timeseries.distance.DistanceCounter` — not
the counter's absolute state, because callers routinely thread one
counter through several searches (the sweep, the pipeline's fallback
path).  Applying the delta on a hit reproduces exactly the increments
the live search would have made, so downstream call accounting is
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.anomaly import Discord
from repro.timeseries.distance import DistanceCounter

__all__ = [
    "LEDGER_FIELDS",
    "ledger_delta",
    "apply_ledger_delta",
    "discords_to_json",
    "discords_from_json",
]

LEDGER_FIELDS = ("calls",)


def ledger_delta(before: dict, after: dict) -> dict:
    """What a search added to its counter between two ledger snapshots."""
    return {
        field: int(after[field]) - int(before[field])
        for field in LEDGER_FIELDS
    }


def apply_ledger_delta(counter: DistanceCounter, delta: dict) -> None:
    """Replay a stored ledger delta onto a live counter (cache hit)."""
    counter.calls += int(delta.get("calls", 0))


def discords_to_json(discords: Iterable[Discord]) -> list:
    """JSON-able encoding of a discord list, lossless for every field."""
    return [
        {
            "start": int(d.start),
            "end": int(d.end),
            "score": float(d.score),
            "rank": int(d.rank),
            "nn_distance": float(d.nn_distance),
            "rule_id": d.rule_id,
            "source": d.source,
        }
        for d in discords
    ]


def discords_from_json(entries: Sequence[dict]) -> list:
    """Rebuild :class:`Discord` objects from :func:`discords_to_json`."""
    return [
        Discord(
            start=int(entry["start"]),
            end=int(entry["end"]),
            score=float(entry["score"]),
            rank=int(entry["rank"]),
            nn_distance=float(entry["nn_distance"]),
            rule_id=(
                None if entry["rule_id"] is None else int(entry["rule_id"])
            ),
            source=str(entry["source"]),
        )
        for entry in entries
    ]
