"""(De)serialization of the discords a cache entry or a checkpoint stores.

Besides its discords, a cached search entry stores ``"ledger": {"calls":
n}``: the distance calls the search *added* to its
:class:`~repro.timeseries.distance.DistanceCounter`, not the counter's
absolute reading, because callers routinely thread one counter through
several searches (the sweep, the pipeline's fallback path).  Adding it
on a hit reproduces exactly the increment the live search would have
made (:class:`repro.discord.search.SearchSession`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.anomaly import Discord

__all__ = ["discords_to_json", "discords_from_json"]


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
