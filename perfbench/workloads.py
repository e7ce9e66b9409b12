"""Workload definitions for the end-to-end ``repro`` CLI benchmark.

A workload is a list of inputs (synthetic series with planted
anomalies), the CLI command run on each, and the rule that reads the
command's answer out of its output.  Only the standard library is
imported at module level: the benchmark's child process imports this
module before it times a cold ``import repro``, so anything heavier
would be paid outside the measurement.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("find", "density", "ensemble", "find_warm")

#: The line ``repro find`` prints to stderr when the discord search
#: was served by ``--cache-dir``.
CACHE_HIT_LINE = "discord search answered from cache"


@dataclass(frozen=True)
class InputSpec:
    """One benchmark input: a generator plus its Table-1 parameters."""

    name: str
    window: int
    paa_size: int
    alphabet_size: int
    factory: Callable


def _table1_inputs() -> list[InputSpec]:
    from repro.datasets.registry import table1_rows

    return [
        InputSpec(r.key, r.window, r.paa_size, r.alphabet_size, r.factory)
        for r in table1_rows()
    ]


def _long_inputs() -> list[InputSpec]:
    """Long series (35k-100k points) from three generator families.

    Each family keeps its Table-1 (W, P, A); only the length grows, so
    the work is dominated by the O(n) front half, not the search.
    """
    from repro.datasets.ecg import ecg_record_like
    from repro.datasets.power import dutch_power_demand_like
    from repro.datasets.respiration import respiration_like

    return [
        InputSpec(
            "respiration_35k", 128, 5, 4,
            lambda: respiration_like(
                length=35_000, name="respiration_35k", seed=43,
                anomaly_start_fraction=0.3,
            ),
        ),
        InputSpec(
            "power_52w", 750, 6, 3,
            lambda: dutch_power_demand_like(weeks=52),
        ),
        InputSpec(
            "ecg_60k", 300, 4, 4,
            lambda: ecg_record_like(
                "108", length=60_000, num_anomalies=2, seed=108
            ),
        ),
        InputSpec(
            "respiration_50k", 128, 5, 4,
            lambda: respiration_like(
                length=50_000, name="respiration_50k", seed=44
            ),
        ),
        InputSpec(
            "ecg_100k", 300, 4, 4,
            lambda: ecg_record_like(
                "300", length=100_000, num_anomalies=3, seed=300
            ),
        ),
    ]


def inputs_for(workload: str) -> list[InputSpec]:
    """The workload's inputs in canonical order."""
    if workload == "density":
        return _long_inputs()
    if workload in WORKLOADS:
        return _table1_inputs()
    raise ValueError(f"unknown workload {workload!r}")


#: Seed of the request order.  It is a constant, not ``--seed``: which
#: rows run before the memory-heaviest one moves the peak heap by tens
#: of MB, so one order for every run keeps ``peak_rss_mb`` steady.
ORDER_SEED = 20150323


def request_order(count: int) -> list[int]:
    """The round-robin order: one fixed permutation, repeated per cycle."""
    order = list(range(count))
    random.Random(ORDER_SEED).shuffle(order)
    return order


def command(workload: str, entry: dict, *, workers: int, cache_dir: str) -> list[str]:
    """The ``repro`` argv for one request on one input."""
    path = entry["path"]
    sax = [
        "-w", str(entry["window"]),
        "-p", str(entry["paa_size"]),
        "-a", str(entry["alphabet_size"]),
    ]
    if workload == "find":
        return ["find", path, *sax, "-k", "3", "--backend", "kernel", "--workers", "1"]
    if workload == "find_warm":
        return [
            "find", path, *sax, "-k", "3", "--backend", "kernel",
            "--workers", "1", "--cache-dir", cache_dir,
        ]
    if workload == "density":
        return ["density", path, *sax]
    if workload == "ensemble":
        return ["ensemble", path, "--workers", str(workers)]
    raise ValueError(f"unknown workload {workload!r}")


# -- answers -----------------------------------------------------------------


def _table_rows(stdout: str, header: str) -> list[list[str]]:
    """Whitespace-split rows of the table that follows *header*."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.split()[:1] == [header]:
            rows = []
            for row in lines[i + 1:]:
                if not row.strip():
                    break
                if set(row.replace(" ", "")) == {"-"}:
                    continue
                rows.append(row.split())
            return rows
    return []


def answer(workload: str, entry: dict, stdout: str) -> dict:
    """The answer a request printed, and its top interval.

    ``key`` is what must equal the reference bit for bit: the anomaly
    table of ``find`` (rank, position, length, score, source), the
    discord table of ``ensemble``, and the SHA-256 of the density curve
    for ``density``.  ``top`` is the interval the truth check scores.
    """
    if workload in ("find", "find_warm"):
        rows = _table_rows(stdout, "Rank")
        rra = [r for r in rows if r[-1] == "rra"]
        top = None
        if rra:
            start, length = int(rra[0][1]), int(rra[0][2])
            top = [start, start + length]
        return {"key": [" ".join(r) for r in rows], "top": top}
    if workload == "ensemble":
        rows = _table_rows(stdout, "rank")
        top = [int(rows[0][1]), int(rows[0][2])] if rows else None
        return {"key": [" ".join(r) for r in rows], "top": top}
    if workload == "density":
        curve = [int(v) for v in stdout.split()]
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return {"key": digest, "top": _lowest_density(curve, entry["window"])}
    raise ValueError(f"unknown workload {workload!r}")


def _lowest_density(curve: list[int], edge: int) -> list[int] | None:
    """The first maximal run at the curve's minimum, one window in from the ends."""
    if len(curve) <= 2 * edge:
        return None
    lo = min(curve[edge:-edge])
    start = curve.index(lo, edge, len(curve) - edge)
    end = start
    while end < len(curve) - edge and curve[end] == lo:
        end += 1
    return [start, end]



def reference_name(workload: str) -> str:
    """The reference answers a workload is checked against.

    ``find_warm`` prints exactly what ``find`` prints.
    """
    return "find" if workload == "find_warm" else workload
