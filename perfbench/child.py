"""One benchmark process: cold set-up, then optionally the measured phase.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py <manifest.json> <role> <out.json> <cache-dir>

*role* is ``setup`` (set up once and exit), ``serve`` (set up, then the
untraced timed phase) or ``trace`` (set up, then the traced phase).
The manifest, written by ``run.py``, names the workload, the input
files, the request order, the reference answers and the run length;
*cache-dir* is a fresh directory for ``find_warm``'s cache.

Nothing but the standard library is imported before the set-up timer
starts, so ``import repro`` is cold.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads
from hostprobe import HostProbe
from tracer import LAYERS, Tracer


def _request(argv, tracer=None):
    """Run one CLI request in-process; return (exit code, stdout, stderr, seconds).

    Output capture is created and the collector run before the timer
    starts, so neither lands in the request's latency.  With a
    *tracer*, the request's span record is left in ``tracer.last``.
    """
    from repro.cli import main

    call = (lambda: main(argv)) if tracer is None else (lambda: tracer.run(main, argv))
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call()
        except (Exception, SystemExit) as exc:  # a failed request, not a crash
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


#: Host probes taken after each timed request, and before and after
#: each set-up (see ``hostprobe.py``).
PROBES_PER_REQUEST = 3
PROBES_AROUND_SETUP = 5


class Session:
    """The workload as one client sees it: inputs, order, answer checks."""

    def __init__(self, manifest: dict, cache_dir: str) -> None:
        self.workload = manifest["workload"]
        self.inputs = manifest["inputs"]
        self.order = manifest["order"]
        self.cache_dir = cache_dir
        self.workers = manifest["workers"]
        self.reference = manifest["reference"]
        self.truth = None

    def argv(self, entry, **overrides):
        opts = {"workers": self.workers, "cache_dir": self.cache_dir, **overrides}
        return workloads.command(self.workload, entry, **opts)

    def check(self, entry, code, stdout, stderr) -> tuple[bool, bool]:
        """(answer equals the reference, top answer hits a planted anomaly)."""
        if code != 0:
            return False, False
        got = workloads.answer(self.workload, entry, stdout)
        ok = got["key"] == self.reference[entry["name"]]
        if self.workload == "find_warm":
            ok = ok and workloads.CACHE_HIT_LINE in stderr
        if self.truth is None:
            import numpy as np
            from repro.datasets.base import Dataset

            self.truth = {
                e["name"]: Dataset(
                    e["name"],
                    np.zeros(e["points"]),
                    anomalies=[tuple(a) for a in e["anomalies"]],
                )
                for e in self.inputs
            }
        top = got["top"]
        hit = top is not None and self.truth[entry["name"]].contains_hit(*top)
        return ok, hit


def set_up(session: Session, probe: HostProbe) -> dict:
    """Cold import, cache fill (``find_warm``), one untimed warm-up request.

    The host is probed before and after set-up and between its steps,
    outside the timed steps, so each set-up is scaled by the host's
    speed while it ran.
    """
    probes = probe.take(PROBES_AROUND_SETUP)
    start = time.perf_counter()
    import repro.cli  # noqa: F401  -- the cold import being timed

    import_s = time.perf_counter() - start
    probes += probe.take(1)
    fill_s, fill_failures = 0.0, 0
    if session.workload == "find_warm":
        for entry in session.inputs:
            start = time.perf_counter()
            code, out, err, _ = _request(session.argv(entry))
            fill_s += time.perf_counter() - start
            fill_failures += code != 0
            probes += probe.take(1)
    start = time.perf_counter()
    code, out, err, _ = _request(session.argv(session.inputs[0]))
    warmup_s = time.perf_counter() - start
    probes += probe.take(PROBES_AROUND_SETUP)
    from repro.grammar import ccore

    return {
        "setup_s": import_s + fill_s + warmup_s,
        "import_ms": import_s * 1e3,
        "cache_fill_ms": fill_s * 1e3,
        "warmup_ms": warmup_s * 1e3,
        "setup_ok": fill_failures == 0 and code == 0,
        "c_core_loaded": ccore.load() is not None,
        "probes": probes,
    }


def _cycles(session: Session, seconds: float):
    """Yield inputs round-robin in the fixed order, whole cycles only."""
    start = time.perf_counter()
    while True:
        for idx in session.order:
            yield session.inputs[idx]
        if time.perf_counter() - start >= seconds:
            return


def serve(session: Session, seconds: float, probe: HostProbe) -> dict:
    latencies, probes, points, ok, hits = [], [], 0, 0, 0
    peak = PeakRss(exclude=probe.pid)
    for entry in _cycles(session, seconds):
        code, out, err, latency = _request(session.argv(entry))
        answer_ok, hit = session.check(entry, code, out, err)
        peak.sample()
        probes += probe.take(PROBES_PER_REQUEST)
        latencies.append(latency)
        points += entry["points"]
        ok += answer_ok
        hits += hit
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {
        "attempted": n,
        "failed": n - ok,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "serve_probes": probes,
        "metrics": {
            "points_per_s": points / sum(latencies),
            "request_p50_ms": statistics.median(latencies) * 1e3,
            "request_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak.megabytes(),
            "answer_ok_rate": ok / n,
            "truth_hit_rate": hits / n,
        },
    }


class PeakRss:
    """Peak resident memory of this process and of every process it started.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` covers only children that have
    been waited for, so a pool whose workers outlive the request would
    drop out of it.  :meth:`sample`, called after each request, also
    reads the peak (``VmHWM``) of every descendant still alive.  The
    host probe process (*exclude*) is not part of the program.
    """

    def __init__(self, exclude: int) -> None:
        self.exclude = exclude
        self.live_kb = 0

    def sample(self) -> None:
        for pid in _descendants(os.getpid()):
            if pid != self.exclude:
                self.live_kb = max(self.live_kb, _hwm_kb(pid))

    def megabytes(self) -> float:
        self.sample()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, reaped, self.live_kb) / 1024.0  # KiB on Linux


def _descendants(pid: int) -> list[int]:
    found, stack = [], [pid]
    while stack:
        for path in glob.glob(f"/proc/{stack.pop()}/task/*/children"):
            try:
                with open(path) as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:  # the process ended meanwhile
                continue
            found += children
            stack += children
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def trace(session: Session, seconds: float) -> dict:
    """Traced phase: per-layer self time, counters and tracing overhead.

    Each input is requested untraced and traced, back to back, so host
    drift hits both requests of a pair alike; which of the two goes
    first alternates, so the second request's warmer caches favour
    neither side.  The overhead is the median traced/untraced ratio over
    the pairs, which single slow requests do not move.  The wrappers
    exist only around the traced request.
    """
    tracer = Tracer()
    attempted = failed = 0

    def traced(argv):
        nonlocal attempted, failed
        tracer.install()
        try:
            code, out, err, _ = _request(argv, tracer)
        finally:
            tracer.uninstall()
        attempted += 1
        failed += code != 0
        return code, out, err, tracer.last

    records, ratios = [], []
    for i, entry in enumerate(_cycles(session, seconds)):
        argv = session.argv(entry)
        if i % 2:
            code, out, err, record = traced(argv)
        code_u, out_u, err_u, latency = _request(argv)
        if not i % 2:
            code, out, err, record = traced(argv)
        attempted += 1
        failed += not session.check(entry, code_u, out_u, err_u)[0]
        failed += code == 0 and not session.check(entry, code, out, err)[0]
        records.append(record)
        ratios.append(record["wall"] / latency)

    # Timed find_warm requests are all cache hits, so the writes are
    # traced on a second cold fill, into a directory of its own.
    fills = []
    if session.workload == "find_warm":
        for entry in session.inputs:
            argv = session.argv(entry, cache_dir=session.cache_dir + "-traced")
            fills.append(traced(argv)[3])

    # Pool workers are out of the tracer's reach, so one serial pass
    # measures what the ensemble members cost in-process.
    serial = []
    if session.workload == "ensemble":
        for entry in session.inputs:
            code, out, err, record = traced(session.argv(entry, workers=1))
            failed += code == 0 and not session.check(entry, code, out, err)[0]
            serial.append(record)

    return {
        "attempted": attempted,
        "failed": failed,
        "leftover_wrappers": Tracer.leftovers(),
        "metrics": layer_metrics(records, fills, serial, session.workers),
        "overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
    }


def layer_metrics(records, fills, serial, workers) -> dict:
    """Per-request means of the traced layers (times in ms).

    ``cache.put_ms`` is the mean over the cold-fill requests in *fills*
    (no timed request writes), ``ensemble.member_ms`` the mean over the
    serial pass in *serial*; both are 0 where the workload has none.
    """
    n = len(records)

    def total(kind, key, recs=records):
        return sum(r[kind].get(key, 0) for r in recs)

    out = {f"{layer}_ms": total("self", layer) * 1e3 / n for layer in LAYERS}
    out["cache.put_ms"] = (
        total("self", "cache.put", fills) * 1e3 / len(fills) if fills else 0.0
    )
    for count in ("sax.words", "grammar.rules", "rra.distance_calls",
                  "ensemble.members", "parallel.tasks"):
        out[count] = total("counts", count) / n
    calls = total("counts", "rra.distance_calls")
    out["rra.us_per_call"] = total("self", "rra.search") * 1e6 / calls if calls else 0.0
    gets = total("counts", "cache.gets")
    out["cache.hit_rate"] = total("counts", "cache.hits") / gets if gets else 0.0
    member_ms = (
        total("counts", "ensemble.member_s", serial) * 1e3 / len(serial)
        if serial else 0.0
    )
    out["ensemble.member_ms"] = member_ms
    fanout = out["parallel.fanout_ms"]
    out["parallel.efficiency"] = member_ms / (workers * fanout) if fanout else 0.0
    out["request.unaccounted_ms"] = total("self", "unaccounted") * 1e3 / n
    out["request.wall_ms"] = sum(r["wall"] for r in records) * 1e3 / n
    return out


def main() -> int:
    manifest_path, role, out_path, cache_dir = sys.argv[1:5]
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    session = Session(manifest, cache_dir)
    with HostProbe() as probe:
        result = set_up(session, probe)
        if role == "serve":
            result.update(serve(session, manifest["seconds"], probe))
        elif role == "trace":
            result.update(trace(session, manifest["seconds"]))
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
