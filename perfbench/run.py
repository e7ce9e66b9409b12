"""End-to-end benchmark of the ``repro`` CLI, split by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload find --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds diagnostics (host-speed probes at the start
and end of the run, host-speed factors, environment, sample counts).  See README.md
in this directory for the workloads, the metrics and the run design.

A run generates its inputs, then starts three fresh processes one
after the other.  Each one times a cold ``import repro`` plus a
warm-up request (and, for ``find_warm``, the cache fill); the last one
then serves the timed (or traced) requests in-process through
``repro.cli.main``.  ``setup_s`` is the median over the processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from hostprobe import NOMINAL_S, HostProbe

HERE = os.path.dirname(os.path.abspath(__file__))
#: Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes that time a set-up; ``setup_s`` is their median.
SETUPS = 3
#: Host probes at the start and at the end of a run (drift diagnostic).
DRIFT_PROBES = 30
#: End-to-end timings divided by the host-speed factor (rates multiplied).
HOST_SCALED_TIMES = ("request_p50_ms", "request_p90_ms")
HOST_SCALED_RATES = ("points_per_s",)


def host_factor(probes: list[float]) -> float:
    """How much slower than the reference host the probes ran."""
    return statistics.median(probes) / NOMINAL_S


def write_inputs(workload: str, work: str, limit: int) -> list[dict]:
    """Generate the workload's series files; return the manifest entries."""
    from repro.io import save_series

    specs = workloads.inputs_for(workload)
    if limit:
        specs = specs[:limit]
    entries = []
    os.makedirs(os.path.join(work, "inputs"))
    for spec in specs:
        dataset = spec.factory()
        path = os.path.join(work, "inputs", f"{spec.name}.txt")
        save_series(path, dataset.series)
        entries.append({
            "name": spec.name,
            "path": path,
            "points": dataset.length,
            "window": spec.window,
            "paa_size": spec.paa_size,
            "alphabet_size": spec.alphabet_size,
            "anomalies": [list(a) for a in dataset.anomalies],
        })
    return entries


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)[workloads.reference_name(workload)]


def _reap_group(pgid: int) -> None:
    """Wait until every process of the group has ended; kill stragglers."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def run_child(manifest_path: str, role: str, work: str, index: int, deadline: float) -> dict:
    """Run one child process in its own process group and read its result."""
    out_path = os.path.join(work, f"{role}-{index}.json")
    cache_dir = os.path.join(work, f"cache-{index}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.getcwd(), "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), manifest_path, role,
         out_path, cache_dir],
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # overrun, or the runner itself was stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{role} process exceeded the run deadline") from exc
        raise
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    with open(out_path) as handle:
        return json.load(handle)


def environment(workers: int, c_core: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "c_core_loaded": c_core,
        "ensemble_workers": workers,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the timed phase; whole cycles only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="use only the first N inputs (self-tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Children run in their own process groups, so a stop signal sent to
    # the runner must become an exception that kills them on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a repro checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        with HostProbe() as probe:
            drift_start = probe.take(DRIFT_PROBES)
        workers = max(2, len(os.sched_getaffinity(0)))
        manifest = {
            "workload": args.workload,
            "inputs": write_inputs(args.workload, work, args.limit),
            "reference": load_reference(args.workload),
            "workers": workers,
            "seconds": args.seconds,
        }
        manifest["order"] = workloads.request_order(len(manifest["inputs"]))
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        setups = [
            run_child(manifest_path, "setup", work, i, deadline)
            for i in range(SETUPS - 1)
        ]
        final = run_child(
            manifest_path, "trace" if args.trace else "serve", work,
            SETUPS - 1, deadline,
        )
        setups.append(final)
        with HostProbe() as probe:
            drift_end = probe.take(DRIFT_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    # Each set-up is scaled by the probes its own process took around it.
    setup_factors = [host_factor(s["probes"]) for s in setups]
    serve_factor = host_factor(final["serve_probes"]) if not args.trace else None
    raw = None

    values = dict(final["metrics"])
    if args.trace:
        values["setup.import_ms"] = median_of("import_ms")
        values["setup.warmup_ms"] = median_of("warmup_ms")
        values["setup.cache_fill_ms"] = median_of("cache_fill_ms")
        values["trace.overhead_pct"] = final["overhead_pct"]
        units = metric_units("per_layer")
    else:
        values["setup_s"] = median_of("setup_s")
        units = metric_units("end_to_end")
        raw = dict(values)
        values["setup_s"] = statistics.median(
            s["setup_s"] / f for s, f in zip(setups, setup_factors)
        )
        for name in HOST_SCALED_TIMES:
            values[name] = raw[name] / serve_factor
        for name in HOST_SCALED_RATES:
            values[name] = raw[name] * serve_factor
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {mismatch}")
    correct = (
        final["failed"] == 0
        and all(s["setup_ok"] for s in setups)
        and not final.get("leftover_wrappers")
    )
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": final["attempted"],
        "beyond_p90": final.get("beyond_p90"),
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_host_factors": setup_factors,
        "host_factor": serve_factor,
        "serve_probes": len(final.get("serve_probes", [])),
        "unscaled_metrics": raw,
        "host_probe_s": {
            "start": statistics.median(drift_start),
            "end": statistics.median(drift_end),
        },
        "leftover_wrappers": final.get("leftover_wrappers", []),
        "environment": environment(workers, all(s["c_core_loaded"] for s in setups)),
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": correct,
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in sorted(values)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
