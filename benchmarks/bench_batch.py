"""Kernel-vs-batch wall-time benchmark for the tiled GEMM backend.

Runs the same discord workloads through ``backend="kernel"`` (one BLAS
matrix-vector product per candidate/block) and ``backend="batch"`` (one
``A @ B.T`` GEMM per tile of candidates, through the array-API seam),
verifies the distance-call ledgers are bit-identical, and records wall
times + speedups in ``BENCH_batch.json``:

* **nn_profile** — brute force with early abandoning off: every
  candidate scans every non-trivial match, the workload the tiling is
  built for.  Target >= 2x over the kernel backend at >= 400
  candidates.
* **hotsax** — bucket-ordered scans, dominated by short early-abandoned
  inner loops (no target; the batch head phase keeps it competitive).

Honest measurement notes: wall times are best-of-two single-process
numbers on whatever CPU runs the benchmark — the container this repo is
developed in pins ONE core, so the GEMM cannot win by multithreading;
its advantage here is purely fewer, larger BLAS calls (less per-call
overhead, more cache reuse).  On a multi-core BLAS or a GPU array
namespace the gap widens; on tiny candidate sets (< ~200) the tile
setup overhead can erase it.

Invocations::

    PYTHONPATH=src python benchmarks/bench_batch.py           # full
    PYTHONPATH=src python benchmarks/bench_batch.py --quick   # CI smoke

Running under pytest (``pytest benchmarks/bench_batch.py``) executes
the quick configuration and asserts the accounting invariants.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.datasets.synthetic import sine_with_anomaly
from repro.discord.brute_force import brute_force_discord
from repro.discord.hotsax import hotsax_discords
from repro.timeseries.distance import DistanceCounter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_batch.json"

#: Acceptance threshold: batch speedup over kernel on the NN profile
#: (full scans, >= 400 candidates).
NN_TARGET = 2.0


def _timed(fn, repeats=2):
    """Run *fn* *repeats* times; return ``(result, best_seconds)``.

    Best-of-N guards the speedup ratios against one-off scheduler noise
    on shared CI hosts; the runs are deterministic, so any result is
    representative.
    """
    result = None
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _compare(name, runner, *, target=None):
    """Run *runner(backend)* for kernel and batch; package the numbers.

    ``runner`` returns the run's full split ledger; the ledgers must be
    bit-identical across backends or the benchmark aborts — speed may
    never change logical work.
    """
    kernel_ledger, kernel_seconds = _timed(lambda: runner("kernel"))
    batch_ledger, batch_seconds = _timed(lambda: runner("batch"))
    if kernel_ledger != batch_ledger:
        raise AssertionError(
            f"{name}: ledgers diverged "
            f"(kernel={kernel_ledger}, batch={batch_ledger})"
        )
    speedup = kernel_seconds / batch_seconds if batch_seconds > 0 else float("inf")
    entry = {
        "kernel_seconds": round(kernel_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(speedup, 2),
        "distance_calls": kernel_ledger["calls"],
    }
    if target is not None:
        entry["target_speedup"] = target
        entry["meets_target"] = speedup >= target
    print(
        f"{name:24s} kernel {kernel_seconds:8.3f}s   batch "
        f"{batch_seconds:8.3f}s   speedup {speedup:6.2f}x   "
        f"calls {kernel_ledger['calls']}"
    )
    return entry


def run(quick: bool = False) -> dict:
    """Execute the benchmark matrix; returns the report dict."""
    if quick:
        nn = sine_with_anomaly(length=1200, period=120, seed=11)
        hot = sine_with_anomaly(length=1500, period=100, seed=13)
    else:
        nn = sine_with_anomaly(length=2400, period=120, seed=11)
        hot = sine_with_anomaly(length=4000, period=150, seed=13)
    nn_candidates = nn.series.size - nn.window + 1
    assert nn_candidates >= 400, "NN profile must exercise >= 400 candidates"

    def run_nn(backend):
        counter = DistanceCounter()
        brute_force_discord(
            nn.series, nn.window, counter=counter,
            early_abandon=False, backend=backend,
        )
        return counter.ledger()

    def run_hotsax(backend):
        counter = DistanceCounter()
        hotsax_discords(
            hot.series, hot.window, num_discords=2, counter=counter,
            rng=np.random.default_rng(0), backend=backend,
        )
        return counter.ledger()

    report = {
        "mode": "quick" if quick else "full",
        "notes": (
            "best-of-two wall times on a single-core container; the batch "
            "speedup comes from replacing per-candidate BLAS matvec calls "
            "with one GEMM per candidate tile, not from extra threads"
        ),
        "datasets": {
            "nn_profile": {
                "length": int(nn.series.size),
                "window": int(nn.window),
                "candidates": int(nn_candidates),
            },
            "hotsax": {
                "length": int(hot.series.size),
                "window": int(hot.window),
            },
        },
        "benchmarks": {
            "nn_profile": _compare("nn_profile", run_nn, target=NN_TARGET),
            "hotsax": _compare("hotsax", run_hotsax),
        },
    }
    report["all_targets_met"] = all(
        entry.get("meets_target", True)
        for entry in report["benchmarks"].values()
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets, suitable as a CI smoke test",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[report saved to {args.output}]")
    if not report["all_targets_met"]:
        print("SPEEDUP TARGETS NOT MET")
        return 1
    return 0


def test_batch_quick_smoke(tmp_path):
    """Pytest entry: quick run, identical ledgers, report written."""
    report = run(quick=True)
    path = tmp_path / "BENCH_batch.json"
    path.write_text(json.dumps(report, indent=2))
    for entry in report["benchmarks"].values():
        assert entry["distance_calls"] > 0
        assert entry["batch_seconds"] > 0
    assert report["datasets"]["nn_profile"]["candidates"] >= 400


if __name__ == "__main__":
    raise SystemExit(main())
