"""Self-tests of the benchmark: output contract, answer checks, tracing.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The smoke runs use the first two inputs of each workload, so the whole
file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer, _resolve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--limit", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    diagnostics = json.loads(lines[-2])["diagnostics"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return diagnostics, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_smoke(workload):
    diagnostics, result = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert result["metrics"]["answer_ok_rate"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(diagnostics["setup_s_samples"]) == 3
    assert len(diagnostics["setup_host_factors"]) == 3
    assert diagnostics["host_probe_s"]["start"] > 0
    assert diagnostics["host_probe_s"]["end"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke(workload):
    diagnostics, result = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["correct"] is True
    assert diagnostics["leftover_wrappers"] == []
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # cache.put_ms is measured on the cold fill, not on the timed requests.
    layers = sum(values[f"{layer}_ms"] for layer in LAYERS if layer != "cache.put")
    total = layers + values["request.unaccounted_ms"]
    assert total == pytest.approx(values["request.wall_ms"], rel=1e-6)
    assert values["request.unaccounted_ms"] >= 0
    if workload == "ensemble":
        assert values["parallel.tasks"] > 0 and values["ensemble.member_ms"] > 0
    if workload == "find_warm":
        assert values["cache.hit_rate"] == 1.0 and values["cache.put_ms"] > 0
        assert values["rra.distance_calls"] == 0
    if workload == "find":
        assert values["rra.distance_calls"] > 0 and values["cache.get_ms"] == 0


def _series_file(tmp_path):
    t = np.arange(3000)
    series = np.sin(2 * np.pi * t / 150)
    series[1500:1600] = -series[1500:1600]
    path = tmp_path / "series.txt"
    np.savetxt(path, series)
    return str(path)


def test_self_times_add_up_to_wall(tmp_path):
    from repro.cli import main

    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run(main, ["find", _series_file(tmp_path), "-w", "100"])
    finally:
        tracer.uninstall()
    assert code == 0
    record = tracer.last
    assert sum(record["self"].values()) == pytest.approx(record["wall"], rel=1e-9)
    assert record["self"]["rra.search"] > 0
    assert record["counts"]["rra.distance_calls"] > 0
    assert all(v >= 0 for v in record["self"].values())


def test_no_wrapper_survives_uninstall(tmp_path):
    from repro.cli import main

    def current(owner, attr):
        obj = _resolve(owner)
        return obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)

    before = [current(owner, attr) for owner, attr, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    assert len(Tracer.leftovers()) == len(TARGETS)
    tracer.uninstall()
    assert Tracer.leftovers() == []
    after = [current(owner, attr) for owner, attr, _ in TARGETS]
    assert all(a is b for a, b in zip(before, after))
    # An untraced request after uninstall records nothing.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["density", _series_file(tmp_path), "-w", "100"]) == 0
    assert tracer.last is None


REPORT = "Anomalies:\nRank  Position  Length  Score  Source\n----\n0  5  10  1.00000  rra\n"


def test_peak_rss_counts_live_child_processes():
    import child

    hold = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; b = bytearray(80 << 20); b[::4096] = b'x' * len(b[::4096]); "
         "print('up', flush=True); sys.stdin.read()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert hold.stdout.readline().strip() == "up"
        peak = child.PeakRss(exclude=-1)
        peak.sample()
        assert peak.live_kb >= 80 * 1024
        peak = child.PeakRss(exclude=hold.pid)
        peak.sample()
        assert peak.live_kb < 80 * 1024
    finally:
        hold.stdin.close()
        hold.wait()


def test_answer_keys_are_exact():
    entry = {"name": "x", "window": 2}
    reference = workloads.answer("density", entry, "1\n2\n3\n")["key"]
    assert workloads.answer("density", entry, "1\n2\n4\n")["key"] != reference
    got = workloads.answer("find", entry, REPORT)
    assert got["top"] == [5, 15] and got["key"] == ["0 5 10 1.00000 rra"]


def test_find_warm_fails_without_the_cache_hit_line():
    import child

    entry = {"name": "x", "points": 100, "anomalies": [[5, 15]], "window": 2}
    manifest = {
        "workload": "find_warm", "inputs": [entry], "order": [0], "workers": 2,
        "reference": {"x": workloads.answer("find", entry, REPORT)["key"]},
    }
    session = child.Session(manifest, "unused")
    assert session.check(entry, 0, REPORT, workloads.CACHE_HIT_LINE) == (True, True)
    assert session.check(entry, 0, REPORT, "")[0] is False
    assert session.check(entry, 1, REPORT, workloads.CACHE_HIT_LINE) == (False, False)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "find", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
