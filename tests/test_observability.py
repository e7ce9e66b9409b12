"""Unit tests for the observability layer (registry, reports, CLI flags).

The end-to-end guarantees (disabled path bit-identical, parallel merge
determinism) live in ``tests/test_golden_counts.py``; this module covers
the registry primitives, snapshot/merge/restore algebra, the JSONL
report format, and the engine/CLI wiring.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import GrammarAnomalyDetector
from repro.datasets.synthetic import sine_with_anomaly
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import ParameterError
from repro.observability import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Timer,
    deterministic_view,
    ensure_metrics,
    read_run_report,
    write_run_report,
)
from repro.observability.report import REPORT_FORMAT
from repro.resilience import SearchBudget


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ParameterError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_power_of_two_buckets(self):
        h = Histogram()
        for v in (0, 0.5, 1, 2, 3, 4, 7, 8, 1000):
            h.observe(v)
        d = h.to_dict()
        # [0,1) -> 0, [1,2) -> 1, [2,4) -> 2, [4,8) -> 3, [8,16) -> 4, 1000 -> 10
        assert d["buckets"] == {"0": 2, "1": 1, "2": 2, "3": 2, "4": 1, "10": 1}
        assert d["count"] == 9
        assert d["min"] == 0 and d["max"] == 1000
        with pytest.raises(ParameterError):
            h.observe(-1)

    def test_timer_accumulates(self):
        t = Timer()
        with t:
            pass
        t.add(1.25)
        assert t.count == 2
        assert t.seconds >= 1.25


class TestRegistry:
    def test_accessors_are_memoized(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("g") is m.gauge("g")
        assert m.histogram("h") is m.histogram("h")
        assert m.timer("t") is m.timer("t")

    def test_events_are_sequenced(self):
        m = MetricsRegistry()
        first = m.event("alpha", x=1)
        second = m.event("beta")
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["attrs"] == {"x": 1}
        assert "attrs" not in second
        assert "ts" in first

    def test_span_emits_start_and_end(self):
        m = MetricsRegistry()
        with m.span("phase", rank=2):
            m.event("inside")
        names = [e["name"] for e in m.events]
        assert names == ["phase.start", "inside", "phase.end"]
        assert m.events[0]["attrs"] == {"rank": 2}
        end_attrs = m.events[2]["attrs"]
        assert end_attrs["rank"] == 2 and "seconds" in end_attrs

    def test_snapshot_roundtrip_through_json(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(4)
        with m.timer("t"):
            pass
        snap = json.loads(json.dumps(m.snapshot()))
        clone = MetricsRegistry().merge_snapshot(snap)
        # timers carry wall time; everything else must be identical
        a, b = clone.snapshot(), m.snapshot()
        for section in ("counters", "gauges", "histograms"):
            assert a[section] == b[section]
        assert a["timers"]["t"]["count"] == 1

    def test_merge_snapshot_is_additive_and_commutative(self):
        def build(c, h):
            m = MetricsRegistry()
            m.counter("c").inc(c)
            m.histogram("h").observe(h)
            m.gauge("g").set(c)
            return m

        ab = MetricsRegistry()
        ab.merge_snapshot(build(1, 2).snapshot())
        ab.merge_snapshot(build(10, 200).snapshot())
        ba = MetricsRegistry()
        ba.merge_snapshot(build(10, 200).snapshot())
        ba.merge_snapshot(build(1, 2).snapshot())
        a, b = ab.snapshot(), ba.snapshot()
        assert a["counters"] == b["counters"] == {"c": 11}
        assert a["histograms"] == b["histograms"]
        assert a["histograms"]["h"]["count"] == 2
        # gauges are last-write-wins, the one documented non-commutative bit
        assert a["gauges"] == {"g": 10.0} and b["gauges"] == {"g": 1.0}

    def test_merge_snapshot_none_is_noop(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        before = m.snapshot()
        m.merge_snapshot(None)
        assert m.snapshot() == before

    def test_restore_continues_event_sequence(self):
        old = MetricsRegistry()
        old.counter("c").inc(2)
        old.event("checkpoint.saved")
        fresh = MetricsRegistry()
        fresh.restore(old.snapshot(), old.events)
        nxt = fresh.event("resumed.work")
        assert nxt["seq"] == 1
        assert [e["seq"] for e in fresh.events] == [0, 1]
        assert fresh.snapshot()["counters"] == {"c": 2}


class TestNullMetrics:
    def test_ensure_metrics(self):
        assert ensure_metrics(None) is NULL_METRICS
        m = MetricsRegistry()
        assert ensure_metrics(m) is m

    def test_disabled_sink_is_inert(self):
        n = NullMetrics()
        assert not n.enabled
        n.counter("c").inc(5)
        n.gauge("g").set(1)
        n.histogram("h").observe(2)
        with n.timer("t"):
            pass
        with n.span("phase", rank=1):
            n.event("x", y=2)
        assert n.events == []
        assert n.snapshot() is None
        assert n.merge_snapshot({"counters": {"c": 1}}) is n


class TestRunReport:
    def _registry(self):
        m = MetricsRegistry()
        m.counter("search.candidates_visited").inc(7)
        with m.span("search.rank", rank=0):
            m.event("budget.tripped", reason="max_calls")
        return m

    def test_report_structure(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_run_report(str(path), self._registry(), meta={"engine": "rra"})
        lines = list(read_run_report(str(path)))
        assert lines[0]["type"] == "meta"
        assert lines[0]["format"] == REPORT_FORMAT
        assert lines[0]["engine"] == "rra"
        assert [l["name"] for l in lines[1:-1]] == [
            "search.rank.start",
            "budget.tripped",
            "search.rank.end",
        ]
        assert all(l["type"] == "event" for l in lines[1:-1])
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["counters"] == {"search.candidates_visited": 7}

    def test_deterministic_view_strips_wall_clock(self, tmp_path):
        path = tmp_path / "report.jsonl"
        write_run_report(str(path), self._registry())
        view = deterministic_view(read_run_report(str(path)))
        for entry in view:
            assert "ts" not in entry
            assert "timers" not in entry
            attrs = entry.get("attrs", {})
            assert "seconds" not in attrs
        # and it must not mutate the caller's parsed lines
        lines = list(read_run_report(str(path)))
        deterministic_view(lines)
        assert any("ts" in l for l in lines)

    def test_reports_deterministic_across_runs(self, tmp_path):
        series = sine_with_anomaly(length=800, period=80, seed=4).series
        views = []
        for run in range(2):
            path = tmp_path / f"report-{run}.jsonl"
            detector = GrammarAnomalyDetector(window=40, paa_size=4, alphabet_size=4)
            detector.fit(series)
            detector.discords(num_discords=2, report_path=str(path))
            views.append(deterministic_view(read_run_report(str(path))))
        assert views[0] == views[1]


class TestEngineWiring:
    def test_enabled_metrics_do_not_change_results(self):
        series = sine_with_anomaly(length=700, period=70, seed=9).series
        plain = hotsax_discords(series, 40, num_discords=2)
        m = MetricsRegistry()
        traced = hotsax_discords(series, 40, num_discords=2, metrics=m)
        assert [(d.start, d.end, d.score) for d in traced.discords] == [
            (d.start, d.end, d.score) for d in plain.discords
        ]
        assert traced.distance_calls == plain.distance_calls
        counters = m.snapshot()["counters"]
        assert counters["search.candidates_visited"] > 0
        ranks = [e for e in m.events if e["name"] == "search.rank_complete"]
        assert len(ranks) == 2
        ledgers = [r["attrs"]["ledger"] for r in ranks]
        assert sum(l["calls"] for l in ledgers) == plain.distance_calls
        assert all(set(ledger) == {"calls"} for ledger in ledgers)

    def test_budget_trip_becomes_trace_event(self):
        series = sine_with_anomaly(length=700, period=70, seed=9).series
        m = MetricsRegistry()
        result = hotsax_discords(
            series,
            40,
            num_discords=2,
            budget=SearchBudget(max_calls=100),
            metrics=m,
        )
        assert not result.complete
        trips = [e for e in m.events if e["name"] == "budget.tripped"]
        assert len(trips) == 1
        assert trips[0]["attrs"]["reason"] == "max_calls"


class TestCLI:
    def _run(self, tmp_path, *extra):
        series = sine_with_anomaly(length=600, period=60, seed=2).series
        csv = tmp_path / "series.csv"
        np.savetxt(csv, series)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "find", str(csv), "-w", "40", *extra],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_trace_prints_events_to_stderr(self, tmp_path):
        proc = self._run(tmp_path, "--trace")
        assert proc.returncode == 0, proc.stderr
        assert "search.rank_complete" in proc.stderr
        assert "search.candidates_visited" in proc.stderr

    def test_metrics_out_writes_parsable_report(self, tmp_path):
        out = tmp_path / "run.jsonl"
        proc = self._run(tmp_path, "--metrics-out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = list(read_run_report(str(out)))
        assert lines[0]["type"] == "meta"
        assert lines[0]["engine"] == "rra"
        assert lines[-1]["type"] == "metrics"

    def test_default_run_has_no_observability_output(self, tmp_path):
        proc = self._run(tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "search.rank_complete" not in proc.stderr
        assert "run report" not in proc.stdout
