"""Observability: metrics, tracing spans, and JSONL run reports.

The paper's efficiency argument rests on one number — distance-function
calls (§6: "≥99% of runtime") — and several layers of machinery
(vector kernels, anytime budgets, process pools, caches) now sit on
top of that counter.  This package makes what a search *did* a
first-class artifact:

* :mod:`repro.observability.metrics` — a zero-dependency registry of
  counters / gauges / histograms / timers plus lightweight tracing
  spans, with a no-op :class:`NullMetrics` sink as the default;
* :mod:`repro.observability.report` — structured JSONL run reports
  (deterministic for a fixed seed, wall-time fields excluded).

Pass ``metrics=MetricsRegistry()`` to any discord engine,
``GrammarAnomalyDetector(metrics=...)``, or
``pipeline.discords(report_path=...)``; the CLI exposes the same via
``--trace`` / ``--metrics-out PATH``.  With the default (disabled)
sink, results and logical distance-call ledgers are byte-identical to
an uninstrumented run — pinned by the golden-count regression suite.
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
    Timer,
    ensure_metrics,
)
from repro.observability.report import (
    deterministic_view,
    read_run_report,
    write_run_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "ensure_metrics",
    "write_run_report",
    "read_run_report",
    "deterministic_view",
]
