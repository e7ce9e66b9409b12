"""Zero-dependency metrics registry: counters, gauges, histograms, timers.

The paper's single efficiency metric is the number of distance-function
calls (Table 1); after the kernel, resilience, parallel, and cache
layers there is a lot more to *see* about what a search did.  This
module provides the registry those layers report into:

* :class:`Counter` — monotone integers (candidates visited, early
  abandons, checkpoint writes);
* :class:`Gauge` — last-written values (grammar size, candidate count);
* :class:`Histogram` — power-of-two bucketed distributions (early-abandon
  depths, per-rank call costs);
* :class:`Timer` — accumulated wall-clock seconds (phase timings).

Everything except timers is *deterministic* for a fixed seed: counters,
gauges, and histograms only ever observe logical quantities (pair
counts, ledger splits, structure sizes), so two runs with the same
inputs produce identical snapshots.  Timers measure wall time and are
excluded from determinism guarantees — report consumers must treat any
``*_seconds`` field as informational.

Instrumentation is **disabled by default**: every instrumented function
takes ``metrics=None`` and routes through the module-level
:data:`NULL_METRICS` singleton, whose methods are no-ops and whose
``enabled`` flag lets hot loops skip even the bookkeeping that would
feed a metric.  The disabled path performs no extra distance work and no
RNG draws, so results and logical call counts are byte-identical with
or without the layer (pinned by ``tests/test_golden_counts.py``).
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.exceptions import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "ensure_metrics",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ParameterError(f"counter increment must be >= 0, got {amount}")
        self.value += int(amount)


class Gauge:
    """A last-write-wins numeric metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Power-of-two bucketed distribution of non-negative observations.

    Bucket *b* counts observations in ``[2**(b-1), 2**b)`` (bucket 0
    counts zeros and values below 1).  Alongside the buckets the exact
    count/total/min/max are kept, so the mean is not quantized.  All
    fields are integers or exact sums of observed values — deterministic
    whenever the observations are.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ParameterError(f"histogram values must be >= 0, got {value}")
        bucket = 0 if value < 1.0 else int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


class Timer:
    """Accumulated wall-clock seconds (non-deterministic by nature)."""

    __slots__ = ("seconds", "count", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._started: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None
        self.count += 1

    def add(self, seconds: float) -> None:
        """Fold an externally measured duration in."""
        self.seconds += float(seconds)
        self.count += 1


class _NullContext:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named metrics plus the trace-event stream of one run.

    One registry is threaded through a search (``metrics=...`` on every
    engine entry point); afterwards :meth:`snapshot` returns the whole
    state as a JSON-able dict and
    :func:`repro.observability.report.write_run_report` serializes it —
    together with the event stream — as a JSONL run report.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, Timer] = {}
        self.events: list[dict] = []
        self._seq = 0

    # -- metric accessors ----------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer()
        return metric

    # -- tracing --------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> dict:
        """Record one trace event (see DESIGN.md §9 for the schema).

        ``seq`` orders events deterministically; ``ts`` is wall-clock
        and excluded from determinism guarantees.
        """
        entry = {"seq": self._seq, "name": name, "ts": time.time()}
        if attrs:
            entry["attrs"] = attrs
        self._seq += 1
        self.events.append(entry)
        return entry

    def span(self, name: str, **attrs: Any):
        """A traced region: emits ``<name>.start`` / ``<name>.end`` events.

        The end event carries the span's wall duration under
        ``seconds`` (non-deterministic; every other attribute is copied
        from the start event so the pair is self-describing).
        """
        return _Span(self, name, attrs)

    # -- persistence ----------------------------------------------------

    def snapshot(self) -> dict:
        """The registry's state as a JSON-able dict (events excluded)."""
        return {
            "counters": {k: v.value for k, v in sorted(self._counters.items())},
            "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
            "histograms": {
                k: v.to_dict() for k, v in sorted(self._histograms.items())
            },
            "timers": {
                k: {"seconds": v.seconds, "count": v.count}
                for k, v in sorted(self._timers.items())
            },
        }

    def merge_snapshot(self, snap: Optional[dict]) -> "MetricsRegistry":
        """Fold a snapshot (e.g. a resumed checkpoint's) into this.

        Counters, histogram buckets, and timer totals add; gauges are
        last-write-wins.  Addition is commutative and associative, so
        the totals do not depend on the order snapshots are merged in.
        """
        if not snap:
            return self
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            hist = self.histogram(name)
            for bucket, count in data.get("buckets", {}).items():
                bucket = int(bucket)
                hist.buckets[bucket] = hist.buckets.get(bucket, 0) + int(count)
            hist.count += int(data.get("count", 0))
            hist.total += float(data.get("total", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                value = data.get(bound)
                if value is not None:
                    current = getattr(hist, bound)
                    setattr(
                        hist,
                        bound,
                        value if current is None else pick(current, value),
                    )
        for name, data in snap.get("timers", {}).items():
            timer = self.timer(name)
            timer.seconds += float(data.get("seconds", 0.0))
            timer.count += int(data.get("count", 0))
        return self

    def restore(self, snap: Optional[dict], events: Optional[list] = None) -> None:
        """Adopt checkpointed state: merge the snapshot, replay events.

        Restored events keep their recorded ``seq``; new events continue
        after the highest one, so a resumed run's report reads as one
        continuous stream.
        """
        self.merge_snapshot(snap)
        if events:
            self.events.extend(events)
            self._seq = max(self._seq, max(e.get("seq", -1) for e in events) + 1)


class _Span:
    """Context manager behind :meth:`MetricsRegistry.span`."""

    __slots__ = ("_metrics", "_name", "_attrs", "_started")

    def __init__(self, metrics: MetricsRegistry, name: str, attrs: dict):
        self._metrics = metrics
        self._name = name
        self._attrs = attrs
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._metrics.event(self._name + ".start", **self._attrs)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._started
        self._metrics.event(self._name + ".end", seconds=elapsed, **self._attrs)


class NullMetrics:
    """The disabled sink: same interface, every operation a no-op.

    All instrumented code paths take ``metrics=None`` and resolve it to
    the shared :data:`NULL_METRICS` instance, so the default path never
    allocates, never branches on metric state beyond ``if
    metrics.enabled``, and — the property the golden-count suite pins —
    never changes results or logical call counts.
    """

    enabled = False
    events: list = []

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str):
        return _NULL_CONTEXT

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any):
        return _NULL_CONTEXT

    def snapshot(self) -> Optional[dict]:
        return None

    def merge_snapshot(self, snap: Optional[dict]) -> "NullMetrics":
        return self

    def restore(self, snap: Optional[dict], events: Optional[list] = None) -> None:
        return None


#: Module-wide disabled sink; ``ensure_metrics(None)`` returns this.
NULL_METRICS = NullMetrics()


def ensure_metrics(metrics: Optional[MetricsRegistry]):
    """Resolve an optional ``metrics=`` argument to a usable sink."""
    return NULL_METRICS if metrics is None else metrics
