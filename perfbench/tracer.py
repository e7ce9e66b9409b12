"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``repro`` *where they are
looked up* (``repro.core.pipeline.discretize``, not
``repro.sax.discretize.discretize``) with timing wrappers, so the
program's code is untouched.  Every wrapped call is a span whose parent
is the innermost open span; a span's self time is its duration minus
the time its child spans cover.  Self time is summed per layer, so the
layers plus ``request.unaccounted_ms`` (the self time of the request
root and of the glue spans that belong to no layer) add up to the
request's wall time.

Wrappers only record in the process that installed them: forked pool
workers inherit the patched modules but run the original functions.
:meth:`Tracer.uninstall` restores every original object, and
:meth:`Tracer.leftovers` lists any target that is still patched.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

#: (owner, attribute, layer).  *owner* is a module path, or a module
#: path plus ``:Class`` for a method.  Layer ``None`` marks glue whose
#: self time is reported as ``request.unaccounted_ms``.
TARGETS = (
    ("repro.cli", "_load_series", "cli.load"),
    ("repro.cli", "_cmd_find", "cli.render"),
    ("repro.cli", "_cmd_density", "cli.render"),
    ("repro.cli", "_cmd_ensemble", "cli.render"),
    ("repro.visualization.report", "grammar_report", "cli.render"),
    ("repro.core.pipeline:GrammarAnomalyDetector", "__init__", None),
    ("repro.core.pipeline:GrammarAnomalyDetector", "fit", None),
    ("repro.core.pipeline:GrammarAnomalyDetector", "density_anomalies", None),
    ("repro.core.pipeline:GrammarAnomalyDetector", "discords", None),
    ("repro.core.pipeline", "quality_gate", "timeseries.quality_gate"),
    ("repro.core.pipeline", "discretize", "sax.discretize"),
    ("repro.core.pipeline", "induce_grammar_interned", "grammar.induce"),
    ("repro.core.pipeline", "rule_intervals", "grammar.intervals"),
    ("repro.core.pipeline", "uncovered_intervals", "grammar.intervals"),
    ("repro.core.pipeline", "rule_density_curve", "density.curve"),
    ("repro.core.pipeline", "find_density_anomalies", "density.curve"),
    ("repro.core.pipeline", "find_discords", "rra.search"),
    ("repro.cache.keys", "discord_search_key", "cache.key"),
    ("repro.cache.store:ResultCache", "__init__", None),
    ("repro.cache.store:ResultCache", "get", "cache.get"),
    ("repro.cache.store:ResultCache", "put", "cache.put"),
    ("repro.core.ensemble:EnsembleDetector", "__init__", None),
    ("repro.core.ensemble:EnsembleDetector", "fit", None),
    ("repro.core.ensemble:EnsembleDetector", "_aggregate", "ensemble.aggregate"),
    ("repro.core.ensemble", "evaluate_member", None),
    ("repro.parallel.engine", "parallel_ensemble_members", "parallel.fanout"),
    ("repro.parallel.engine", "run_tasks", "parallel.fanout"),
)

#: Layers whose self time the traced run reports, as ``<layer>_ms``.
LAYERS = (
    "cli.load", "cli.render", "timeseries.quality_gate", "sax.discretize",
    "grammar.induce", "grammar.intervals", "density.curve", "rra.search",
    "cache.key", "cache.get", "cache.put", "ensemble.aggregate",
    "parallel.fanout",
)


def _count(record, attr, args, result) -> None:
    """Per-call counters, measured at the same boundaries as the spans."""
    counts = record["counts"]
    if attr == "discretize":
        counts["sax.words"] += len(result)
    elif attr == "induce_grammar_interned":
        counts["grammar.rules"] += len(result)
    elif attr == "find_discords" and not result.from_cache:
        counts["rra.distance_calls"] += result.distance_calls
    elif attr == "get":
        counts["cache.gets"] += 1
        counts["cache.hits"] += result is not None
    elif attr == "run_tasks":
        counts["parallel.tasks"] += len(args[1])
    elif attr == "_aggregate":
        counts["ensemble.members"] += len(args[2])


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder over :data:`TARGETS`; one record per request."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._stack: list[list[float]] = []
        self._record = None
        self.last = None
        self._originals: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in TARGETS:
            obj = _resolve(owner)
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            self._originals.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, attr, layer))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._originals):
            setattr(obj, attr, original)
        self._originals = []

    @staticmethod
    def leftovers() -> list[str]:
        """Targets whose current object is a tracer wrapper."""
        found = []
        for owner, attr, _ in TARGETS:
            obj = _resolve(owner)
            current = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            if getattr(current, "__perfbench_wrapper__", False):
                found.append(f"{owner}.{attr}")
        return found

    def _wrap(self, original, attr, layer):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer._record
            if record is None or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer._stack[-1][0] += duration
                key = layer if layer is not None else "unaccounted"
                record["self"][key] += duration - frame[0]
                if attr == "evaluate_member":
                    record["counts"]["ensemble.member_s"] += duration
            _count(record, attr, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- requests -----------------------------------------------------------

    def run(self, func, *args):
        """Call ``func(*args)`` as one traced request and return its result.

        The request's record is left in :attr:`last`, also when the call
        raises: ``["wall"]`` is the wall time in seconds, ``["self"]``
        the self time per layer (``"unaccounted"`` for the root and
        glue), ``["counts"]`` the counters.
        """
        record = {"self": defaultdict(float), "counts": defaultdict(float)}
        root = [0.0]
        self._stack = [root]
        self._record = record
        start = time.perf_counter()
        try:
            return func(*args)
        finally:
            wall = time.perf_counter() - start
            self._record = None
            self._stack = []
            record["wall"] = wall
            record["self"]["unaccounted"] += wall - root[0]
            self.last = record
