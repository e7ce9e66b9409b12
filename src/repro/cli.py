"""Command-line interface: ``python -m repro`` / ``repro-anomaly``.

Subcommands
-----------
``find``
    Discover anomalies in a CSV/whitespace series file with both
    algorithms and print a GrammarViz-style text report.
``density``
    Print the rule density curve values (one per line), for piping into
    plotting tools.
``motifs``
    Report the top recurrent variable-length patterns (frequent rules).
``suggest``
    Suggest discretization parameters for a series (grammar health).
``ensemble``
    Run a grid of (window, PAA, alphabet) members and report the
    aggregated, parameter-free anomaly verdict with per-member provenance.
``table1``
    Regenerate the paper's Table 1 on the synthetic stand-in datasets.
``demo``
    Run the quickstart demo on a generated dataset (no input needed).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core import AGGREGATIONS, NORMALIZATIONS
from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import ReproError
from repro.io import read_series


def _load_series(
    path: str, column: int, *, keep_nonfinite: bool = False
) -> np.ndarray:
    """Load a 1-d series from a text file (CSV or whitespace-separated)."""
    return read_series(path, column=column, keep_nonfinite=keep_nonfinite)


def _format_trace(metrics) -> str:
    """Render a registry's trace-event stream for the terminal."""
    lines = []
    for event in metrics.events:
        attrs = event.get("attrs") or {}
        rendered = " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(f"[{event['seq']:>4d}] {event['name']} {rendered}".rstrip())
    snapshot = metrics.snapshot() or {}
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f"       {name} = {value}")
    return "\n".join(lines)


def _cmd_find(args: argparse.Namespace) -> int:
    from repro.observability import MetricsRegistry
    from repro.resilience import SearchBudget
    from repro.visualization.report import grammar_report

    # With an explicit quality policy the gate sees the raw values;
    # without one, the legacy behaviour (drop non-finite rows) holds.
    series = _load_series(
        args.path, args.column, keep_nonfinite=args.quality is not None
    )
    metrics = (
        MetricsRegistry() if (args.trace or args.metrics_out) else None
    )
    detector = GrammarAnomalyDetector(
        args.window,
        args.paa,
        args.alphabet,
        quality_policy=args.quality or "raise",
        metrics=metrics,
        cache=args.cache_dir,
    )
    result = detector.fit(series)
    anomalies = list(detector.density_anomalies(max_anomalies=args.discords))
    budget = None
    if args.deadline is not None or args.max_calls is not None:
        budget = SearchBudget(deadline=args.deadline, max_calls=args.max_calls)
    rra = detector.discords(
        num_discords=args.discords,
        budget=budget,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        report_path=args.metrics_out,
    )
    anomalies.extend(rra.discords)
    print(grammar_report(result, anomalies))
    if rra.from_cache:
        print(
            f"discord search answered from cache ({args.cache_dir})",
            file=sys.stderr,
        )
    if args.trace and metrics is not None:
        print(_format_trace(metrics), file=sys.stderr)
    if args.metrics_out:
        print(f"run report written to {args.metrics_out}", file=sys.stderr)
    if not rra.complete:
        exact = sum(rra.rank_complete)
        print(
            f"search stopped early ({rra.status.value}) after "
            f"{rra.distance_calls} distance calls: {exact} exact rank(s), "
            f"{len(rra.discords) - exact} best-so-far",
            file=sys.stderr,
        )
        if args.checkpoint:
            print(
                f"resume with: --resume {args.checkpoint} "
                f"--checkpoint {args.checkpoint}",
                file=sys.stderr,
            )
        if rra.degraded and rra.fallback:
            print(
                "degraded fallback (rule-density intervals): "
                + ", ".join(f"[{a.start}, {a.end})" for a in rra.fallback),
                file=sys.stderr,
            )
    return 0


def _parse_grid(spec: str):
    """Parse ``WINDOWS:PAAS:ALPHABETS`` (comma-separated ints) into members.

    Example: ``60,120:4,6:3,5`` → the 2x2x2 cartesian grid (minus any
    member with PAA larger than its window).
    """
    from repro.core.ensemble import ensemble_grid

    parts = spec.split(":")
    if len(parts) != 3:
        raise ReproError(
            f"--grid expects WINDOWS:PAAS:ALPHABETS (e.g. 60,120:4,6:3,5), "
            f"got {spec!r}"
        )
    try:
        axes = [
            [int(v) for v in part.split(",") if v.strip()] for part in parts
        ]
    except ValueError as exc:
        raise ReproError(f"--grid values must be integers: {exc}") from exc
    if not all(axes):
        raise ReproError(f"--grid axis is empty in {spec!r}")
    return ensemble_grid(*axes)


def _cmd_ensemble(args: argparse.Namespace) -> int:
    from repro.core.ensemble import EnsembleDetector, default_grid
    from repro.observability import MetricsRegistry
    from repro.resilience import SearchBudget

    series = _load_series(args.path, args.column)
    grid = _parse_grid(args.grid) if args.grid else default_grid(len(series))
    metrics = MetricsRegistry() if args.trace else None
    detector = EnsembleDetector(
        grid,
        normalization=args.normalize,
        aggregation=args.aggregate,
        num_discords=args.discords,
        n_workers=args.workers,
        metrics=metrics,
        cache=args.cache_dir,
    )
    budget = None
    if args.deadline is not None or args.max_calls is not None:
        budget = SearchBudget(deadline=args.deadline, max_calls=args.max_calls)
    result = detector.fit(series, budget=budget)

    counts = result.member_counts()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(
        f"ensemble: {len(result.members)} members ({summary}); "
        f"aggregate={result.aggregation} normalize={result.normalization}"
    )
    print(f"{'rank':>4s} {'start':>7s} {'end':>7s} {'support':>7s} {'score':>8s}")
    for discord in result.discords:
        print(
            f"{discord.rank:>4d} {discord.start:>7d} {discord.end:>7d} "
            f"{discord.support:>7d} {discord.score:>8.4f}"
        )
    if not result.discords:
        print("(no ensemble discords)")
    if args.ledger:
        print("\nper-member ledger:", file=sys.stderr)
        for entry in result.ledger():
            print(
                f"  W={entry['window']:<5d} P={entry['paa_size']:<3d} "
                f"A={entry['alphabet_size']:<3d} {entry['status']:>9s} "
                f"calls={entry['distance_calls']}",
                file=sys.stderr,
            )
    if result.degraded:
        print(
            "ensemble degraded: some members were dropped "
            f"({summary}); the aggregate uses {result.contributing} "
            f"of {len(result.members)} members",
            file=sys.stderr,
        )
    if args.trace and metrics is not None:
        print(_format_trace(metrics), file=sys.stderr)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    series = _load_series(args.path, args.column)
    detector = GrammarAnomalyDetector(args.window, args.paa, args.alphabet)
    detector.fit(series)
    sys.stdout.write(_render_curve(detector.density_curve()))
    return 0


def _render_curve(curve: np.ndarray) -> str:
    """One line ``str(value)`` per point of an integer curve ("" if empty).

    A density curve holds few distinct small counts in runs of several
    points, so each distinct value is formatted once, into a table
    indexed by ``value - min``, and each run is one repeated table entry.
    """
    if curve.size == 0:
        return ""
    values = curve.astype(np.int64, copy=False)
    low = int(values.min())
    table = [f"{v}\n" for v in range(low, int(values.max()) + 1)]
    run_starts = np.flatnonzero(np.diff(values, prepend=values[0] - 1))
    run_lengths = np.diff(run_starts, append=values.size)
    return "".join(
        [
            table[v] * n
            for v, n in zip((values[run_starts] - low).tolist(), run_lengths.tolist())
        ]
    )


def _cmd_motifs(args: argparse.Namespace) -> int:
    from repro.core.motifs import find_motifs

    series = _load_series(args.path, args.column)
    detector = GrammarAnomalyDetector(args.window, args.paa, args.alphabet)
    result = detector.fit(series)
    motifs = find_motifs(
        result.grammar, result.discretization, top_k=args.top
    )
    print(f"{'rank':>4s} {'rule':>6s} {'freq':>5s} {'lengths':>12s} occurrences")
    for motif in motifs:
        lo, hi = motif.length_range
        preview = ", ".join(
            f"{s}" for s, _ in motif.occurrences[:6]
        ) + ("..." if motif.frequency > 6 else "")
        print(
            f"{motif.rank:>4d} {'R' + str(motif.rule_id):>6s} "
            f"{motif.frequency:>5d} {f'{lo}-{hi}':>12s} at {preview}"
        )
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.core.auto_params import dominant_period, suggest_parameters

    series = _load_series(args.path, args.column)
    period = dominant_period(series)
    if period is not None:
        print(f"dominant period: {period} points")
    else:
        print("no clear periodicity detected")
    suggestions = suggest_parameters(series, top_k=args.top)
    if not suggestions:
        print("no healthy parameter combination found; supply -w/-p/-a manually")
        return 1
    print(f"{'W':>5s} {'P':>3s} {'A':>3s} {'score':>6s} {'reduction':>10s} "
          f"{'compression':>12s} {'coverage':>9s}")
    for s in suggestions:
        print(
            f"{s.window:>5d} {s.paa_size:>3d} {s.alphabet_size:>3d} "
            f"{s.score:>6.2f} {s.reduction_ratio:>10.2f} "
            f"{s.compression_ratio:>12.2f} {s.coverage:>9.2f}"
        )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.datasets.registry import table1_rows
    from repro.discord.brute_force import brute_force_call_count
    from repro.discord.hotsax import hotsax_discords
    from repro.core.rra import find_discords

    print(
        f"{'Dataset':34s} {'Length':>8s} {'BruteForce':>12s} "
        f"{'HOTSAX':>10s} {'RRA':>10s} {'Reduction':>9s}"
    )
    for row in table1_rows():
        if args.only and row.key not in args.only:
            continue
        dataset = row.factory()
        brute = brute_force_call_count(dataset.length, row.window)
        hotsax = hotsax_discords(dataset.series, row.window, num_discords=1)
        detector = GrammarAnomalyDetector(row.window, row.paa_size, row.alphabet_size)
        fitted = detector.fit(dataset.series)
        rra = find_discords(dataset.series, fitted.candidates, num_discords=1)
        reduction = 100.0 * (1.0 - rra.distance_calls / max(1, hotsax.distance_calls))
        print(
            f"{row.display_name:34s} {dataset.length:>8d} {brute:>12d} "
            f"{hotsax.distance_calls:>10d} {rra.distance_calls:>10d} "
            f"{reduction:>8.1f}%"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.datasets import sine_with_anomaly
    from repro.visualization.report import grammar_report

    dataset = sine_with_anomaly(anomaly_kind="bump", seed=args.seed)
    detector = GrammarAnomalyDetector(
        dataset.window, dataset.paa_size, dataset.alphabet_size
    )
    result = detector.fit(dataset.series)
    anomalies = list(detector.density_anomalies(max_anomalies=2))
    anomalies.extend(detector.discords(num_discords=2).discords)
    print(f"demo dataset: {dataset.description}")
    print(f"planted anomaly: {dataset.anomalies}")
    print()
    print(grammar_report(result, anomalies))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-anomaly",
        description="Grammar-based time series anomaly discovery (EDBT 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sax_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", "-w", type=int, default=100, help="sliding window W")
        p.add_argument("--paa", "-p", type=int, default=4, help="PAA size P")
        p.add_argument("--alphabet", "-a", type=int, default=4, help="alphabet size A")
        p.add_argument("--column", "-c", type=int, default=0, help="CSV column index")

    find = sub.add_parser("find", help="discover anomalies in a series file")
    find.add_argument("path", help="CSV or whitespace-separated series file")
    add_sax_args(find)
    find.add_argument("--discords", "-k", type=int, default=3, help="discords to report")
    find.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the discord search (anytime: prints "
             "best-so-far results when it trips)",
    )
    find.add_argument(
        "--max-calls", type=int, default=None, metavar="N",
        help="distance-call budget for the discord search",
    )
    find.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="autosave search state to this JSON file so a killed run "
             "can be resumed",
    )
    find.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint written by a previous run over "
             "the same inputs (bit-identical final result)",
    )
    find.add_argument(
        "--workers", type=int, choices=[1], default=1, metavar="N",
        help="accepted for compatibility; only 1 is valid, because the "
             "discord search always runs in one process (use "
             "`repro ensemble --workers N` for parallel members)",
    )
    find.add_argument(
        "--backend", choices=["kernel"], default="kernel",
        help="accepted for compatibility; only kernel is valid, because "
             "every search has one distance path",
    )
    find.add_argument(
        "--trace", action="store_true",
        help="print the search's trace events and counters to stderr "
             "after the report",
    )
    find.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSONL run report (meta line, trace events, final "
             "metrics snapshot) of the discord search to PATH",
    )
    find.add_argument(
        "--quality", choices=["raise", "interpolate", "mask"], default=None,
        help="NaN/Inf policy: raise refuses dirty data, interpolate "
             "repairs gaps, mask repairs but never reports anomalies "
             "from repaired spans (default: drop non-finite rows on load)",
    )
    find.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache: an identical repeated search "
             "(same series content and parameters) is answered from DIR "
             "bit-identically instead of recomputed",
    )
    find.set_defaults(func=_cmd_find)

    ensemble = sub.add_parser(
        "ensemble",
        help="parameter-free detection: aggregate a grid of members",
    )
    ensemble.add_argument("path", help="CSV or whitespace-separated series file")
    ensemble.add_argument("--column", "-c", type=int, default=0, help="CSV column index")
    ensemble.add_argument(
        "--grid", default=None, metavar="W:P:A",
        help="member grid as WINDOWS:PAAS:ALPHABETS, each a comma list "
             "(e.g. 60,120:4,6:3,5); default: a data-driven grid from "
             "the series length",
    )
    ensemble.add_argument(
        "--aggregate", choices=list(AGGREGATIONS), default="mean",
        help="how member score curves are combined",
    )
    ensemble.add_argument(
        "--normalize", choices=list(NORMALIZATIONS), default="minmax",
        help="per-member curve normalization before aggregation",
    )
    ensemble.add_argument(
        "--discords", "-k", type=int, default=3,
        help="discords per member before merging",
    )
    ensemble.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for member evaluation (aggregate and "
             "discords are bit-identical for any value; default 1)",
    )
    ensemble.add_argument(
        "--backend", choices=["kernel"], default="kernel",
        help="accepted for compatibility; only kernel is valid",
    )
    ensemble.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget across the whole ensemble (a tripped "
             "budget yields a partial, degraded aggregate)",
    )
    ensemble.add_argument(
        "--max-calls", type=int, default=None, metavar="N",
        help="distance-call budget across the whole ensemble",
    )
    ensemble.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent per-member result cache: a warm (or grid-"
             "overlapping) rerun answers members from DIR bit-identically",
    )
    ensemble.add_argument(
        "--ledger", action="store_true",
        help="print the per-member provenance ledger to stderr",
    )
    ensemble.add_argument(
        "--trace", action="store_true",
        help="print trace events and counters to stderr",
    )
    ensemble.set_defaults(func=_cmd_ensemble)

    density = sub.add_parser("density", help="print the rule density curve")
    density.add_argument("path")
    add_sax_args(density)
    density.set_defaults(func=_cmd_density)

    motifs = sub.add_parser("motifs", help="report recurrent patterns")
    motifs.add_argument("path")
    add_sax_args(motifs)
    motifs.add_argument("--top", "-t", type=int, default=5,
                        help="motifs to report")
    motifs.set_defaults(func=_cmd_motifs)

    suggest = sub.add_parser(
        "suggest", help="suggest discretization parameters for a series"
    )
    suggest.add_argument("path")
    suggest.add_argument("--column", "-c", type=int, default=0)
    suggest.add_argument("--top", "-t", type=int, default=5)
    suggest.set_defaults(func=_cmd_suggest)

    table1 = sub.add_parser("table1", help="regenerate Table 1 (synthetic stand-ins)")
    table1.add_argument("--only", nargs="*", help="restrict to these dataset keys")
    table1.set_defaults(func=_cmd_table1)

    demo = sub.add_parser("demo", help="run the quickstart demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser (building it costs about a millisecond)."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # Look the handler up by name at call time, not through the parser's
    # ``func`` default: the parser is built once, and a handler replaced
    # on this module afterwards must still be the one that runs.
    handler = getattr(sys.modules[__name__], f"_cmd_{args.command}")
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
