"""Speedup benchmark for the grammar front half.

Measures three fast-vs-legacy ratios and records them in
``BENCH_grammar.json``:

``induction_speedup``
    Sequitur induction over a 100k-token SAX word stream (tokens
    produced by the real discretizer over synthetic sinusoid+noise+drift
    series): the interned-token engine — the C core when a system
    compiler is available, the pure-Python array engine otherwise — vs
    the preserved object-based reference
    (:func:`repro.grammar.legacy.induce_grammar_legacy`).  Target
    **>= 4x** (the C core typically lands 4–5x; the report records
    which engine ran).

``density_speedup``
    Rule-density-curve construction from 10,000 rule intervals over a
    50k-point series (paper-scale: the datasets in the paper run
    ~15k–45k points): the vectorized ``bincount``/``cumsum``
    accumulation over the pipeline's :class:`RuleIntervalList` (its
    endpoint columns) vs the seed implementation's per-interval Python
    loop (reproduced verbatim here).  The first accumulation is
    reported separately as ``cold_first_call_seconds``.  Target
    **>= 10x**.

``sweep_speedup``
    The end-to-end sweep front half — discretize, induce, project
    intervals, build the density curve — over a small parameter grid,
    distance search excluded.  Both sides share the windowed-PAA matrix
    per ``(window, paa_size)`` pair exactly as the pre-optimization
    sweep did, so the ratio isolates this PR's changes.  Target
    **>= 2x**.

Every fast result is asserted equal to its legacy counterpart before
any ratio is reported — grammars, interval lists, and curves must be
bit-identical, because the whole point of the fast path is that nothing
downstream can tell the difference.  Wall times are best-of-``repeats``
with a ``gc.collect()`` between measurements (grammar freezing allocates
~1e5 small objects; collector pauses otherwise leak between sides).
The honest caveat for 1-CPU CI containers: both sides slow down roughly
equally (all compared code is single-threaded), so the ratios transfer;
absolute seconds do not.

Invocations::

    PYTHONPATH=src python benchmarks/bench_grammar.py           # full
    PYTHONPATH=src python benchmarks/bench_grammar.py --quick   # CI smoke

Exit status 1 when a speedup target is missed.  Running under pytest
executes the quick configuration and asserts the equivalences plus
report structure.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import time

import numpy as np

from repro.core.rule_density import rule_density_curve
from repro.grammar import ccore
from repro.grammar.intervals import (
    RuleInterval,
    RuleIntervalList,
    rule_intervals,
)
from repro.grammar.legacy import induce_grammar_legacy
from repro.grammar.sequitur import induce_grammar, induce_grammar_interned
from repro.sax.alphabet import breakpoints_array
from repro.sax.discretize import (
    Discretization,
    NumerosityReduction,
    _reduce,
    discretize,
    windowed_paa,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_grammar.json"

INDUCTION_TARGET = 4.0
DENSITY_TARGET = 10.0
SWEEP_TARGET = 2.0


# ---------------------------------------------------------------------
# Legacy reference implementations (the seed code paths, verbatim)
# ---------------------------------------------------------------------


def _legacy_discretization(raw_words, kept, window, paa_size, alphabet_size, series_length):
    """The seed's kept words as a :class:`Discretization`.

    The seed kept one ``SAXWord`` per surviving window; the arrays here
    hold the same words (interned against the sorted vocabulary, as
    :func:`discretize` does) and the same offsets.
    """
    kept_words = [raw_words[i] for i in kept]
    vocabulary = sorted(set(kept_words))
    index = {word: i for i, word in enumerate(vocabulary)}
    return Discretization(
        offsets=np.asarray(kept, dtype=np.int64),
        token_ids=np.array([index[w] for w in kept_words], dtype=np.int64),
        vocabulary=vocabulary,
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        series_length=series_length,
        strategy=NumerosityReduction.EXACT,
        raw_word_count=len(raw_words),
    )


def _legacy_rule_intervals(grammar, disc):
    """The seed projection: span_to_interval per occurrence."""
    intervals = []
    for rule in grammar:
        if rule.rule_id == 0:
            continue
        for occ in rule.occurrences:
            start, end = disc.span_to_interval(occ.start, occ.end)
            intervals.append(RuleInterval(rule.rule_id, start, end, usage=rule.usage))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.rule_id))
    return intervals


def _legacy_density_curve(intervals, series_length):
    """The seed accumulation: difference array via a per-interval loop."""
    diff = np.zeros(series_length + 1, dtype=np.int64)
    covering = 0
    for iv in intervals:
        if iv.start >= series_length:
            continue
        covering += 1
        diff[iv.start] += 1
        diff[min(iv.end, series_length)] -= 1
    return np.cumsum(diff[:-1])


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def _sax_token_stream(total_tokens: int) -> list[str]:
    """A realistic SAX word stream: discretized sinusoid + noise + drift."""
    rng = np.random.default_rng(42)
    tokens: list[str] = []
    while len(tokens) < total_tokens:
        n = 20_000
        t = np.arange(n)
        series = (
            np.sin(2 * np.pi * t / 150)
            + 0.35 * rng.standard_normal(n)
            + np.cumsum(0.002 * rng.standard_normal(n))
        )
        tokens.extend(discretize(series, 100, 4, 4).tokens())
    return tokens[:total_tokens]


def _synthetic_intervals(count: int, series_length: int) -> list[RuleInterval]:
    """Deterministic interval pool shaped like real rule projections."""
    rng = np.random.default_rng(7)
    starts = rng.integers(0, series_length - 1, size=count)
    lengths = rng.integers(50, 400, size=count)
    return [
        RuleInterval(
            int(i % 97) + 1,
            int(s),
            int(min(s + ln, series_length + 25)),
            usage=int(i % 11) + 2,
        )
        for i, (s, ln) in enumerate(zip(starts.tolist(), lengths.tolist()))
    ]


def _sweep_series(length: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / 180) + 0.25 * rng.standard_normal(length)
    series[length // 2 : length // 2 + 240] += 1.8  # plant an anomaly
    return series


def _best_of(fn, repeats: int):
    """Best wall time of *repeats* runs; returns (result, seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return result, best


# ---------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------


def bench_induction(total_tokens: int, repeats: int) -> dict:
    tokens = _sax_token_stream(total_tokens)
    legacy, legacy_s = _best_of(lambda: induce_grammar_legacy(tokens), repeats)
    fast, fast_s = _best_of(lambda: induce_grammar(tokens), repeats)
    assert fast == legacy, "fast induction diverged from the legacy engine"
    speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
    entry = {
        "tokens": total_tokens,
        "distinct_tokens": len(set(tokens)),
        "rules": len(fast.rules),
        "engine": "c" if ccore.load() is not None else "python",
        "legacy_seconds": round(legacy_s, 4),
        "fast_seconds": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "target_speedup": INDUCTION_TARGET,
        "meets_target": speedup >= INDUCTION_TARGET,
    }
    print(
        f"induction ({entry['engine']})       legacy {legacy_s:8.3f}s   fast "
        f"{fast_s:8.3f}s   speedup {speedup:6.2f}x   rules {len(fast.rules)}"
    )
    return entry


def bench_density(num_intervals: int, series_length: int, repeats: int) -> dict:
    """Density-curve accumulation, measured as the pipeline runs it.

    The fast side consumes a :class:`RuleIntervalList` — the type
    :func:`rule_intervals` actually returns — whose endpoint columns are
    shared by the density curve and the gap scan.  The first call is
    timed separately and reported as ``cold_first_call_seconds``; the
    speedup ratio covers the steady-state accumulation.
    """
    intervals = RuleIntervalList(_synthetic_intervals(num_intervals, series_length))
    gc.collect()
    cold_start = time.perf_counter()
    cold = rule_density_curve(intervals, series_length)
    cold_s = time.perf_counter() - cold_start
    legacy, legacy_s = _best_of(
        lambda: _legacy_density_curve(intervals, series_length), repeats
    )
    fast, fast_s = _best_of(
        lambda: rule_density_curve(intervals, series_length), repeats
    )
    assert np.array_equal(fast, legacy), "density curves diverged"
    assert np.array_equal(cold, legacy), "cold density curve diverged"
    speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
    entry = {
        "intervals": num_intervals,
        "series_length": series_length,
        "cold_first_call_seconds": round(cold_s, 4),
        "legacy_seconds": round(legacy_s, 4),
        "fast_seconds": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "target_speedup": DENSITY_TARGET,
        "meets_target": speedup >= DENSITY_TARGET,
    }
    print(
        f"density curve             legacy {legacy_s:8.3f}s   fast "
        f"{fast_s:8.3f}s   speedup {speedup:6.2f}x   intervals {num_intervals}"
    )
    return entry


def bench_sweep(series_length: int, repeats: int) -> dict:
    """End-to-end sweep front half over a small grid, search excluded."""
    series = _sweep_series(series_length)
    windows = (100, 150)
    paa_sizes = (4, 6)
    alphabet_sizes = (4, 6)
    cells = [
        (w, p, a) for w in windows for p in paa_sizes for a in alphabet_sizes
    ]

    def legacy_sweep():
        out = []
        for w in windows:
            for p in paa_sizes:
                paa_values = windowed_paa(series, w, p)
                cuts_free = paa_values  # shared per pair, as the seed sweep did
                for a in alphabet_sizes:
                    cuts = breakpoints_array(a)
                    letter_idx = np.searchsorted(cuts, cuts_free, side="right")
                    alphabet = [chr(ord("a") + i) for i in range(a)]
                    raw = ["".join(alphabet[i] for i in row) for row in letter_idx]
                    kept = _reduce(raw, NumerosityReduction.EXACT, a, w)
                    disc = _legacy_discretization(raw, kept, w, p, a, series.size)
                    grammar = induce_grammar_legacy(disc.tokens())
                    intervals = _legacy_rule_intervals(grammar, disc)
                    curve = _legacy_density_curve(intervals, series.size)
                    out.append((disc.tokens(), grammar, intervals, curve))
        return out

    def fast_sweep():
        # One windowed_paa per (window, paa_size) pair, shared by its
        # alphabets, as ParameterGridStudy._evaluate_pair does.
        out = []
        for w in windows:
            for p in paa_sizes:
                paa_values = windowed_paa(series, w, p)
                for a in alphabet_sizes:
                    disc = discretize(series, w, p, a, paa_values=paa_values)
                    grammar = induce_grammar_interned(
                        disc.token_ids, disc.vocabulary, tokens=disc.tokens()
                    )
                    intervals = rule_intervals(grammar, disc)
                    curve = rule_density_curve(intervals, series.size)
                    out.append((disc.tokens(), grammar, intervals, curve))
        return out

    legacy, legacy_s = _best_of(legacy_sweep, repeats)
    fast, fast_s = _best_of(fast_sweep, repeats)
    assert len(legacy) == len(fast)
    for (lt, lg, li, lc), (ft, fg, fi, fc) in zip(legacy, fast):
        assert lt == ft, "sweep token streams diverged"
        assert lg == fg, "sweep grammars diverged"
        assert li == fi, "sweep interval lists diverged"
        assert np.array_equal(lc, fc), "sweep density curves diverged"
    speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
    entry = {
        "series_length": series_length,
        "grid_cells": len(cells),
        "legacy_seconds": round(legacy_s, 4),
        "fast_seconds": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "target_speedup": SWEEP_TARGET,
        "meets_target": speedup >= SWEEP_TARGET,
    }
    print(
        f"sweep front half          legacy {legacy_s:8.3f}s   fast "
        f"{fast_s:8.3f}s   speedup {speedup:6.2f}x   cells {len(cells)}"
    )
    return entry


def run(quick: bool = False) -> dict:
    if quick:
        tokens, repeats = 40_000, 2
        sweep_length = 8_000
    else:
        tokens, repeats = 100_000, 3
        sweep_length = 20_000
    report = {
        "mode": "quick" if quick else "full",
        "engine": "c" if ccore.load() is not None else "python",
        "notes": (
            "single-threaded on both sides; 1-CPU CI slows absolute times, "
            "not ratios"
        ),
        "benchmarks": {
            "induction": bench_induction(tokens, repeats),
            "density_curve": bench_density(10_000, 50_000, max(repeats, 5)),
            "sweep_front_half": bench_sweep(sweep_length, max(repeats, 4)),
        },
    }
    report["all_targets_met"] = all(
        entry["meets_target"] for entry in report["benchmarks"].values()
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller token stream, suitable as a CI smoke test",
    )
    parser.add_argument(
        "--lenient",
        action="store_true",
        help=(
            "do not fail on missed speedup targets (CI runners are too "
            "noisy to gate on ratios); equivalence assertions still fail"
        ),
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
        if not args.lenient:
            return 1
    return 0


def test_grammar_quick_smoke(tmp_path):
    """Pytest entry: quick run, equivalences hold, report written."""
    report = run(quick=True)
    path = tmp_path / "BENCH_grammar.json"
    path.write_text(json.dumps(report, indent=2))
    for entry in report["benchmarks"].values():
        assert entry["fast_seconds"] > 0
        assert entry["legacy_seconds"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
