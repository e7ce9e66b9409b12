"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper artifact — these quantify the load-bearing pieces of the
pipeline on the ECG stand-in:

* **gap candidates** — RRA without the frequency-0 "uncovered token run"
  candidates (Section 4.2's 'subsequences that do not form any rule')
  loses the anomaly: anomalous tokens, by definition, join no rule.
* **numerosity reduction** — turning it off explodes the token stream
  and the grammar, and destroys variable-length spans.
* **grammar compressor** — Sequitur vs Re-Pair as the rule source: both
  support the pipeline (the approach is compressor-agnostic).
* **outer-loop ordering** — RRA's rarest-first ordering vs a worst-case
  (most-frequent-first) ordering: the heuristic saves distance calls.
"""

from __future__ import annotations

from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rra import find_discords
from repro.datasets import ecg_qtdb_0606_like
from repro.grammar.intervals import RuleInterval
from repro.sax.discretize import NumerosityReduction


def _dataset():
    return ecg_qtdb_0606_like()


def test_ablation_gap_candidates(benchmark, results):
    """Without gap candidates the anomaly can vanish from the search."""
    dataset = _dataset()

    def run():
        detector = GrammarAnomalyDetector(
            dataset.window, dataset.paa_size, dataset.alphabet_size
        )
        fitted = detector.fit(dataset.series)
        with_gaps = find_discords(
            dataset.series, fitted.candidates, num_discords=1,
            seed=0,
        )
        without_gaps = find_discords(
            dataset.series, fitted.intervals, num_discords=1,
            seed=0,
        )
        return fitted, with_gaps, without_gaps

    fitted, with_gaps, without_gaps = benchmark.pedantic(run, rounds=1, iterations=1)

    hit_with = dataset.contains_hit(
        with_gaps.best.start, with_gaps.best.end, min_overlap=0.3
    )
    hit_without = without_gaps.best is not None and dataset.contains_hit(
        without_gaps.best.start, without_gaps.best.end, min_overlap=0.3
    )
    assert hit_with, "full candidate set must find the anomaly"

    results(
        "ablation_gap_candidates",
        "\n".join(
            [
                f"candidates: {len(fitted.intervals)} rule intervals + "
                f"{len(fitted.gaps)} gaps",
                f"with gaps:    best [{with_gaps.best.start}, "
                f"{with_gaps.best.end}) -> {'HIT' if hit_with else 'miss'}",
                f"without gaps: best "
                f"{f'[{without_gaps.best.start}, {without_gaps.best.end})' if without_gaps.best else 'none'}"
                f" -> {'HIT' if hit_without else 'miss'}",
                "gap candidates are what make anomalous (rule-free) tokens "
                "reachable",
            ]
        ),
    )


def test_ablation_numerosity_reduction(benchmark, results):
    """Numerosity reduction shrinks the grammar drastically."""
    dataset = _dataset()

    def run():
        outcomes = {}
        for strategy in (NumerosityReduction.EXACT, NumerosityReduction.NONE):
            detector = GrammarAnomalyDetector(
                dataset.window, dataset.paa_size, dataset.alphabet_size,
                numerosity_reduction=strategy,
            )
            fitted = detector.fit(dataset.series)
            outcomes[strategy.value] = {
                "tokens": len(fitted.discretization),
                "rules": len(fitted.grammar),
                "size": fitted.grammar.grammar_size(),
            }
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = outcomes["exact"]
    none = outcomes["none"]
    assert exact["tokens"] < none["tokens"] / 2, (
        "numerosity reduction should remove most consecutive duplicates"
    )
    results(
        "ablation_numerosity",
        "\n".join(
            [
                f"{'strategy':>10s} {'tokens':>8s} {'rules':>7s} {'size':>7s}",
                f"{'EXACT':>10s} {exact['tokens']:>8d} {exact['rules']:>7d} "
                f"{exact['size']:>7d}",
                f"{'NONE':>10s} {none['tokens']:>8d} {none['rules']:>7d} "
                f"{none['size']:>7d}",
                "reduction keeps one token per shape change — the mechanism "
                "behind variable-length rule spans (paper §3.2)",
            ]
        ),
    )


def test_ablation_compressor(benchmark, results):
    """Sequitur vs Re-Pair: the pipeline is compressor-agnostic."""
    dataset = _dataset()

    def run():
        outcomes = {}
        for algorithm in ("sequitur", "repair"):
            detector = GrammarAnomalyDetector(
                dataset.window, dataset.paa_size, dataset.alphabet_size,
                grammar_algorithm=algorithm,
            )
            fitted = detector.fit(dataset.series)
            best = detector.discords(num_discords=1).best
            outcomes[algorithm] = {
                "size": fitted.grammar.grammar_size(),
                "rules": len(fitted.grammar),
                "best": (best.start, best.end) if best else None,
                "hit": best is not None and dataset.contains_hit(
                    best.start, best.end, min_overlap=0.3
                ),
            }
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcomes["sequitur"]["hit"], "Sequitur pipeline must hit"
    assert outcomes["repair"]["hit"], "Re-Pair pipeline must hit"
    results(
        "ablation_compressor",
        "\n".join(
            f"{name:>9s}: grammar size {o['size']:>5d}, rules {o['rules']:>4d}, "
            f"best discord {o['best']} -> {'HIT' if o['hit'] else 'miss'}"
            for name, o in outcomes.items()
        ),
    )


def test_ablation_loop_orderings(benchmark, results):
    """The grammar-driven loop orderings are pruning heuristics.

    Ablating the *inner* same-rule-first ordering (by giving every
    candidate a unique rule id, so no same-rule group exists) must cost
    extra distance calls: the quick small-distance match that triggers
    early abandoning is found later.  The *outer* rarest-first ordering
    is compared observationally against its adversarial inversion —
    on small candidate sets the inner heuristic dominates, so the outer
    effect can go either way (both are reported).
    """
    dataset = _dataset()

    def run():
        detector = GrammarAnomalyDetector(
            dataset.window, dataset.paa_size, dataset.alphabet_size
        )
        fitted = detector.fit(dataset.series)
        paper = find_discords(
            dataset.series, fitted.candidates, num_discords=1,
            seed=0,
        )
        # Ablate the inner heuristic: unique rule ids -> no same-rule group.
        ungrouped = [
            RuleInterval(10_000 + i, iv.start, iv.end, usage=iv.usage)
            for i, iv in enumerate(fitted.candidates)
        ]
        no_inner = find_discords(
            dataset.series, ungrouped, num_discords=1,
            seed=0,
        )
        # Invert the outer ordering: frequent rules first.
        inverted = [
            RuleInterval(iv.rule_id, iv.start, iv.end, usage=10_000 - iv.usage)
            for iv in fitted.candidates
        ]
        frequent_first = find_discords(
            dataset.series, inverted, num_discords=1,
            seed=0,
        )
        return paper, no_inner, frequent_first

    paper, no_inner, frequent_first = benchmark.pedantic(run, rounds=1, iterations=1)

    # all orderings find the same discord (they are pruning heuristics)
    assert (paper.best.start, paper.best.end) == (
        no_inner.best.start, no_inner.best.end,
    ) == (frequent_first.best.start, frequent_first.best.end)
    # the inner same-rule-first heuristic strictly saves calls
    assert paper.distance_calls < no_inner.distance_calls

    inner_saving = 100.0 * (1 - paper.distance_calls / no_inner.distance_calls)
    results(
        "ablation_loop_orderings",
        "\n".join(
            [
                f"paper orderings:         {paper.distance_calls} calls",
                f"no same-rule inner:      {no_inner.distance_calls} calls "
                f"(+{no_inner.distance_calls - paper.distance_calls})",
                f"inverted outer ordering: {frequent_first.distance_calls} calls",
                f"the inner same-rule-first heuristic saves "
                f"{inner_saving:.1f}% of calls",
            ]
        ),
    )
