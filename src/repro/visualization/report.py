"""GrammarViz-style text reports: rule tables and anomaly tables.

Renders the information of the paper's Figures 11–12 (the GrammarViz 2.0
screenshots): the ranked discord table with per-discord lengths and
nearest-neighbour distances, and the grammar-rule table with usage,
level, mean length, and expansion preview.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.anomaly import Anomaly
from repro.core.pipeline import PipelineResult
from repro.grammar.grammar import Grammar, START_RULE_ID
from repro.visualization.ascii import density_strip, sparkline


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned monospace table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def anomaly_table(anomalies: Sequence[Anomaly]) -> str:
    """Ranked anomaly table (cf. the 'GrammarViz anomalies' tab).

    Shows rank, position, length, and score (for discords: the distance
    to the nearest non-self match).
    """
    rows = []
    for anomaly in anomalies:
        rows.append(
            [
                str(anomaly.rank),
                str(anomaly.start),
                str(anomaly.length),
                f"{anomaly.score:.5f}",
                anomaly.source,
            ]
        )
    return _format_table(["Rank", "Position", "Length", "Score", "Source"], rows)


def rule_table(
    grammar: Grammar,
    *,
    max_rules: int | None = None,
    max_expansion_chars: int = 40,
) -> str:
    """Grammar-rule table (cf. the 'Grammar rules' tab of GrammarViz).

    One row per rule: id, hierarchy level, usage count, RHS, and a
    truncated expansion preview.
    """
    # Only the shown rules are looked up: a frozen grammar builds its
    # rule objects on first access.
    rule_ids = sorted(rid for rid in grammar.rules if rid != START_RULE_ID)
    if max_rules is not None:
        rule_ids = rule_ids[:max_rules]
    rules = [grammar.rules[rid] for rid in rule_ids]
    rows = []
    for rule in rules:
        expansion = rule.expansion_display()
        if len(expansion) > max_expansion_chars:
            expansion = expansion[: max_expansion_chars - 3] + "..."
        rows.append(
            [
                rule.name,
                str(rule.level),
                str(rule.usage),
                rule.rhs_display(),
                expansion,
            ]
        )
    return _format_table(["Rule", "Level", "Used", "RHS", "Expansion"], rows)


def grammar_report(
    result: PipelineResult,
    anomalies: Sequence[Anomaly],
    *,
    width: int = 80,
    max_rules: int = 15,
) -> str:
    """Full text report: panels + anomaly table + rule table.

    This is the library's stand-in for a GrammarViz session screenshot:
    everything Figures 11 and 12 convey, as text.
    """
    disc = result.discretization
    header = (
        f"series length {result.series.size}, "
        f"W={disc.window} P={disc.paa_size} A={disc.alphabet_size}, "
        f"{disc.raw_word_count} words -> {len(disc)} after numerosity reduction, "
        f"{len(result.grammar)} rules (size {result.grammar.grammar_size()})"
    )
    parts = [
        header,
        "",
        "series  | " + sparkline(result.series, width),
        "density | " + density_strip(np.asarray(result.density, dtype=float), width),
        "",
        "Anomalies:",
        anomaly_table(anomalies),
        "",
        f"Grammar rules (first {max_rules}):",
        rule_table(result.grammar, max_rules=max_rules),
    ]
    return "\n".join(parts)
