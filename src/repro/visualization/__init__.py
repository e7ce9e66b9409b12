"""Text-based visualization (stands in for the GrammarViz 2.0 GUI).

The paper's Figures 11–12 are GUI screenshots showing (a) a ranked
anomaly table, (b) a grammar-rule table, and (c) the series shaded by
rule density.  This subpackage renders the same information as plain
text: ASCII sparklines, a density-shaded strip, and aligned tables.
"""

from repro._lazy import lazy_exports

#: Module → the public names taken from it, each imported on first
#: access (DESIGN §17).  ``__all__`` lists these names.
_EXPORTS = {
    "repro.visualization.ascii": (
        "density_strip",
        "marker_line",
        "render_panels",
        "sparkline",
    ),
    "repro.visualization.report": ("anomaly_table", "grammar_report", "rule_table"),
    "repro.visualization.svg": (
        "FigurePlot",
        "SVGCanvas",
        "hilbert_plot",
        "scatter_plot",
        "trajectory_plot",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
