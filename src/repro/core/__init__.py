"""The paper's primary contribution: grammar-driven anomaly discovery.

Two algorithms (paper Section 4):

* :func:`~repro.core.rule_density.rule_density_curve` and friends — the
  approximate, linear-time rule-density detector;
* :func:`~repro.core.rra.find_discords` — RRA, the exact variable-length
  discord search.

:class:`~repro.core.pipeline.GrammarAnomalyDetector` wires SAX + Sequitur
+ both detectors into a one-call API.
"""

from repro._lazy import lazy_exports

#: Supported per-member density-curve normalizers of the ensemble.
#: Defined here rather than in :mod:`repro.core.ensemble` so the CLI can
#: offer them as choices without importing the ensemble.
NORMALIZATIONS = ("minmax", "rank")

#: Supported cross-member aggregators of the ensemble.
AGGREGATIONS = ("mean", "median", "vote")

#: Module → the public names taken from it, each imported on first
#: access (DESIGN §17).  ``__all__`` lists these names.
_EXPORTS = {
    "repro.core.anomaly": ("Anomaly", "Discord"),
    "repro.core.rule_density": (
        "rule_density_curve",
        "density_minima_intervals",
        "find_density_anomalies",
    ),
    "repro.core.rra": ("find_discords",),
    "repro.core.pipeline": ("GrammarAnomalyDetector", "PipelineResult"),
    "repro.core.parameter_grid": ("GridPoint", "ParameterGridStudy"),
    "repro.core.ensemble": (
        "EnsembleDetector",
        "EnsembleDiscord",
        "EnsembleMember",
        "EnsembleResult",
        "default_grid",
        "ensemble_grid",
    ),
    "repro.core.motifs": ("Motif", "find_motifs", "motif_cover_fraction"),
    "repro.core.auto_params": (
        "ParameterSuggestion",
        "dominant_period",
        "grammar_health",
        "suggest_parameters",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
