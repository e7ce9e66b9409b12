"""repro — grammar-based time series anomaly discovery.

A from-scratch Python reproduction of *"Time series anomaly discovery
with grammar-based compression"* (Senin et al., EDBT 2015): SAX
discretization, Sequitur grammar induction, the rule density curve, and
the RRA (Rare Rule Anomaly) variable-length discord algorithm, plus the
HOTSAX and brute-force baselines the paper compares against.

Quickstart
----------
>>> import numpy as np
>>> from repro import GrammarAnomalyDetector
>>> t = np.arange(4000)
>>> series = np.sin(2 * np.pi * t / 200)
>>> series[2000:2120] = -series[2000:2120]        # plant an anomaly
>>> detector = GrammarAnomalyDetector(window=100, paa_size=4, alphabet_size=4)
>>> _ = detector.fit(series)
>>> best = detector.discords(num_discords=1).best
>>> 1900 <= best.start <= 2120
True
"""

from repro._lazy import lazy_exports

#: Module → the public names taken from it, each imported on first
#: access (DESIGN §17).  ``__all__`` lists these names.
_EXPORTS = {
    "repro.core.anomaly": ("Anomaly", "Discord"),
    "repro.core.auto_params": (
        "ParameterSuggestion",
        "dominant_period",
        "suggest_parameters",
    ),
    "repro.core.ensemble": (
        "EnsembleDetector",
        "EnsembleDiscord",
        "EnsembleMember",
        "EnsembleResult",
    ),
    "repro.core.motifs": ("Motif", "find_motifs"),
    "repro.core.parameter_grid": ("ParameterGridStudy",),
    "repro.core.pipeline": ("GrammarAnomalyDetector", "PipelineResult"),
    "repro.core.rra": ("find_discords",),
    "repro.core.rule_density": ("find_density_anomalies", "rule_density_curve"),
    "repro.observability": (
        "MetricsRegistry",
        "NullMetrics",
        "deterministic_view",
        "read_run_report",
        "write_run_report",
    ),
    "repro.streaming": ("StreamAlarm", "StreamingAnomalyDetector"),
    "repro.exceptions": (
        "CheckpointError",
        "DataQualityError",
        "DatasetError",
        "DiscordSearchError",
        "DiscretizationError",
        "GrammarError",
        "GridCellError",
        "ParameterError",
        "ReproError",
        "TrajectoryError",
    ),
    "repro.cache": ("ResultCache",),
    "repro.resilience": ("CancellationToken", "SearchBudget", "SearchStatus"),
    "repro.grammar": ("Grammar", "GrammarRule", "induce_grammar", "repair_grammar"),
    "repro.sax": ("Discretization", "NumerosityReduction", "discretize", "sax_word"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
