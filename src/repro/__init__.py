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

from repro.core import (
    Anomaly,
    Discord,
    EnsembleDetector,
    EnsembleDiscord,
    EnsembleMember,
    EnsembleResult,
    GrammarAnomalyDetector,
    Motif,
    ParameterGridStudy,
    ParameterSuggestion,
    PipelineResult,
    RRAResult,
    dominant_period,
    find_density_anomalies,
    find_discord,
    find_discords,
    find_motifs,
    rule_density_curve,
    suggest_parameters,
)
from repro.observability import (
    MetricsRegistry,
    NullMetrics,
    deterministic_view,
    read_run_report,
    write_run_report,
)
from repro.streaming import StreamAlarm, StreamingAnomalyDetector
from repro.exceptions import (
    CheckpointError,
    DataQualityError,
    DatasetError,
    DiscordSearchError,
    DiscretizationError,
    GrammarError,
    GridCellError,
    ParameterError,
    ReproError,
    TrajectoryError,
)
from repro.cache import ResultCache
from repro.resilience import CancellationToken, SearchBudget, SearchStatus
from repro.grammar import Grammar, GrammarRule, induce_grammar, repair_grammar
from repro.sax import Discretization, NumerosityReduction, discretize, sax_word

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Anomaly",
    "Discord",
    "EnsembleDetector",
    "EnsembleDiscord",
    "EnsembleMember",
    "EnsembleResult",
    "GrammarAnomalyDetector",
    "ParameterGridStudy",
    "PipelineResult",
    "RRAResult",
    "find_density_anomalies",
    "find_discord",
    "find_discords",
    "rule_density_curve",
    "Motif",
    "find_motifs",
    "ParameterSuggestion",
    "dominant_period",
    "suggest_parameters",
    # observability
    "MetricsRegistry",
    "NullMetrics",
    "write_run_report",
    "read_run_report",
    "deterministic_view",
    # streaming
    "StreamAlarm",
    "StreamingAnomalyDetector",
    # cache
    "ResultCache",
    # resilience
    "CancellationToken",
    "SearchBudget",
    "SearchStatus",
    # grammar
    "Grammar",
    "GrammarRule",
    "induce_grammar",
    "repair_grammar",
    # sax
    "Discretization",
    "NumerosityReduction",
    "discretize",
    "sax_word",
    # exceptions
    "ReproError",
    "ParameterError",
    "DiscretizationError",
    "GrammarError",
    "DiscordSearchError",
    "DatasetError",
    "GridCellError",
    "DataQualityError",
    "CheckpointError",
    "TrajectoryError",
]
