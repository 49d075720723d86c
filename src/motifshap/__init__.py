"""Shapley-based motif explanations for black-box classifiers of graphs
with node identity.

The package explains any classifier B: graph -> [0, 1] by treating a set
of motifs (connected edge sets over a fixed node universe) as players in
a cooperative game: a motif's explanation score is its Shapley value
over the lattice of masked motif coalitions. Besides the exact and
depth-limited engines it ships masking strategies, built-in surrogate
black boxes plus an external-process protocol, a synthetic benchmark
generator with ground-truth injections, a frequent-motif miner and
cross-support ranker, and the matching evaluation statistics.
"""

from .blackbox import (
    BlackBox,
    GroundTruthScorer,
    LinearSurrogate,
    TrainConfig,
    accuracy,
    train_linear_surrogate,
)
from .engine import (
    CoalitionLattice,
    Explanation,
    WeightingScheme,
    approx_explain,
    exact_explain,
    explain_depths,
    query_budget,
)
from .errors import (
    ConfigurationError,
    DegenerateTrainingError,
    EmptyDatasetError,
    InputFormatError,
    LatticeTooLargeError,
    MotifShapError,
    ParameterError,
    TransportError,
    UndefinedCorrelationError,
    UniverseMismatchError,
)
from .graphs import (
    Graph,
    LabeledDataset,
    Motif,
    edge_frequency,
    is_connected,
    jaccard_distance,
    load_dataset,
    load_graph_file,
    load_motifs,
    save_dataset,
    save_motifs,
    support,
)
from .masking import MaskingStrategy
from .mining import MinerConfig, RankerConfig, cross_support, mine, rank_and_select
from .stats import (
    ExpectedScoreTable,
    SeparabilityReport,
    expected_scores,
    global_ranking,
    ks_2sample,
    pearson,
    separability,
    spearman,
)
from .synth import InjectionRecord, SynthConfig, erdos_renyi, generate, sample_motifs
from .wire import ExternalBlackBox, serve

__version__ = "0.1.0"

__all__ = [
    "BlackBox", "ExternalBlackBox", "GroundTruthScorer", "LinearSurrogate",
    "TrainConfig", "accuracy", "serve", "train_linear_surrogate",
    "CoalitionLattice", "Explanation", "WeightingScheme", "approx_explain",
    "exact_explain", "explain_depths", "query_budget",
    "ConfigurationError", "DegenerateTrainingError", "EmptyDatasetError",
    "InputFormatError", "LatticeTooLargeError", "MotifShapError",
    "ParameterError", "TransportError", "UndefinedCorrelationError",
    "UniverseMismatchError",
    "Graph", "LabeledDataset", "Motif", "edge_frequency", "is_connected",
    "jaccard_distance", "load_dataset", "load_graph_file", "load_motifs",
    "save_dataset", "save_motifs", "support",
    "MaskingStrategy",
    "MinerConfig", "RankerConfig", "cross_support", "mine", "rank_and_select",
    "ExpectedScoreTable", "SeparabilityReport", "expected_scores",
    "global_ranking", "ks_2sample", "pearson", "separability", "spearman",
    "InjectionRecord", "SynthConfig", "erdos_renyi", "generate", "sample_motifs",
    "__version__",
]
