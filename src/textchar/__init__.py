"""Characteristic metrics for collections of embedding vectors.

Three unsupervised numbers summarize a labeled collection of vectors:
diversity (geometric mean of per-axis dispersion), density (samples per
unit of dispersion volume, dimension-tempered), and homogeneity (entropy
rate of a random walk over the pairwise-distance graph, normalized to
[0, 1]). The subpackages cover the metric core, synthetic-cluster
sweeps, file ingestion with mean pooling, dataset-level aggregation and
correlation, and a small CLI.
"""

from .analysis import (
    AggregateMetrics,
    CorrelationEntry,
    DatasetProfile,
    correlation_report,
    downsample_sweep,
    pearson,
)
from .errors import (
    DegenerateInput,
    InconsistentClassSize,
    ParseError,
    TextcharError,
)
from .io import (
    LabeledEmbeddings,
    pool_token_file,
    read_vectors,
    write_vectors,
)
from .metrics import (
    MarkovChainSummary,
    MetricReport,
    entropy_rate,
    metric_report,
    metric_reports,
)
from .simulation import run_scenario

__version__ = "0.1.0"

__all__ = [
    "AggregateMetrics",
    "CorrelationEntry",
    "DatasetProfile",
    "DegenerateInput",
    "InconsistentClassSize",
    "LabeledEmbeddings",
    "MarkovChainSummary",
    "MetricReport",
    "ParseError",
    "TextcharError",
    "correlation_report",
    "downsample_sweep",
    "entropy_rate",
    "metric_report",
    "metric_reports",
    "pearson",
    "pool_token_file",
    "read_vectors",
    "run_scenario",
    "write_vectors",
    "__version__",
]
