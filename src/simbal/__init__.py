"""Simplex-based minority oversampling for imbalanced binary classification.

Build a neighborhood graph over the minority class, take the maximal
simplices of (a skeleton of) its clique complex, and synthesize new minority
points as Dirichlet-weighted combinations of simplex vertices. Ships with
edge-based and distribution-based baselines, safety-aware variants, and a
cross-validated benchmark harness.
"""

from .complexes import (
    MAXIMAL,
    Skeleton,
    SkeletonParameterError,
    SubdivisionCapExceeded,
    maximal_cliques,
    p_skeleton,
)
from .datasets import (
    Dataset,
    DatasetError,
    MAJORITY,
    MINORITY,
    Shape,
    SyntheticSpec,
    generate_synthetic,
)
from .evaluation import (
    BENCHMARK_K_GRID,
    BENCHMARK_METHODS,
    CVConfig,
    CellResult,
    DEFAULT_K_CLF,
    DEFAULT_P_GRID,
    EvalReport,
    EvaluationError,
    IMBALANCED,
    grid_search_eval,
    knn_classify,
    method_grid,
    parse_method,
    rank_methods,
    report_to_csv,
    report_to_text,
    stratified_cv,
    synthetic_benchmark,
)
from .geometry import (
    GeometryParameterError,
    distance_to_simplex,
    mean_model_distance,
    sample_dirichlet,
)
from .graphs import (
    GraphParameterError,
    MUTUAL,
    NeighborhoodGraph,
    UNION,
    knn_graph,
    pairwise_distances,
)
from .metrics import ConfusionCounts, MetricError, confusion_counts, f1_score, mcc_score
from .samplers import (
    Method,
    Provenance,
    SamplerConfig,
    SamplerParameterError,
    SyntheticBatch,
    minority_skeleton,
    oversample,
    oversample_gaussian,
    oversample_global,
    oversample_random,
    oversample_simplicial,
    oversample_smote,
)
from .variants import (
    EmptyBorderlineError,
    NeighborhoodSafety,
    adasyn_weights,
    borderline_subset,
    compute_safety,
    oversample_safelevel,
    safelevel_alphas,
)

__version__ = "0.1.0"

__all__ = [
    "MAXIMAL", "Skeleton", "SkeletonParameterError", "SubdivisionCapExceeded",
    "maximal_cliques", "p_skeleton",
    "Dataset", "DatasetError", "MAJORITY", "MINORITY", "Shape", "SyntheticSpec",
    "generate_synthetic",
    "BENCHMARK_K_GRID", "BENCHMARK_METHODS", "CVConfig", "CellResult",
    "DEFAULT_K_CLF", "DEFAULT_P_GRID", "EvalReport", "EvaluationError",
    "IMBALANCED", "grid_search_eval", "knn_classify",
    "method_grid", "parse_method", "rank_methods", "report_to_csv",
    "report_to_text", "stratified_cv", "synthetic_benchmark",
    "GeometryParameterError", "distance_to_simplex",
    "mean_model_distance", "sample_dirichlet",
    "GraphParameterError", "MUTUAL", "NeighborhoodGraph", "UNION",
    "knn_graph", "pairwise_distances",
    "ConfusionCounts", "MetricError", "confusion_counts", "f1_score", "mcc_score",
    "Method", "Provenance", "SamplerConfig", "SamplerParameterError",
    "SyntheticBatch", "minority_skeleton", "oversample", "oversample_gaussian",
    "oversample_global", "oversample_random", "oversample_simplicial",
    "oversample_smote",
    "EmptyBorderlineError", "NeighborhoodSafety", "adasyn_weights",
    "borderline_subset", "compute_safety", "oversample_safelevel",
    "safelevel_alphas",
    "__version__",
]
