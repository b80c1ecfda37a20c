"""Checkpoint merging that pools weights across a scaling-factor sweep."""

from .analysis import (
    AccuracyTable,
    CsvFormatError,
    LambdaHistogram,
    best_lambda_histogram,
    sweep_emit,
)
from .methods import (
    MergeFn,
    MergeSpec,
    available_methods,
    breadcrumbs,
    dare,
    default_lambda_range,
    magmax,
    register_merge,
    registry_lookup,
    task_arithmetic,
    ties,
)
from .store import (
    CheckpointError,
    FingerprintMismatch,
    Tensor,
    TensorMap,
    read_checkpoint,
    write_checkpoint,
)
from .vectors import (
    SimilarityMatrix,
    TaskVector,
    add,
    compute_deltas,
    cosine_matrix,
)
from .weave import (
    PoolSpec,
    SearchSpace,
    WeaveReport,
    build_augmented,
    default_search_space,
    pool,
    weave,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyTable",
    "CheckpointError",
    "CsvFormatError",
    "FingerprintMismatch",
    "LambdaHistogram",
    "MergeFn",
    "MergeSpec",
    "PoolSpec",
    "SearchSpace",
    "SimilarityMatrix",
    "TaskVector",
    "Tensor",
    "TensorMap",
    "WeaveReport",
    "add",
    "available_methods",
    "best_lambda_histogram",
    "breadcrumbs",
    "build_augmented",
    "compute_deltas",
    "cosine_matrix",
    "dare",
    "default_lambda_range",
    "default_search_space",
    "magmax",
    "pool",
    "read_checkpoint",
    "register_merge",
    "registry_lookup",
    "sweep_emit",
    "task_arithmetic",
    "ties",
    "weave",
    "write_checkpoint",
]
