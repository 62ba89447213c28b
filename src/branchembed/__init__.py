"""branchembed: hierarchical clustering and size-aware 2-D embedding.

The pipeline: build (or load) a dendrogram, drop it into the plane with
:func:`branching_embed`, then judge the layout by reclustering the points
and correlating tree-derived pairwise matrices via
:func:`evaluate_embedding`.
"""

from .bench import (
    DEFAULT_CONDITIONS,
    DEFAULT_THETAS,
    BenchConfig,
    BenchTable,
    default_strategies,
    run_table_experiment,
)
from .cluster import (
    DISSIMILARITY_KINDS,
    LINKAGE_METHODS,
    correlation_dissimilarity,
    dissimilarity,
    euclidean_dissimilarity,
    linkage,
)
from .datasets import (
    LabeledData,
    blobs,
    gaussian_matrix,
    iris,
    load_csv,
    rescale_minmax,
    s_curve,
)
from .dendrogram import (
    CondensedMatrix,
    Dendrogram,
    MergeRecord,
    cophenetic_matrix,
    kinship_matrix,
    leaf_order,
    parse_merge_table,
    serialize_merge_table,
    validate_dendrogram,
)
from .embed import (
    AngleStrategy,
    Embedding,
    SplitEvent,
    branching_embed,
    division_step,
    even_angle,
    line_embed,
)
from .errors import (
    BranchEmbedError,
    ConstantColumn,
    DendrogramError,
    DissimilarityOverflow,
    DuplicateChild,
    EmbeddingOverflow,
    ForwardReference,
    IoError,
    LinkageOverflow,
    NegativeHeight,
    NonMonotonic,
    ParseError,
    RaggedRow,
    ScoringOverflow,
    SizeLimit,
    SizeMismatch,
    ZeroVariance,
    ZeroVarianceRow,
)
from .metrics import (
    EvalReport,
    convert_dendrogram,
    evaluate_embedding,
)
from .rng import SplitMix64
from .svgplot import PALETTE, render_svg_scatter

__version__ = "0.1.0"

__all__ = [
    "AngleStrategy",
    "BenchConfig",
    "BenchTable",
    "BranchEmbedError",
    "CondensedMatrix",
    "ConstantColumn",
    "DEFAULT_CONDITIONS",
    "DEFAULT_THETAS",
    "Dendrogram",
    "DendrogramError",
    "DissimilarityOverflow",
    "DISSIMILARITY_KINDS",
    "DuplicateChild",
    "Embedding",
    "EmbeddingOverflow",
    "EvalReport",
    "ForwardReference",
    "IoError",
    "LabeledData",
    "LINKAGE_METHODS",
    "LinkageOverflow",
    "MergeRecord",
    "NegativeHeight",
    "NonMonotonic",
    "PALETTE",
    "ParseError",
    "RaggedRow",
    "ScoringOverflow",
    "SizeLimit",
    "SizeMismatch",
    "SplitEvent",
    "SplitMix64",
    "ZeroVariance",
    "ZeroVarianceRow",
    "blobs",
    "branching_embed",
    "convert_dendrogram",
    "cophenetic_matrix",
    "correlation_dissimilarity",
    "default_strategies",
    "dissimilarity",
    "division_step",
    "euclidean_dissimilarity",
    "evaluate_embedding",
    "even_angle",
    "gaussian_matrix",
    "iris",
    "kinship_matrix",
    "leaf_order",
    "line_embed",
    "linkage",
    "load_csv",
    "parse_merge_table",
    "render_svg_scatter",
    "rescale_minmax",
    "run_table_experiment",
    "s_curve",
    "serialize_merge_table",
    "validate_dendrogram",
]
