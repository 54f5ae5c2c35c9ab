"""Cross-modal embedding trainer with paced, diversity-aware sample selection.

Both modalities are mapped through affine-plus-sigmoid layers into a shared
space scored by inner products. Training alternates gradient descent on a
hinge ranking loss over tetrads with an exact per-query solve of selection
weights under easiness and diversity regularizers, admitting harder
examples as the pacing thresholds grow.
"""

from .core import (
    Dataset,
    EmbeddingParams,
    GroupedVector,
    ImportanceVector,
    LossConfig,
    PacingState,
    TetradSet,
    build_tetrads,
    validate_dataset,
)
from .data import SplitSpec, SynthSpec, load_features, save_features, skewed_synth, split, synth_generate
from .embed import map_image, map_text, score_matrix, similarity
from .evaluation import EvalResult, RankedList, average_precision, mean_ap, random_baseline, retrieve
from .loss import Block, all_losses, grad_params, objective, tetrad_loss
from .spl import (
    OracleDiagnostics,
    WeightSolution,
    init_lambda,
    oracle_spld,
    solve_spl,
    solve_spld,
    update_importance,
)
from .trainer import (
    Checkpoint,
    TrainConfig,
    TrainHistory,
    line_search,
    load_checkpoint,
    optimize_W,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Checkpoint",
    "Dataset",
    "EmbeddingParams",
    "EvalResult",
    "GroupedVector",
    "ImportanceVector",
    "LossConfig",
    "OracleDiagnostics",
    "PacingState",
    "RankedList",
    "SplitSpec",
    "SynthSpec",
    "TetradSet",
    "TrainConfig",
    "TrainHistory",
    "WeightSolution",
    "all_losses",
    "average_precision",
    "build_tetrads",
    "grad_params",
    "init_lambda",
    "line_search",
    "load_checkpoint",
    "load_features",
    "map_image",
    "map_text",
    "mean_ap",
    "objective",
    "optimize_W",
    "oracle_spld",
    "random_baseline",
    "retrieve",
    "save_checkpoint",
    "save_features",
    "score_matrix",
    "similarity",
    "skewed_synth",
    "solve_spl",
    "solve_spld",
    "split",
    "synth_generate",
    "tetrad_loss",
    "train",
    "update_importance",
    "validate_dataset",
]
