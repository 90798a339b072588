"""Semi-supervised temporal action segmentation and pose imitation.

Per-frame feature vectors are embedded on the unit sphere with metric
learning, segmented with one of five sequence models, refined with
top-k pseudo-labels, and decoded into two-arm end-effector poses.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    Demonstration,
    SyntheticConfig,
    confusion_matrix,
    generate_synthetic,
    load_dataset,
    mask_labels,
    save_dataset,
    segmentation_accuracy,
    split_leave_one_out,
)
from .embedding import Encoder, train_embedding
from .pipeline import PipelineConfig, PseudoLabel, run_alternation

__all__ = [
    "Dataset",
    "Demonstration",
    "Encoder",
    "PipelineConfig",
    "PseudoLabel",
    "SyntheticConfig",
    "confusion_matrix",
    "generate_synthetic",
    "load_dataset",
    "mask_labels",
    "run_alternation",
    "save_dataset",
    "segmentation_accuracy",
    "split_leave_one_out",
    "train_embedding",
]
