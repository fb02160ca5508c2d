"""Temporal action detection on precomputed snippet score sequences.

The pipeline: generate or load per-snippet class score matrices, cut them
into fixed-length windows, train an anchor-based 1D conv detector with a
multi-task loss, fuse network outputs with snippet scores at prediction
time, suppress duplicates per category, and score the detections with
IoU-thresholded average precision.
"""

from .data import (
    ActionInstance,
    AnnotationSet,
    Detection,
    ScoreBlock,
    ScoreSequence,
    SynthConfig,
    VideoAnnotation,
    Window,
    retained_targets,
    shuffle_training_set,
    slide_windows,
    synth_generate,
)
from .errors import ConfigError, DataError, NumericError, TadError, UsageError
from .evaluation import EvalReport, average_precision, evaluate
from .gradcheck import GradCheckResult, check_gradients
from .inference import (
    FusionConfig,
    block_alignment,
    fuse_scores,
    mean_snippet_scores,
    nms,
    predict_video,
)
from .io import (
    load_annotations,
    load_predictions,
    load_sas_features,
    save_annotations,
    save_predictions,
    save_sas_features,
)
from .losses import (
    LossWeights,
    TrainingBatch,
    classification_loss,
    l2_penalty,
    location_loss,
    overlap_loss,
    total_loss,
)
from .matching import hard_negative_mine, match_anchors, segment_iou_matrix
from .model import (
    BASE_ARCHITECTURES,
    LayerSpec,
    Network,
    NetworkConfig,
    anchor_grid,
    load_checkpoint,
    save_checkpoint,
)
from .optim import Adam, xavier_init
from .tensor import Parameter, Tensor, conv1d, maxpool1d, relu, sigmoid, softmax
from .training import TrainConfig, TrainResult, build_training_batch, train

__version__ = "0.1.0"
