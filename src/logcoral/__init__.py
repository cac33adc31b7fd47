"""Covariance-alignment losses for unsupervised domain adaptation.

Euclidean (CORAL) and Log-Euclidean (geodesic) covariance distances plus a
first-order mean distance, with hand-derived backward passes, and a small
numpy feed-forward trainer that optimizes them jointly with classification.
"""
from .exceptions import (
    InvalidInput,
    LogCoralError,
    NotPositiveDefinite,
    NumericalFailure,
    ParseError,
)
from .linalg import (
    EigenPair,
    SymmetricMatrix,
    default_epsilon,
    matrix_exp,
    matrix_log,
    regularize_psd,
    sym_eig,
    sym_part,
)
from .losses import (
    LossBundle,
    LossWeights,
    chain_to_features,
    coral_loss,
    logcoral_loss,
    mean_loss,
    softmax_cross_entropy,
)
from .stats import (
    FeatureBatch,
    SmoothedStats,
    batch_covariance,
    batch_mean,
    update_smoothed,
)
from .data import DatasetPair, ShiftSpec, generate, load_csv, make_benchmark_spec, save_csv
from .network import MlpModel, TrainState, evaluate, forward, train_step
from .training import RunConfig, ablate, default_dataset, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"
