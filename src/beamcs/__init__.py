"""Learned compressed sensing for sparse beamspace channel feedback.

A channel simulator produces exactly sparse beamspace vectors; an
unrolled l1-minimization autoencoder trains a measurement matrix on
them; basis pursuit recovers vectors from compressed measurements; and
an evaluation harness compares the learned matrix against random
baselines by exact-recovery rate, normalized error, and effective rate.
"""

from .channels import ChannelConfig, ChannelDataset, generate_dataset, preprocess
from .config import ConfigError, ExperimentConfig, load_experiment, profile_defaults
from .evaluate import (
    SweepReport,
    SweepRow,
    effective_rate,
    exact_recovery_rate,
    mean_nrse,
    run_sweep,
)
from .fileio import (
    FileFormatError,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from .matrices import MatrixKind, MeasurementMatrix, generate_baseline
from .network import (
    BatchNormLayer,
    ForwardTrace,
    Gradients,
    Mode,
    UnrolledAutoencoder,
    backward,
    decoder_init,
    encode,
    forward,
    mse_loss,
)
from .recovery import BasisPursuitSolver, RecoveryConfig, RecoveryResult, RecoveryStatus
from .training import (
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    init_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BasisPursuitSolver",
    "BatchNormLayer",
    "ChannelConfig",
    "ChannelDataset",
    "ConfigError",
    "ExperimentConfig",
    "FileFormatError",
    "ForwardTrace",
    "Gradients",
    "MatrixKind",
    "MeasurementMatrix",
    "Mode",
    "RecoveryConfig",
    "RecoveryResult",
    "RecoveryStatus",
    "SweepReport",
    "SweepRow",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "UnrolledAutoencoder",
    "backward",
    "decoder_init",
    "effective_rate",
    "encode",
    "exact_recovery_rate",
    "forward",
    "generate_baseline",
    "generate_dataset",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "load_experiment",
    "mean_nrse",
    "mse_loss",
    "preprocess",
    "profile_defaults",
    "run_sweep",
    "save_checkpoint",
    "save_dataset",
    "train",
]
