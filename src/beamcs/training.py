"""Mini-batch SGD training of the unrolled autoencoder.

Plain SGD (no momentum, no schedule) with one global learning rate for
every parameter group, including the step-size scalar.  Model selection
is by best dev loss; the dev split is scored in inference mode on a
fixed schedule, with optional early stopping.  Runs are bit-reproducible
functions of (dataset, config, seed).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .channels import ChannelDataset
from .matrices import MatrixKind, MeasurementMatrix
from .network import (
    BatchNormLayer,
    Mode,
    UnrolledAutoencoder,
    backward,
    forward,
    mse_loss,
)

# Philox stream tags under the run seed; length-2 keys cannot collide
# with the dataset module's per-sample streams.
_INIT_STREAM = (7, 0)
_SHUFFLE_STREAM = (7, 1)

_TRUNC_SIGMAS = 2.0
_DEV_CHUNK = 512


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or parameter becomes non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    init_stddev None means 1/sqrt(n_cols), so the initial rows keep
    roughly unit norm at any width.  early_stop_patience counts
    consecutive dev evaluations without improvement; 0 disables early
    stopping.
    """

    learning_rate: float = 0.01
    batch_size: int = 128
    max_epochs: int = 1000
    init_stddev: float | None = None
    num_updates: int = 9
    alpha_init: float = 1.0
    seed: int = 0
    dev_eval_every: int = 1
    early_stop_patience: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.init_stddev is not None and not 0 < self.init_stddev < np.inf:
            raise ValueError("init_stddev must be positive and finite")
        if self.num_updates < 0:
            raise ValueError("num_updates must be nonnegative")
        if not 0 < self.alpha_init < np.inf:
            raise ValueError("alpha_init must be positive and finite")
        if self.dev_eval_every < 1:
            raise ValueError("dev_eval_every must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be nonnegative")


@dataclass
class TrainReport:
    """Loss curves and selection outcome of one training run.

    train_losses[i] is the sample-weighted mean batch loss of epoch i+1.
    dev_epochs/dev_losses record the evaluation schedule; epoch 0 is the
    untrained model, so the best-checkpoint guarantee includes it.
    epoch_seconds is wall-clock and belongs in logs, never in
    deterministic artifacts.
    """

    train_losses: np.ndarray
    dev_epochs: np.ndarray
    dev_losses: np.ndarray
    epoch_seconds: np.ndarray
    best_epoch: int
    best_dev_loss: float
    stopped_early: bool


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], stddev: float
) -> np.ndarray:
    """Normal draws with entries beyond +-2 stddev redrawn (rejection)."""
    bound = _TRUNC_SIGMAS * stddev
    x = rng.normal(0.0, stddev, size=shape)
    mask = np.abs(x) > bound
    while np.any(mask):
        x[mask] = rng.normal(0.0, stddev, size=int(mask.sum()))
        mask = np.abs(x) > bound
    return x


def init_model(m: int, n_cols: int, cfg: TrainConfig) -> UnrolledAutoencoder:
    """Fresh model: truncated-normal Phi, alpha_init, identity BN layers."""
    if not 0 < m < n_cols:
        raise ValueError(f"need 0 < m < n_cols, got m={m}, n_cols={n_cols}")
    stddev = cfg.init_stddev if cfg.init_stddev is not None else 1.0 / np.sqrt(n_cols)
    rng = _stream(cfg.seed, _INIT_STREAM)
    phi = _truncated_normal(rng, (m, n_cols), stddev)
    layers = [BatchNormLayer.identity(n_cols) for _ in range(cfg.num_updates + 1)]
    return UnrolledAutoencoder(
        phi=phi, alpha=cfg.alpha_init, num_updates=cfg.num_updates, bn_layers=layers
    )


def _check_finite(model: UnrolledAutoencoder, epoch: int) -> None:
    ok = np.isfinite(model.alpha) and np.all(np.isfinite(model.phi))
    if ok:
        for layer in model.bn_layers:
            if not (
                np.all(np.isfinite(layer.gamma))
                and np.all(np.isfinite(layer.beta))
                and np.all(np.isfinite(layer.running_mean))
                and np.all(np.isfinite(layer.running_var))
            ):
                ok = False
                break
    if not ok:
        raise TrainingDivergedError(
            f"non-finite parameter after epoch {epoch}; "
            "lower the learning rate or the init scale"
        )


def dev_loss(model: UnrolledAutoencoder, samples: np.ndarray) -> float:
    """Inference-mode reconstruction loss, chunked; exact because
    inference outputs are batch-independent."""
    if samples.shape[0] == 0:
        raise ValueError("empty evaluation split")
    total = 0.0
    trace = None
    for start in range(0, samples.shape[0], _DEV_CHUNK):
        block = samples[start : start + _DEV_CHUNK]
        out, trace = forward(model, block, Mode.INFER, reuse=trace)
        diff = np.subtract(block, out, out=out)
        diff *= diff
        total += float(np.sum(diff))
    return total / samples.shape[0]


def train(
    dataset: ChannelDataset, m: int, cfg: TrainConfig
) -> tuple[UnrolledAutoencoder, TrainReport]:
    """Trains a fresh model on the dataset's train split.

    Returns the snapshot with the best dev loss seen (the untrained
    model counts as epoch 0).  Raises TrainingDivergedError on any
    non-finite loss or parameter.
    """
    train_x = dataset.train
    dev_x = dataset.dev
    if train_x.shape[0] == 0 or dev_x.shape[0] == 0:
        raise ValueError("dataset must have nonempty train and dev splits")
    if train_x.shape[0] < 2:
        raise ValueError("train split must hold at least 2 samples")

    model = init_model(m, dataset.width, cfg)
    shuffle_rng = _stream(cfg.seed, _SHUFFLE_STREAM)

    best = copy.deepcopy(model)
    best_loss = dev_loss(model, dev_x)
    best_epoch = 0
    dev_epochs = [0]
    dev_losses = [best_loss]
    train_losses: list[float] = []
    epoch_seconds: list[float] = []
    evals_since_best = 0
    stopped_early = False

    # Every step overwrites the same batch, error and trace buffers.
    n_train = train_x.shape[0]
    batch_buf = np.empty((min(cfg.batch_size, n_train), dataset.width))
    error_buf = np.empty_like(batch_buf)
    trace = None
    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        perm = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        used = 0
        for start in range(0, n_train, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.shape[0] < 2:
                break  # train-mode BN cannot take a singleton batch
            rows = idx.shape[0]
            # idx is a permutation slice, always in range; mode="clip"
            # writes straight into out, where "raise" would buffer a copy
            batch = np.take(train_x, idx, axis=0, out=batch_buf[:rows], mode="clip")
            out, trace = forward(model, batch, Mode.TRAIN, reuse=trace)
            loss = mse_loss(batch, out, out=error_buf[:rows])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            grads = backward(model, trace, batch)
            model.phi -= cfg.learning_rate * grads.d_phi
            model.alpha -= cfg.learning_rate * grads.d_alpha
            for layer, dg, db in zip(model.bn_layers, grads.d_gammas, grads.d_betas):
                layer.gamma -= cfg.learning_rate * dg
                layer.beta -= cfg.learning_rate * db
            loss_sum += loss * rows
            used += rows
        _check_finite(model, epoch)
        train_losses.append(loss_sum / used)
        epoch_seconds.append(time.perf_counter() - tic)

        if epoch % cfg.dev_eval_every == 0 or epoch == cfg.max_epochs:
            loss = dev_loss(model, dev_x)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite dev loss at epoch {epoch}")
            dev_epochs.append(epoch)
            dev_losses.append(loss)
            if loss < best_loss:
                best_loss = loss
                best_epoch = epoch
                best = copy.deepcopy(model)
                evals_since_best = 0
            else:
                evals_since_best += 1
                if (
                    cfg.early_stop_patience
                    and evals_since_best >= cfg.early_stop_patience
                ):
                    stopped_early = True
                    break

    report = TrainReport(
        train_losses=np.array(train_losses),
        dev_epochs=np.array(dev_epochs),
        dev_losses=np.array(dev_losses),
        epoch_seconds=np.array(epoch_seconds),
        best_epoch=best_epoch,
        best_dev_loss=best_loss,
        stopped_early=stopped_early,
    )
    return best, report


def extract_matrix(model: UnrolledAutoencoder) -> MeasurementMatrix:
    """The trained compression matrix; the decoder is not needed to use it."""
    return MeasurementMatrix(kind=MatrixKind.LEARNED, data=model.phi)
