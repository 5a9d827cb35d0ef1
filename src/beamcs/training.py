"""Mini-batch SGD training of the unrolled autoencoder.

Plain SGD (no momentum, no schedule) with one global learning rate for
every parameter group, including the step-size scalar.  Model selection
is by best dev loss; the dev split is scored in inference mode on a
fixed schedule, and every run takes all max_epochs epochs.  Runs are
bit-reproducible functions of (dataset, config, seed).

Models train in float32: Phi is drawn in float64 and rounded once, and
the network computes in the dtype of Phi.  MeasurementMatrix(model.phi)
widens the learned matrix back to float64 for recovery.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .channels import ChannelDataset
from .network import (
    BatchNormLayer,
    ForwardTrace,
    Gradients,
    Mode,
    UnrolledAutoencoder,
    backward,
    forward,
    mse_loss,
    page_aligned,
)

# Philox stream tags under the run seed; length-2 keys cannot collide
# with the dataset module's per-sample streams.
_INIT_STREAM = (7, 0)
_SHUFFLE_STREAM = (7, 1)

_TRUNC_SIGMAS = 2.0
_ALPHA_INIT = 1.0  # the step-size scalar alpha before any update
_DEV_CHUNK = 512


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or parameter becomes non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    Phi starts truncated-normal with stddev 1/sqrt(n_cols), so the
    initial rows keep roughly unit norm at any width.  Training runs all
    max_epochs epochs and keeps the snapshot with the best dev loss.
    """

    learning_rate: float = 0.01
    batch_size: int = 128
    max_epochs: int = 1000
    num_updates: int = 9
    seed: int = 0
    dev_eval_every: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.num_updates < 0:
            raise ValueError("num_updates must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.dev_eval_every < 1:
            raise ValueError("dev_eval_every must be >= 1")


@dataclass
class TrainReport:
    """Loss curves and selection outcome of one training run.

    train_losses[i] is the sample-weighted mean batch loss of epoch i+1,
    one entry per epoch of max_epochs, since every run takes them all.
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
    """Fresh float32 model: truncated-normal Phi, alpha = 1.0, identity BN
    layers."""
    if not 0 < m < n_cols:
        raise ValueError(f"need 0 < m < n_cols, got m={m}, n_cols={n_cols}")
    rng = _stream(cfg.seed, _INIT_STREAM)
    phi = _truncated_normal(rng, (m, n_cols), 1.0 / np.sqrt(n_cols))
    phi = phi.astype(np.float32)
    layers = [
        BatchNormLayer.identity(n_cols, dtype=np.float32)
        for _ in range(cfg.num_updates + 1)
    ]
    return UnrolledAutoencoder(
        phi=phi, alpha=_ALPHA_INIT, num_updates=cfg.num_updates, bn_layers=layers
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
            f"non-finite parameter after epoch {epoch}; lower the learning rate"
        )


def _sgd_step(
    model: UnrolledAutoencoder, grads: Gradients, learning_rate: float
) -> None:
    """One plain SGD update of every parameter group, in place."""
    model.phi -= learning_rate * grads.d_phi
    model.alpha -= learning_rate * grads.d_alpha
    for layer, dg, db in zip(model.bn_layers, grads.d_gammas, grads.d_betas):
        layer.gamma -= learning_rate * dg
        layer.beta -= learning_rate * db


def dev_loss(
    model: UnrolledAutoencoder, samples: np.ndarray, trace: ForwardTrace
) -> float:
    """Inference-mode reconstruction loss, chunked through trace, which
    must hold a chunk; exact because inference outputs are
    batch-independent."""
    if samples.shape[0] == 0:
        raise ValueError("empty evaluation split")
    samples = np.asarray(samples, dtype=model.phi.dtype)
    total = 0.0
    for start in range(0, samples.shape[0], _DEV_CHUNK):
        block = samples[start : start + _DEV_CHUNK]
        out = forward(model, block, Mode.INFER, trace)
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
    # Both splits are cast to the model's dtype once, not per batch.
    train_x = train_x.astype(model.phi.dtype)
    dev_x = dev_x.astype(model.phi.dtype)

    # One trace, with the rows of a batch or of a dev chunk, serves every
    # step and every dev evaluation; every step refills the same batch and
    # error buffers, page-aligned like the trace's blocks.
    n_train = train_x.shape[0]
    batch_rows = min(cfg.batch_size, n_train)
    trace = ForwardTrace.allocate(
        model, max(batch_rows, min(_DEV_CHUNK, dev_x.shape[0]))
    )
    batch_buf, error_buf = page_aligned(
        *[((batch_rows, dataset.width), train_x.dtype)] * 2
    )

    best = copy.deepcopy(model)
    best_loss = dev_loss(model, dev_x, trace)
    best_epoch = 0
    dev_epochs = [0]
    dev_losses = [best_loss]
    train_losses: list[float] = []
    epoch_seconds: list[float] = []

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
            out = forward(model, batch, Mode.TRAIN, trace)
            loss = mse_loss(batch, out, out=error_buf[:rows])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            _sgd_step(model, backward(model, trace), cfg.learning_rate)
            loss_sum += loss * rows
            used += rows
        _check_finite(model, epoch)
        train_losses.append(loss_sum / used)
        epoch_seconds.append(time.perf_counter() - tic)

        if epoch % cfg.dev_eval_every == 0 or epoch == cfg.max_epochs:
            loss = dev_loss(model, dev_x, trace)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite dev loss at epoch {epoch}")
            dev_epochs.append(epoch)
            dev_losses.append(loss)
            if loss < best_loss:
                best_loss = loss
                best_epoch = epoch
                best = copy.deepcopy(model)

    report = TrainReport(
        train_losses=np.array(train_losses),
        dev_epochs=np.array(dev_epochs),
        dev_losses=np.array(dev_losses),
        epoch_seconds=np.array(epoch_seconds),
        best_epoch=best_epoch,
        best_dev_loss=best_loss,
    )
    return best, report
