import numpy as np
import pytest

from beamcs import (
    ChannelConfig,
    MatrixKind,
    Mode,
    TrainConfig,
    TrainingDivergedError,
    backward,
    extract_matrix,
    forward,
    generate_dataset,
    init_model,
    mse_loss,
    train,
)
from beamcs import training
from beamcs.training import dev_loss

FAST = TrainConfig(
    learning_rate=0.05,
    batch_size=16,
    max_epochs=4,
    num_updates=2,
    seed=3,
)


def test_init_model_truncated_normal():
    cfg = TrainConfig(seed=0, num_updates=3, init_stddev=0.2)
    model = init_model(5, 40, cfg)
    assert model.phi.shape == (5, 40)
    assert np.abs(model.phi).max() <= 2.0 * 0.2
    assert model.alpha == 1.0
    assert len(model.bn_layers) == 4
    for layer in model.bn_layers:
        assert np.array_equal(layer.gamma, np.ones(40))
        assert np.array_equal(layer.beta, np.zeros(40))


def test_init_model_default_stddev():
    model = init_model(4, 64, TrainConfig(seed=1))
    assert np.abs(model.phi).max() <= 2.0 / 8.0
    # and the scale actually tracks 1/sqrt(n_cols), not something tiny
    assert model.phi.std() > 0.5 / 8.0


def test_init_model_deterministic():
    a = init_model(4, 16, TrainConfig(seed=9))
    b = init_model(4, 16, TrainConfig(seed=9))
    assert np.array_equal(a.phi, b.phi)
    c = init_model(4, 16, TrainConfig(seed=10))
    assert not np.array_equal(a.phi, c.phi)


def test_init_model_validates_dims():
    with pytest.raises(ValueError):
        init_model(0, 16, FAST)
    with pytest.raises(ValueError):
        init_model(16, 16, FAST)


def test_train_is_bit_reproducible(tiny_dataset):
    m1, r1 = train(tiny_dataset, 4, FAST)
    m2, r2 = train(tiny_dataset, 4, FAST)
    assert np.array_equal(m1.phi, m2.phi)
    assert m1.alpha == m2.alpha
    assert np.array_equal(r1.train_losses, r2.train_losses)
    assert np.array_equal(r1.dev_losses, r2.dev_losses)
    for a, b in zip(m1.bn_layers, m2.bn_layers):
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.running_var, b.running_var)


def test_train_seed_changes_outcome(tiny_dataset):
    m1, _ = train(tiny_dataset, 4, FAST)
    m2, _ = train(tiny_dataset, 4, TrainConfig(
        learning_rate=0.05, batch_size=16, max_epochs=4, num_updates=2, seed=4
    ))
    assert not np.array_equal(m1.phi, m2.phi)


def test_train_learns_on_tiny_problem(tiny_dataset):
    cfg = TrainConfig(
        learning_rate=0.05, batch_size=16, max_epochs=60, num_updates=2, seed=3
    )
    _, report = train(tiny_dataset, 6, cfg)
    assert report.best_dev_loss < 0.5 * report.dev_losses[0]


def test_train_returns_best_snapshot(tiny_dataset):
    model, report = train(tiny_dataset, 4, FAST)
    assert report.best_dev_loss == report.dev_losses.min()
    assert report.dev_epochs[np.argmin(report.dev_losses)] == report.best_epoch
    # the returned model reproduces the reported best dev loss exactly
    assert dev_loss(model, tiny_dataset.dev) == report.best_dev_loss


def test_train_dev_curve_includes_untrained_model(tiny_dataset):
    _, report = train(tiny_dataset, 4, FAST)
    assert report.dev_epochs[0] == 0
    assert len(report.train_losses) == 4
    baseline = dev_loss(init_model(4, tiny_dataset.width, FAST), tiny_dataset.dev)
    assert report.dev_losses[0] == baseline


def test_train_dev_eval_schedule(tiny_dataset):
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=7, num_updates=1,
        seed=0, dev_eval_every=3,
    )
    _, report = train(tiny_dataset, 4, cfg)
    # epochs 0, 3, 6 from the cadence plus the forced final epoch
    assert report.dev_epochs.tolist() == [0, 3, 6, 7]


def test_train_early_stopping(tiny_dataset):
    # a step too small to improve the dev loss stalls immediately
    cfg = TrainConfig(
        learning_rate=1e-12, batch_size=16, max_epochs=50, num_updates=1,
        seed=0, early_stop_patience=2,
    )
    _, report = train(tiny_dataset, 4, cfg)
    assert report.stopped_early
    assert report.best_epoch == 0
    assert len(report.train_losses) == 2


def test_train_handles_singleton_tail_batch():
    # 49 train samples against batch 16 leaves a tail of 1, which
    # train-mode batch norm cannot take; it must be dropped, not crash
    ds = generate_dataset(ChannelConfig(num_antennas=8, num_paths=2, seed=5), 62)
    assert ds.num_train % 16 == 1
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=2, num_updates=1, seed=0
    )
    _, report = train(ds, 4, cfg)
    assert len(report.train_losses) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_divergence_raises(tiny_dataset):
    cfg = TrainConfig(
        learning_rate=1e9, batch_size=16, max_epochs=30, num_updates=2, seed=0
    )
    with pytest.raises(TrainingDivergedError):
        train(tiny_dataset, 4, cfg)


def test_train_rejects_empty_splits(tiny_dataset):
    from dataclasses import replace

    broken = replace(
        tiny_dataset,
        num_train=tiny_dataset.num_samples,
        num_dev=0,
        num_test=0,
    )
    with pytest.raises(ValueError):
        train(broken, 4, FAST)


def test_dev_loss_matches_unchunked(tiny_dataset):
    model = init_model(4, tiny_dataset.width, FAST)
    split = tiny_dataset.dev
    out, _ = forward(model, split, Mode.INFER)
    assert dev_loss(model, split) == pytest.approx(mse_loss(split, out), rel=1e-12)


def test_train_calls_forward_and_backward_once_per_step(tiny_dataset, monkeypatch):
    # per-step timing from outside the package wraps training.forward
    # and training.backward, so train must go through those names
    calls = {"backward": 0, Mode.TRAIN: 0, Mode.INFER: 0}

    def counted_forward(model, h_batch, mode, **kwargs):
        calls[mode] += 1
        return forward(model, h_batch, mode, **kwargs)

    def counted_backward(*args):
        calls["backward"] += 1
        return backward(*args)

    monkeypatch.setattr(training, "_DEV_CHUNK", 4)  # a short last chunk too
    monkeypatch.setattr(training, "forward", counted_forward)
    monkeypatch.setattr(training, "backward", counted_backward)
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=20, max_epochs=3, num_updates=1,
        seed=0, dev_eval_every=2,
    )
    _, report = train(tiny_dataset, 4, cfg)
    full, rest = divmod(tiny_dataset.num_train, 20)
    steps = 3 * (full + (rest >= 2))
    assert calls["backward"] == calls[Mode.TRAIN] == steps
    chunks = -(-tiny_dataset.num_dev // 4)
    assert chunks >= 2
    assert calls[Mode.INFER] == chunks * len(report.dev_epochs)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(init_stddev=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(num_updates=-1)
    with pytest.raises(ValueError):
        TrainConfig(alpha_init=0.0)
    with pytest.raises(ValueError):
        TrainConfig(dev_eval_every=0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=-1)
    for bad in (float("nan"), float("inf")):
        for key in ("learning_rate", "init_stddev", "alpha_init"):
            with pytest.raises(ValueError, match=key):
                TrainConfig(**{key: bad})


def test_extract_matrix(tiny_dataset):
    model, _ = train(tiny_dataset, 4, FAST)
    mat = extract_matrix(model)
    assert mat.kind is MatrixKind.LEARNED
    assert np.array_equal(mat.data, model.phi)
    assert mat.data.shape == (4, tiny_dataset.width)
