import numpy as np
import pytest

from beamcs import (
    ChannelConfig,
    MeasurementMatrix,
    Mode,
    TrainConfig,
    TrainingDivergedError,
    backward,
    forward,
    generate_dataset,
    init_model,
    mse_loss,
    train,
)
from beamcs import training
from beamcs.network import ForwardTrace
from beamcs.training import dev_loss

FAST = TrainConfig(
    learning_rate=0.05,
    batch_size=16,
    max_epochs=4,
    num_updates=2,
    seed=3,
)


def test_init_model_truncated_normal():
    cfg = TrainConfig(seed=0, num_updates=3)
    model = init_model(5, 40, cfg)
    assert model.phi.shape == (5, 40)
    # stddev 1/sqrt(width), draws beyond two stddevs redrawn
    assert np.abs(model.phi).max() <= 2.0 / np.sqrt(40)
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
    assert dev_loss(model, tiny_dataset.dev)[0] == report.best_dev_loss


def test_train_dev_curve_includes_untrained_model(tiny_dataset):
    _, report = train(tiny_dataset, 4, FAST)
    assert report.dev_epochs[0] == 0
    assert len(report.train_losses) == 4
    baseline, _ = dev_loss(init_model(4, tiny_dataset.width, FAST), tiny_dataset.dev)
    assert report.dev_losses[0] == baseline


def test_train_dev_eval_schedule(tiny_dataset):
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=7, num_updates=1,
        seed=0, dev_eval_every=3,
    )
    _, report = train(tiny_dataset, 4, cfg)
    # epochs 0, 3, 6 from the cadence plus the forced final epoch
    assert report.dev_epochs.tolist() == [0, 3, 6, 7]


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


def test_nan_in_train_split_raises(tiny_dataset):
    # forward's sign of a NaN is 0, not NaN; the NaN still reaches the
    # loss, so train stops before any backward pass
    from dataclasses import replace

    samples = tiny_dataset.samples.copy()
    samples[3, 5] = np.nan
    with pytest.raises(TrainingDivergedError, match="training loss at epoch 1"):
        train(replace(tiny_dataset, samples=samples), 4, FAST)


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
    assert dev_loss(model, split)[0] == pytest.approx(mse_loss(split, out), rel=1e-12)


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
        TrainConfig(num_updates=-1)
    with pytest.raises(ValueError):
        TrainConfig(dev_eval_every=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)


def test_extract_matrix(tiny_dataset):
    model, _ = train(tiny_dataset, 4, FAST)
    mat = MeasurementMatrix(model.phi)
    assert np.array_equal(mat.data, model.phi)
    assert mat.data.shape == (4, tiny_dataset.width)


# ------------------------------------------------------------- dtype of Phi


def test_train_returns_a_float32_model(tiny_dataset):
    model, _ = train(tiny_dataset, 4, FAST)
    assert model.phi.dtype == np.float32
    for layer in model.bn_layers:
        for arr in (layer.gamma, layer.beta, layer.running_mean, layer.running_var):
            assert arr.dtype == np.float32
    # recovery gets the learned matrix in float64
    assert MeasurementMatrix(model.phi).data.dtype == np.float64


def test_init_model_rounds_the_float64_draw_once():
    cfg = TrainConfig(seed=9)
    model = init_model(4, 16, cfg)
    draw = training._truncated_normal(
        training._stream(cfg.seed, training._INIT_STREAM), (4, 16), 1.0 / 4.0
    )
    assert np.array_equal(model.phi, draw.astype(np.float32))


def test_dev_loss_carries_one_trace(tiny_dataset, monkeypatch):
    # every forward of a train call, SGD step or dev evaluation, is given
    # the same trace and refills it
    given, returned = [], []

    def recording_forward(model, h_batch, mode, reuse=None):
        out, trace = forward(model, h_batch, mode, reuse=reuse)
        given.append(reuse)
        returned.append(trace)
        return out, trace

    monkeypatch.setattr(training, "forward", recording_forward)
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=3, num_updates=1, seed=0
    )
    _, report = train(tiny_dataset, 4, cfg)
    steps = 3 * (tiny_dataset.num_train // 16)
    assert len(report.dev_epochs) == 4
    assert len(returned) == steps + len(report.dev_epochs)
    assert all(t is returned[0] for t in given + returned)


@pytest.mark.parametrize(
    "batch_size, dev_chunk, rows",
    [
        (16, 512, 16),  # the dev split is smaller than a batch
        (64, 512, 48),  # the batch is the whole train split
        (4, 512, 6),  # the dev split is larger than a batch
        (4, 4, 4),  # and larger than a dev chunk
        (2, 4, 4),  # a dev chunk is larger than a batch
    ],
)
def test_train_allocates_one_trace(tiny_dataset, monkeypatch, batch_size, dev_chunk, rows):
    # with the rows of a batch or of a dev chunk, whichever is more
    sizes = []
    allocate = ForwardTrace.allocate

    def counting_allocate(cls, model, rows):
        sizes.append(rows)
        return allocate(model, rows)

    monkeypatch.setattr(ForwardTrace, "allocate", classmethod(counting_allocate))
    monkeypatch.setattr(training, "_DEV_CHUNK", dev_chunk)
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=batch_size, max_epochs=2, num_updates=1, seed=0
    )
    train(tiny_dataset, 4, cfg)
    assert (tiny_dataset.num_train, tiny_dataset.num_dev) == (48, 6)
    assert sizes == [rows]


def test_train_evaluates_the_dev_split_through_dev_loss(tiny_dataset, monkeypatch):
    # a wrapper on training.dev_loss, as a tracer installs one, sees every
    # dev evaluation of a train call
    calls = []

    def counting_dev_loss(*args, **kwargs):
        calls.append(1)
        return dev_loss(*args, **kwargs)

    monkeypatch.setattr(training, "dev_loss", counting_dev_loss)
    cfg = TrainConfig(
        learning_rate=0.01, batch_size=16, max_epochs=4, num_updates=1,
        seed=0, dev_eval_every=2,
    )
    _, report = train(tiny_dataset, 4, cfg)
    assert len(calls) == len(report.dev_epochs) == 3
