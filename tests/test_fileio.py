import json
import struct

import numpy as np
import pytest

from beamcs import MatrixKind, MetricConfig, RecoveryConfig, TrainConfig, train
from beamcs.evaluate import run_sweep
from beamcs.fileio import (
    FileFormatError,
    export_checkpoint_json,
    export_dataset_csv,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    save_figure_csvs,
    save_report_csv,
    save_report_json,
    save_training_csv,
    sniff_format,
)

TRAIN_CFG = TrainConfig(
    learning_rate=0.05, batch_size=16, max_epochs=3, num_updates=2, seed=1
)


@pytest.fixture(scope="module")
def trained():
    from beamcs import ChannelConfig, generate_dataset

    dataset = generate_dataset(ChannelConfig(num_antennas=8, num_paths=2, seed=11), 60)
    model, report = train(dataset, 4, TRAIN_CFG)
    return dataset, model, report


def test_dataset_round_trip(tmp_path, trained):
    dataset, _, _ = trained
    path = tmp_path / "d.bcsl"
    save_dataset(str(path), dataset, extra_echo={"profile": "test"})
    loaded, echo = load_dataset(str(path))
    assert np.array_equal(loaded.samples, dataset.samples)
    assert loaded.config == dataset.config
    assert loaded.ratios == dataset.ratios
    assert (loaded.num_train, loaded.num_dev, loaded.num_test) == (48, 6, 6)
    assert loaded.floor == dataset.floor
    assert sorted(echo) == ["config", "floor", "ratios", "seed"]
    assert echo["config"] == {"profile": "test"}


def test_dataset_with_a_gain_model_entry_loads(tmp_path, trained):
    # a trailer entry no code reads, like the gain_model of older trailers
    dataset, _, _ = trained
    path = tmp_path / "d.bcsl"
    save_dataset(str(path), dataset)
    blob = path.read_bytes()
    trailer_len = struct.unpack("<Q", blob[-8:])[0]
    head = blob[: len(blob) - 8 - trailer_len]
    echo = json.loads(blob[len(head) : -8])
    assert "gain_model" not in echo
    echo["gain_model"] = "complex_gaussian"
    trailer = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(head + trailer + struct.pack("<Q", len(trailer)))
    loaded, loaded_echo = load_dataset(str(path))
    assert loaded_echo["gain_model"] == "complex_gaussian"
    assert np.array_equal(loaded.samples, dataset.samples)
    assert loaded.config == dataset.config


def test_dataset_write_is_byte_stable(tmp_path, trained):
    dataset, _, _ = trained
    a, b = tmp_path / "a.bcsl", tmp_path / "b.bcsl"
    save_dataset(str(a), dataset)
    save_dataset(str(b), dataset)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_round_trip(tmp_path, trained):
    _, model, _ = trained
    path = tmp_path / "c.bcsw"
    save_checkpoint(str(path), model, TRAIN_CFG)
    loaded, echo = load_checkpoint(str(path))
    assert np.array_equal(loaded.phi, model.phi)
    assert loaded.alpha == model.alpha
    assert loaded.num_updates == model.num_updates
    for a, b in zip(loaded.bn_layers, model.bn_layers):
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.running_mean, b.running_mean)
        assert np.array_equal(a.running_var, b.running_var)
    assert echo["train_config"]["learning_rate"] == TRAIN_CFG.learning_rate
    assert echo["train_config"]["seed"] == TRAIN_CFG.seed
    assert "seed" not in echo  # one seed per trailer


@pytest.mark.parametrize("profile", ["paper", "ci"])
def test_checkpoint_train_config_matches_config_echo(tmp_path, trained, profile):
    # checkpoints and the run config echo the same TrainConfig fields
    from beamcs.config import config_echo, load_experiment

    _, model, _ = trained
    cfg = load_experiment(None, profile)
    path = tmp_path / "c.bcsw"
    save_checkpoint(str(path), model, cfg.train)
    _, echo = load_checkpoint(str(path))
    assert echo["train_config"] == config_echo(cfg)["train"]


def test_checkpoint_usable_after_load(tmp_path, trained):
    from beamcs import Mode, forward

    dataset, model, _ = trained
    path = tmp_path / "c.bcsw"
    save_checkpoint(str(path), model, TRAIN_CFG)
    loaded, _ = load_checkpoint(str(path))
    a, _ = forward(model, dataset.dev, Mode.INFER)
    b, _ = forward(loaded, dataset.dev, Mode.INFER)
    assert np.array_equal(a, b)


def test_sniff_format(tmp_path, trained):
    dataset, model, _ = trained
    save_dataset(str(tmp_path / "d.bcsl"), dataset)
    save_checkpoint(str(tmp_path / "c.bcsw"), model)
    assert sniff_format(str(tmp_path / "d.bcsl")) == "dataset"
    assert sniff_format(str(tmp_path / "c.bcsw")) == "checkpoint"
    (tmp_path / "junk").write_bytes(b"ZZZZ....")
    with pytest.raises(FileFormatError):
        sniff_format(str(tmp_path / "junk"))


def test_corrupt_files_raise(tmp_path, trained):
    dataset, model, _ = trained
    save_dataset(str(tmp_path / "d.bcsl"), dataset)
    save_checkpoint(str(tmp_path / "c.bcsw"), model, TRAIN_CFG)
    for name, load, other_load, versions in [
        # version 2 stored per-sample params, version 3 a zero tolerance,
        # version 1 f64 checkpoints
        ("d.bcsl", load_dataset, load_checkpoint, (1, 2, 3, 99)),
        ("c.bcsw", load_checkpoint, load_dataset, (1, 3, 99)),
    ]:
        blob = (tmp_path / name).read_bytes()
        trailer_len = struct.unpack("<Q", blob[-8:])[0]
        payload_end = len(blob) - 8 - trailer_len
        bad = tmp_path / f"bad_{name}"

        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FileFormatError, match="magic"):
            load(str(bad))

        for version in versions:
            bad.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
            with pytest.raises(FileFormatError, match=f"^unsupported format version {version}$"):
                load(str(bad))

        bad.write_bytes(blob[:-24])  # cut into the trailer
        with pytest.raises(FileFormatError):
            load(str(bad))

        # 16 or 3 array bytes short, trailer intact
        for short in (16, 3):
            bad.write_bytes(blob[: payload_end - short] + blob[payload_end:])
            with pytest.raises(FileFormatError, match="incomplete array payload"):
                load(str(bad))

        # extra payload bytes between the arrays and the trailer
        bad.write_bytes(blob[:payload_end] + b"\0" * 16 + blob[payload_end:])
        with pytest.raises(FileFormatError, match="trailing"):
            load(str(bad))

        with pytest.raises(FileFormatError, match="magic"):
            other_load(str(tmp_path / name))


def test_training_csv(tmp_path, trained):
    _, _, report = trained
    path = tmp_path / "train.csv"
    save_training_csv(str(path), report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,dev_loss,seconds"
    assert len(lines) == 2 + len(report.train_losses)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "" and float(first[2]) > 0
    # losses survive the text round trip exactly (repr formatting)
    assert float(lines[2].split(",")[1]) == report.train_losses[0]


def _report(trained):
    dataset, model, _ = trained
    from beamcs import extract_matrix

    return run_sweep(
        dataset,
        [MatrixKind.LEARNED, MatrixKind.GAUSSIAN],
        (4, 8),
        RecoveryConfig(),
        MetricConfig(),
        learned={4: extract_matrix(model)},
    )


def test_report_csv(tmp_path, trained):
    report = _report(trained)
    path = tmp_path / "report.csv"
    save_report_csv(str(path), report)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "kind",
        "m",
        "exact_rate",
        "mean_nrse",
        "nrse_excluded",
        "effective_rate",
        "num_samples",
        "seed",
        "solver_failures",
        "note",
    ]
    assert "seconds" not in lines[0]
    assert len(lines) == 5
    gap = next(l for l in lines if "missing checkpoint" in l)
    cells = gap.split(",")
    assert cells[0] == "learned" and cells[1] == "8"
    assert cells[2] == "" and cells[7] == ""  # NaN rate, absent seed


def test_report_json(tmp_path, trained):
    report = _report(trained)
    path = tmp_path / "report.json"
    save_report_json(str(path), report, {"profile": "test"})
    doc = json.loads(path.read_text())
    assert doc["config"] == {"profile": "test"}
    assert doc["m_values"] == [4, 8]
    assert doc["num_test_samples"] == 6
    assert doc["recovery"] == {"feas_tol": 1e-10, "opt_tol": 1e-9, "max_iters": 200}
    gap = next(r for r in doc["rows"] if r["note"] == "missing checkpoint")
    assert gap["exact_rate"] is None  # NaN must not leak into JSON
    filled = next(r for r in doc["rows"] if r["kind"] == "learned" and r["m"] == 4)
    assert isinstance(filled["exact_rate"], float)


def test_report_writes_byte_stable(tmp_path, trained):
    report = _report(trained)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_report_csv(str(a), report)
    save_report_csv(str(b), report)
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    save_report_json(str(ja), report, {})
    save_report_json(str(jb), report, {})
    assert ja.read_bytes() == jb.read_bytes()


def test_figure_csvs(tmp_path, trained):
    report = _report(trained)
    paths = save_figure_csvs(str(tmp_path / "figure"), report)
    assert [p.rsplit("_", 2)[-2] + "_" + p.rsplit("_", 2)[-1] for p in paths] == [
        "exact_rate.csv",
        "mean_nrse.csv",
        "effective_rate.csv",
    ]
    lines = (tmp_path / "figure_exact_rate.csv").read_text().strip().split("\n")
    assert lines[0] == "m,learned,gaussian"
    assert lines[1].startswith("4,")
    assert lines[2].split(",")[1] == ""  # the m=8 learned gap is blank


def test_export_dataset_csv(tmp_path, trained):
    dataset, _, _ = trained
    src, out = tmp_path / "d.bcsl", tmp_path / "d.csv"
    save_dataset(str(src), dataset)
    export_dataset_csv(str(src), str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 60
    assert all(line.count(",") == 15 and "#" not in line for line in lines)
    back = np.loadtxt(str(out), delimiter=",")
    assert back.shape == (60, 16)
    assert np.array_equal(back, dataset.samples)


def test_export_checkpoint_json(tmp_path, trained):
    _, model, _ = trained
    src, out = tmp_path / "c.bcsw", tmp_path / "c.json"
    save_checkpoint(str(src), model, TRAIN_CFG)
    export_checkpoint_json(str(src), str(out))
    doc = json.loads(out.read_text())
    assert set(doc) == {"m", "width", "num_updates", "alpha", "echo", "bn_layers", "phi"}
    assert doc["m"] == 4 and doc["width"] == 16 and doc["num_updates"] == 2
    assert doc["alpha"] == model.alpha
    assert len(doc["bn_layers"]) == 3
    assert np.array_equal(np.asarray(doc["phi"]), model.phi)
    assert doc["echo"]["train_config"]["batch_size"] == 16


# ------------------------------------- dataset v4 and checkpoint v2 layouts


_PREFIX = 8  # magic, u32 version
_PAYLOAD = _PREFIX + 8 * 3 + 8  # u64 m, width, L and f64 alpha before the arrays


def _trailer_len(path):
    return struct.unpack("<Q", path.read_bytes()[-8:])[0]


def test_file_sizes_follow_from_the_dims(tmp_path, trained):
    dataset, model, _ = trained
    data, ckpt = tmp_path / "d.bcsl", tmp_path / "c.bcsw"
    save_dataset(str(data), dataset)
    save_checkpoint(str(ckpt), model, TRAIN_CFG)
    # each format has its own version: datasets 4, checkpoints 2
    assert struct.unpack_from("<I", data.read_bytes(), 4) == (4,)
    assert struct.unpack_from("<I", ckpt.read_bytes(), 4) == (2,)
    # header, f64 samples (n x 2N), trailer, its length
    n, width = dataset.samples.shape
    header = _PREFIX + 8 * 6
    assert data.stat().st_size == header + 8 * n * width + _trailer_len(data) + 8
    # header, f64 alpha, f32 Phi and 4 vectors per layer, trailer, its length
    m, width, layers = model.num_measurements, model.width, model.num_updates + 1
    payload = 4 * (m * width + 4 * layers * width)
    assert ckpt.stat().st_size == _PAYLOAD + payload + _trailer_len(ckpt) + 8


def test_checkpoint_round_trip_keeps_float32_bits(tmp_path, trained):
    _, model, _ = trained
    path = tmp_path / "c.bcsw"
    save_checkpoint(str(path), model, TRAIN_CFG)
    loaded, _ = load_checkpoint(str(path))
    pairs = [(loaded.phi, model.phi)]
    for a, b in zip(loaded.bn_layers, model.bn_layers):
        pairs += [
            (a.gamma, b.gamma), (a.beta, b.beta),
            (a.running_mean, b.running_mean), (a.running_var, b.running_var),
        ]
    for got, want in pairs:
        assert want.dtype == got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
    # stored as <f4, the model's own values
    blob = path.read_bytes()
    stored = np.frombuffer(blob, "<f4", count=model.phi.size, offset=_PAYLOAD)
    assert stored.tobytes() == model.phi.astype("<f4").tobytes()


def test_save_checkpoint_rejects_a_float64_model(tmp_path, trained):
    import copy

    _, model, _ = trained
    wide = copy.deepcopy(model)
    wide.phi = wide.phi.astype(np.float64)
    for layer in wide.bn_layers:
        layer.running_var = layer.running_var.astype(np.float64)
    path = tmp_path / "c.bcsw"
    with pytest.raises(ValueError, match="float32"):
        save_checkpoint(str(path), wide, TRAIN_CFG)
    assert not path.exists()
    # one wide array among float32 ones is refused too
    wide = copy.deepcopy(model)
    wide.bn_layers[-1].beta = wide.bn_layers[-1].beta.astype(np.float64)
    with pytest.raises(ValueError, match="float64"):
        save_checkpoint(str(path), wide, TRAIN_CFG)
    assert not path.exists()
