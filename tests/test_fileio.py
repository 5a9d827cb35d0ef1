import json
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from beamcs import MatrixKind, MeasurementMatrix, TrainConfig, train
from beamcs.evaluate import run_sweep
from beamcs.fileio import (
    FileFormatError,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    save_figure_csvs,
    save_report_csv,
    save_report_json,
    save_training_csv,
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


def _split_trailer(blob: bytes) -> tuple[bytes, dict]:
    """(the bytes before a container's JSON trailer, the trailer)."""
    (trailer_len,) = struct.unpack("<Q", blob[-8:])
    end = len(blob) - 8 - trailer_len
    return blob[:end], json.loads(blob[end:-8])


def _with_trailer(head: bytes, trailer: dict) -> bytes:
    text = json.dumps(trailer, sort_keys=True, separators=(",", ":")).encode()
    return head + text + struct.pack("<Q", len(text))


def test_dataset_round_trip(tmp_path, trained):
    dataset, _, _ = trained
    path = tmp_path / "d.bcsl"
    save_dataset(str(path), dataset)
    loaded = load_dataset(str(path))
    assert np.array_equal(loaded.samples, dataset.samples)
    assert loaded.config == dataset.config
    assert loaded.ratios == dataset.ratios
    assert (loaded.num_train, loaded.num_dev, loaded.num_test) == (48, 6, 6)
    assert loaded.floor == dataset.floor
    # the trailer holds what the header does not, and nothing else
    _, trailer = _split_trailer(path.read_bytes())
    assert trailer == {"seed": 11, "ratios": [0.8, 0.1, 0.1], "floor": 0.1}


def test_dataset_with_a_gain_model_entry_is_refused(tmp_path, trained):
    # a trailer entry no code reads, like the gain_model of older
    # trailers, is refused by name
    dataset, _, _ = trained
    path = tmp_path / "d.bcsl"
    save_dataset(str(path), dataset)
    head, trailer = _split_trailer(path.read_bytes())
    assert "gain_model" not in trailer
    trailer["gain_model"] = "complex_gaussian"
    path.write_bytes(_with_trailer(head, trailer))
    with pytest.raises(FileFormatError, match="^dataset trailer invalid: unknown trailer key: gain_model$"):
        load_dataset(str(path))


# Earlier writers of version-4 datasets added the generating config to
# the trailer, as below for this module's dataset; gen-data rewrites
# such a file with the trailer the reader takes.
_OLD_CONFIG_BLOCK = {
    "channel": {"num_antennas": 8, "num_paths": 2, "seed": 11},
    "data": {"num_samples": 60, "ratios": [0.8, 0.1, 0.1], "floor": 0.1},
    "train": {
        "learning_rate": 0.02, "batch_size": 64, "max_epochs": 200,
        "num_updates": 9, "alpha_init": 1.0, "seed": 11, "dev_eval_every": 5,
    },
    "recovery": {"feas_tol": 1e-10, "opt_tol": 1e-9, "max_iters": 200},
    "metric": {"exact_tol": 1e-8, "block_length": 200},
    "m_values": [4, 6],
    "kinds": ["learned", "gaussian"],
    "seed": 11,
}


def test_dataset_with_the_old_config_block_is_refused(tmp_path, trained):
    # refused by its key; the same file without the block loads
    dataset, _, _ = trained
    new, old = tmp_path / "new.bcsl", tmp_path / "old.bcsl"
    save_dataset(str(new), dataset)
    head, trailer = _split_trailer(new.read_bytes())
    old.write_bytes(_with_trailer(head, {**trailer, "config": _OLD_CONFIG_BLOCK}))
    with pytest.raises(FileFormatError, match="^dataset trailer invalid: unknown trailer key: config$"):
        load_dataset(str(old))
    b = load_dataset(str(new))
    assert b.config.seed == 11 and b.ratios == (0.8, 0.1, 0.1) and b.floor == 0.1


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
    loaded, train_cfg = load_checkpoint(str(path))
    assert np.array_equal(loaded.phi, model.phi)
    assert loaded.alpha == model.alpha
    assert loaded.num_updates == model.num_updates
    for a, b in zip(loaded.bn_layers, model.bn_layers):
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.running_mean, b.running_mean)
        assert np.array_equal(a.running_var, b.running_var)
    assert train_cfg == TRAIN_CFG
    # one seed per trailer: the TrainConfig's, and nothing beside it
    _, trailer = _split_trailer(path.read_bytes())
    assert trailer == {"train_config": asdict(TRAIN_CFG)}


@pytest.mark.parametrize("profile", ["paper", "ci"])
def test_checkpoint_train_config_matches_config_echo(tmp_path, trained, profile):
    # a checkpoint's trailer holds every field of the TrainConfig it got
    from beamcs.config import load_experiment

    _, model, _ = trained
    cfg = load_experiment(None, profile)
    path = tmp_path / "c.bcsw"
    # the profile's L is not this model's: refused rather than written
    with pytest.raises(ValueError, match="num_updates"):
        save_checkpoint(str(path), model, cfg.train)
    train_cfg = replace(cfg.train, num_updates=model.num_updates)
    save_checkpoint(str(path), model, train_cfg)
    _, loaded_cfg = load_checkpoint(str(path))
    assert loaded_cfg == train_cfg
    _, trailer = _split_trailer(path.read_bytes())
    assert trailer["train_config"] == asdict(train_cfg)


def test_checkpoint_usable_after_load(tmp_path, trained):
    from beamcs import Mode
    from reference_solvers import fresh_forward

    dataset, model, _ = trained
    path = tmp_path / "c.bcsw"
    save_checkpoint(str(path), model, TRAIN_CFG)
    loaded, _ = load_checkpoint(str(path))
    a, _ = fresh_forward(model, dataset.dev, Mode.INFER)
    b, _ = fresh_forward(loaded, dataset.dev, Mode.INFER)
    assert np.array_equal(a, b)


def test_corrupt_files_raise(tmp_path, trained):
    dataset, model, _ = trained
    save_dataset(str(tmp_path / "d.bcsl"), dataset)
    save_checkpoint(str(tmp_path / "c.bcsw"), model, TRAIN_CFG)
    for name, load, other_load, versions, payload_start, fmt in [
        # dataset version 2 stored per-sample params, version 3 a zero
        # tolerance; checkpoint version 1 held f64 arrays, version 2 an
        # alpha_init in its trailer; the payload follows the 8-byte prefix
        # and the fixed fields
        ("d.bcsl", load_dataset, load_checkpoint, (1, 2, 3, 99), 8 + 48, "<d"),
        ("c.bcsw", load_checkpoint, load_dataset, (1, 2, 99), 8 + 32, "<f"),
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

        # a NaN first value (a train sample's, or Phi's) and an inf last one
        size = struct.calcsize(fmt)
        for offset, value in ((payload_start, np.nan), (payload_end - size, np.inf)):
            corrupt = bytearray(blob)
            struct.pack_into(fmt, corrupt, offset, value)
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(FileFormatError, match="holds a non-finite value"):
                load(str(bad))

        with pytest.raises(FileFormatError, match="magic"):
            other_load(str(tmp_path / name))

    # dataset trailers whose split ratios do not give the header's sizes
    head, trailer = _split_trailer((tmp_path / "d.bcsl").read_bytes())
    bad = tmp_path / "bad_d.bcsl"
    for ratios, message in [
        ([0.5], "ratios must have exactly 3 entries"),
        ([0.4, 0.3, 0.3, 0.0], "ratios must have exactly 3 entries"),
        ([0.5, 0.3, 0.3], "split ratios must sum to 1"),
        ([1.2, -0.1, -0.1], "split ratios must be nonnegative"),
        ([float("nan"), 0.0, 1.0], "split ratios must sum to 1"),
        ([0.6, 0.2, 0.2], r"do not give the split \(48, 6, 6\)"),
        # checked, not coerced: only a list of three JSON numbers
        ("0.8", "ratios must be a list, got '0.8'"),
        (["0.8", "0.1", "0.1"], "ratios must be of type float, got '0.8'"),
        ([0.8, 0.1, "0.1"], "ratios must be of type float, got '0.1'"),
        ([True, False, False], "ratios must be of type float, got True"),
        ({"0.8": 1, "0.1": 2, "0.10": 3}, "ratios must be a list, got {"),
    ]:
        bad.write_bytes(_with_trailer(head, {**trailer, "ratios": ratios}))
        with pytest.raises(FileFormatError, match=f"^dataset trailer invalid: .*{message}"):
            load_dataset(str(bad))
    # a seed or floor that is not what the generator could have written
    # is refused, not coerced: the smallest nonzero sample here is 0.1
    for key, value, message in [
        ("seed", 3.7, "seed must be of type int, got 3.7"),
        ("seed", True, "seed must be of type int, got True"),
        ("floor", -0.1, r"floor -0.1 is not in \[0, 1\)"),
        ("floor", "0.1", "floor must be of type float, got '0.1'"),
        ("floor", 10**400, "floor must be of type float, got an integer too large"),
        ("floor", 0.9, "floor 0.9 exceeds the smallest nonzero sample 0.1"),
    ]:
        bad.write_bytes(_with_trailer(head, {**trailer, key: value}))
        with pytest.raises(FileFormatError, match=f"^dataset trailer invalid: {message}"):
            load_dataset(str(bad))
    # an integer with more digits than Python converts
    text = b'{"floor":' + b"1" * 5000 + b',"ratios":[0.8,0.1,0.1],"seed":11}'
    bad.write_bytes(head + text + struct.pack("<Q", len(text)))
    with pytest.raises(FileFormatError, match="^corrupt echo trailer: Exceeds the limit"):
        load_dataset(str(bad))

    # checkpoint trailers that are not the TrainConfig of this model
    head, trailer = _split_trailer((tmp_path / "c.bcsw").read_bytes())
    bad = tmp_path / "bad_c.bcsw"
    train_cfg = trailer["train_config"]
    for echo, message in [
        ([], r"document must be an object, got \[\]$"),
        ({**trailer, "seed": 1}, "unknown trailer key: seed$"),
        ({"train_config": "x"}, "train_config must be an object, got 'x'$"),
        ({"train_config": {**train_cfg, "init_stddev": 0.1}},
         "unknown trailer key: train_config.init_stddev$"),
        ({"train_config": {"num_updates": 2}}, "missing key train_config.learning_rate$"),
        ({"train_config": {**train_cfg, "batch_size": 1}}, "batch_size must be >= 2"),
        ({"train_config": {**train_cfg, "num_updates": 7}},
         "num_updates 7 is not the header's 2"),
        # values the config reader refuses: no float for an int, no bool
        ({"train_config": {**train_cfg, "batch_size": 8.5}},
         "train_config.batch_size must be of type int, got 8.5$"),
        ({"train_config": {**train_cfg, "seed": True}},
         "train_config.seed must be of type int, got True$"),
        ({"train_config": {**train_cfg, "max_epochs": 1.0}},
         "train_config.max_epochs must be of type int, got 1.0$"),
        ({"train_config": {**train_cfg, "num_updates": 2.0}},
         "train_config.num_updates must be of type int, got 2.0$"),
    ]:
        bad.write_bytes(_with_trailer(head, echo))
        with pytest.raises(FileFormatError, match=f"^checkpoint trailer invalid: .*{message}"):
            load_checkpoint(str(bad))


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
    return run_sweep(
        dataset,
        [MatrixKind.LEARNED, MatrixKind.GAUSSIAN],
        (4, 8),
        learned={4: MeasurementMatrix(model.phi)},
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
    dataset, _, _ = trained
    save_report_json(str(path), report, dataset)
    doc = json.loads(path.read_text())
    assert doc["dataset"] == {
        "num_antennas": 8,
        "num_paths": 2,
        "num_samples": 60,
        "seed": 11,
        "ratios": [0.8, 0.1, 0.1],
        "floor": 0.1,
    }
    assert "config" not in doc
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
    save_report_json(str(ja), report, trained[0])
    save_report_json(str(jb), report, trained[0])
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


# ------------------------------------- dataset v4 and checkpoint v3 layouts


_PREFIX = 8  # magic, u32 version
_PAYLOAD = _PREFIX + 8 * 3 + 8  # u64 m, width, L and f64 alpha before the arrays


def _trailer_len(path):
    return struct.unpack("<Q", path.read_bytes()[-8:])[0]


def test_file_sizes_follow_from_the_dims(tmp_path, trained):
    dataset, model, _ = trained
    data, ckpt = tmp_path / "d.bcsl", tmp_path / "c.bcsw"
    save_dataset(str(data), dataset)
    save_checkpoint(str(ckpt), model, TRAIN_CFG)
    # each format has its own version: datasets 4, checkpoints 3
    assert struct.unpack_from("<I", data.read_bytes(), 4) == (4,)
    assert struct.unpack_from("<I", ckpt.read_bytes(), 4) == (3,)
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
