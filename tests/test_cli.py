import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import beamcs
from beamcs.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    checkpoint_name,
    main,
)
from beamcs.fileio import load_checkpoint

CFG = {
    "profile": "ci",
    "channel": {"num_antennas": 8, "num_paths": 2},
    "data": {"num_samples": 60},
    "train": {"batch_size": 16, "max_epochs": 2, "num_updates": 2},
    "m_values": [4, 6],
    "kinds": ["learned", "gaussian"],
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A full gen-data -> train -> sweep run in a temp directory."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    out = str(root / "run")
    base = ["--config", str(cfg_path), "--seed", "0", "--out", out]
    assert main(["gen-data", *base]) == EXIT_OK
    assert main(["train", *base]) == EXIT_OK
    assert main(["sweep", *base]) == EXIT_OK
    return root, out


def test_pipeline_artifacts(run_dir):
    _, out = run_dir
    names = sorted(os.listdir(out))
    assert names == [
        "checkpoint_m4.bcsw",
        "checkpoint_m6.bcsw",
        "dataset.bcsl",
        "figure_effective_rate.csv",
        "figure_exact_rate.csv",
        "figure_mean_nrse.csv",
        "report.csv",
        "report.json",
        "training_m4.csv",
        "training_m6.csv",
    ]


def test_report_contents(run_dir):
    _, out = run_dir
    doc = json.loads(Path(out, "report.json").read_text())
    assert doc["m_values"] == [4, 6]
    assert {r["kind"] for r in doc["rows"]} == {"learned", "gaussian"}
    assert len(doc["rows"]) == 4
    assert all(r["note"] == "" for r in doc["rows"])
    assert doc["dataset"]["num_antennas"] == 8
    assert doc["dataset"]["num_samples"] == 60
    # the paper's metric definitions and the solver defaults
    assert doc["metric"] == {"exact_tol": 1e-8, "block_length": 200}
    assert doc["recovery"] == {"feas_tol": 1e-10, "opt_tol": 1e-9, "max_iters": 200}
    assert "config" not in doc


def test_seed_flag_overrides_config(run_dir):
    root, out = run_dir
    doc = json.loads(Path(out, "report.json").read_text())
    assert doc["dataset"]["seed"] == 0
    _, train_cfg = load_checkpoint(os.path.join(out, checkpoint_name(4)))
    assert train_cfg.seed == 0


def test_report_names_the_dataset_it_swept(tmp_path):
    # a paper-profile sweep of a ci dataset reports the ci dataset
    data = tmp_path / "ci"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "ci", "data": {"num_samples": 60}}))
    assert main([
        "gen-data", "--config", str(cfg), "--seed", "5", "--out", str(data)
    ]) == EXIT_OK
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--profile", "paper", "--seed", "0", "--kinds", "gaussian",
        "--m", "20", "--data", str(data / "dataset.bcsl"), "--out", str(out),
    ]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["dataset"] == {
        "num_antennas": 32,
        "num_paths": 2,
        "num_samples": 60,
        "seed": 5,
        "ratios": [0.8, 0.1, 0.1],
        "floor": 0.1,
    }
    assert "config" not in doc


def test_checkpoint_name():
    assert checkpoint_name(25) == "checkpoint_m25.bcsw"


def test_usage_errors(run_dir, tmp_path):
    root, _ = run_dir
    cfg = str(root / "cfg.json")
    out = str(tmp_path / "u")
    assert main(["gen-data", "--profile", "nope", "--out", out]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
    assert main(["export", "--in", cfg, "--format", "json", "--out", out]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    # m larger than the stacked width
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**CFG, "m_values": [4, 99]}))
    assert main(["gen-data", "--config", str(bad), "--out", out]) == EXIT_USAGE
    bad.write_text(json.dumps({**CFG, "kinds": ["gaussian", "gaussian"]}))
    assert main(["gen-data", "--config", str(bad), "--out", out]) == EXIT_USAGE
    # sweep --m / --kinds flags must parse
    assert main(["sweep", "--config", cfg, "--out", out, "--m", "4,oops"]) == EXIT_USAGE


def test_unsupported_solver_is_a_usage_error(tmp_path, capsys):
    # a key the config does not read fails loudly instead of being dropped;
    # the solver and metric sections and the section seeds are such keys
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    for extra, key in [
        ({"recovery": {"solver": "basis_pursuit_lp"}}, "recovery"),
        ({"recovery": {"feas_tol": 1e-10}}, "recovery"),
        ({"metric": {"exact_tol": 1e-8, "block_length": 200}}, "metric"),
        ({"channel": {**CFG["channel"], "seed": 0}}, "channel.seed"),
        ({"train": {**CFG["train"], "seed": 0}}, "train.seed"),
        ({"channel": {**CFG["channel"], "antenna_spacing_ratio": 0.5}},
         "channel.antenna_spacing_ratio"),
        ({"train": {**CFG["train"], "learning_rat": 0.5}}, "train.learning_rat"),
        ({"train": {**CFG["train"], "early_stop_patience": 0}},
         "train.early_stop_patience"),
        ({"train": {**CFG["train"], "init_stddev": None}}, "train.init_stddev"),
        ({"channel": {**CFG["channel"], "gain_model": "complex_gaussian"}},
         "channel.gain_model"),
    ]:
        cfg.write_text(json.dumps({**CFG, **extra}))
        for command in ("gen-data", "train", "sweep"):
            assert main([command, "--config", str(cfg), "--out", out]) == EXIT_USAGE
            assert f"error: unknown config key: {key}\n" == capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_data_section_is_a_usage_error(tmp_path, capsys):
    # caught when the config is built, not as a traceback from gen-data
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    cfg.write_text(json.dumps({**CFG, "data": {"num_samples": 60, "floor": 1.5}}))
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: floor must lie in [0, 1)") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    # named by the key the user wrote, not by a section it cascades into
    out = str(tmp_path / "out")
    assert main(["gen-data", "--profile", "ci", "--seed", "-1", "--out", out]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not os.path.exists(out)


def test_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    # 64.7 is not read as 64: an int key takes a JSON integer only
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    cfg.write_text(json.dumps({**CFG, "train": {**CFG["train"], "batch_size": 64.7}}))
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: train.batch_size must be of type int, got 64.7\n"
    assert not os.path.exists(out)


def test_workers_env_is_ignored(run_dir, monkeypatch, tmp_path):
    # recovery has one serial path; a leftover BEAMCS_WORKERS changes nothing
    root, out = run_dir
    args = [
        "sweep",
        "--config",
        str(root / "cfg.json"),
        "--seed",
        "0",
        "--out",
        str(tmp_path),
        "--data",
        os.path.join(out, "dataset.bcsl"),
        "--checkpoints",
        out,
    ]
    monkeypatch.setenv("BEAMCS_WORKERS", "many")
    assert main(args) == EXIT_OK
    report = (tmp_path / "report.json").read_bytes()
    assert report == Path(out, "report.json").read_bytes()


def test_io_errors(run_dir, tmp_path):
    root, out = run_dir
    cfg = str(root / "cfg.json")
    missing = str(tmp_path / "nowhere")
    assert main(["train", "--config", cfg, "--out", missing]) == EXIT_IO

    corrupt = tmp_path / "dataset.bcsl"
    corrupt.write_bytes(b"ZZZZ" + b"\0" * 64)
    assert (
        main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_IO
    )


def test_sweep_missing_checkpoints(run_dir, tmp_path, capsys):
    root, out = run_dir
    cfg = str(root / "cfg.json")
    # point sweep at an empty checkpoint dir: learned rows become gaps
    code = main(
        [
            "sweep",
            "--config",
            cfg,
            "--seed",
            "0",
            "--out",
            str(tmp_path),
            "--data",
            os.path.join(out, "dataset.bcsl"),
            "--checkpoints",
            str(tmp_path),
        ]
    )
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert "missing checkpoint" in captured.out
    doc = json.loads((tmp_path / "report.json").read_text())
    gaps = [r for r in doc["rows"] if r["note"] == "missing checkpoint"]
    assert len(gaps) == 2


def test_sweep_rejects_off_grid_data(run_dir, tmp_path, capsys):
    # exact recovery cannot score off-grid data, so no command makes or
    # takes it: angle_mode is an unknown key, one error line, no report
    root, out = run_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **CFG,
        "channel": {**CFG["channel"], "angle_mode": "off_grid"},
        "kinds": ["gaussian"],
    }))
    dest = str(tmp_path / "out")
    data = ["--data", os.path.join(out, "dataset.bcsl")]
    for command in (["gen-data"], ["sweep", *data]):
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", dest]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: unknown config key: channel.angle_mode\n"
    assert not os.path.exists(dest)


def test_data_zero_tol_is_an_unknown_key(run_dir, tmp_path, capsys):
    # exactly sparse samples need no tolerance; the key is gone
    root, out = run_dir
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "data": {**CFG["data"], "zero_tol": 1e-12}}))
    dest = str(tmp_path / "out")
    for command in (["gen-data"], ["train", "--data", os.path.join(out, "dataset.bcsl")]):
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), "--out", dest]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown config key: data.zero_tol\n"
    assert not os.path.exists(dest)


def test_sweep_refuses_an_undrawable_baseline_before_any_solve(tmp_path, capsys, monkeypatch):
    # width 64 leaves 31 usable DFT rows, too few for partial Fourier at
    # m=63; the gaussian cells come first but must not be solved
    import beamcs.evaluate

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "ci", "data": {"num_samples": 60}}))
    out = str(tmp_path / "run")
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_OK
    solved = []
    monkeypatch.setattr(beamcs.evaluate, "recover_all", lambda *a: solved.append(a))
    capsys.readouterr()
    code = main([
        "sweep", "--config", str(cfg), "--out", out,
        "--m", "8,63", "--kinds", "gaussian,partial_fourier",
    ])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: partial_fourier has 31 usable DFT rows at n=64, too few for m=63\n"
    )
    assert solved == []
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_sweep_checkpoint_of_another_width_is_a_file_error(run_dir, tmp_path, capsys):
    root, out = run_dir
    cfg = tmp_path / "cfg.json"
    # N=16 gives width 32; the run_dir checkpoints were trained at width 16
    cfg.write_text(json.dumps({**CFG, "channel": {"num_antennas": 16, "num_paths": 2}}))
    wide = str(tmp_path / "wide")
    assert main(["gen-data", "--config", str(cfg), "--out", wide]) == EXIT_OK
    capsys.readouterr()
    code = main(["sweep", "--config", str(cfg), "--out", wide, "--checkpoints", out])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert "checkpoint_m4.bcsw holds a Phi of shape (4, 16)" in err
    assert not os.path.exists(os.path.join(wide, "report.json"))


def test_gen_data_is_deterministic(run_dir, tmp_path):
    root, out = run_dir
    cfg = str(root / "cfg.json")
    again = str(tmp_path / "again")
    assert main(["gen-data", "--config", cfg, "--seed", "0", "--out", again]) == EXIT_OK
    a = Path(out, "dataset.bcsl").read_bytes()
    assert a == Path(again, "dataset.bcsl").read_bytes()


def test_train_on_an_empty_split_is_a_usage_error(tmp_path, capsys):
    # a valid dataset file whose split has no dev samples: train needs one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    data = str(tmp_path / "all_train.bcsl")
    channel = beamcs.ChannelConfig(num_antennas=8, num_paths=2, seed=0)
    beamcs.save_dataset(data, beamcs.generate_dataset(channel, 60, ratios=(1.0, 0.0, 0.0)))
    out = str(tmp_path / "out")
    capsys.readouterr()
    command = ["train", "--config", str(cfg), "--data", data, "--out", out]
    assert main(command) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: dataset must have nonempty train and dev splits\n"
    assert not any(name.endswith(".bcsw") for name in os.listdir(out))


def test_train_refuses_an_m_too_wide_for_the_dataset_before_training(
    run_dir, tmp_path, capsys
):
    # the ci profile's width 64 admits m = 40; the width-16 dataset does not,
    # and m = 4 and 6 are not trained first only to be thrown away
    _, out = run_dir
    dest = tmp_path / "out"
    capsys.readouterr()
    assert main([
        "train", "--profile", "ci", "--seed", "0", "--m", "4,6,40",
        "--data", os.path.join(out, "dataset.bcsl"), "--out", str(dest),
    ]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: every m must be < 16 (the stacked vector width)\n"
    assert os.listdir(dest) == []


def _sweep_learned(run_dir, ckpts, sweep_out) -> int:
    """Exit code of a learned-only m=4 sweep of run_dir's dataset that
    reads its checkpoint from ckpts."""
    root, out = run_dir
    return main([
        "sweep", "--config", str(root / "cfg.json"), "--out", str(sweep_out),
        "--data", os.path.join(out, "dataset.bcsl"), "--checkpoints", str(ckpts),
        "--m", "4", "--kinds", "learned",
    ])


@pytest.mark.parametrize(
    "key, value",
    [("batch_size", 8.5), ("seed", True), ("max_epochs", 1.0), ("num_updates", 2.0)],
)
def test_checkpoint_trailer_of_the_wrong_type_is_a_file_error(
    run_dir, tmp_path, capsys, key, value
):
    # each value is read as the config would read train.<key>: refused
    _, out = run_dir
    blob = Path(out, checkpoint_name(4)).read_bytes()
    (trailer_len,) = struct.unpack("<Q", blob[-8:])
    payload_end = len(blob) - 8 - trailer_len
    trailer = json.loads(blob[payload_end:-8])
    trailer["train_config"][key] = value
    text = json.dumps(trailer, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / checkpoint_name(4)
    bad.write_bytes(blob[:payload_end] + text + struct.pack("<Q", len(text)))
    sweep_out = tmp_path / "sweep"
    capsys.readouterr()
    assert _sweep_learned(run_dir, tmp_path, sweep_out) == EXIT_IO
    assert capsys.readouterr().err == (
        f"file error: checkpoint trailer invalid: train_config.{key} "
        f"must be of type int, got {value!r}\n"
    )
    assert not (sweep_out / "report.json").exists()


# Byte offsets in the run_dir's checkpoint_m4.bcsw (m=4, width 16): an
# 8-byte prefix, m, width, L as u64, then alpha as f64, then Phi and each
# layer's gamma, beta, running mean and running variance as f32.
_ALPHA, _PHI = 32, 40
_RUNNING_VAR = _PHI + 4 * (4 * 16 + 3 * 16)  # layer 0

CORRUPTIONS = {
    "negative alpha": (_ALPHA, "<d", -1.0),
    "nan alpha": (_ALPHA, "<d", math.nan),
    "nan in phi": (_PHI, "<f", math.nan),
    "inf in phi": (_PHI, "<f", math.inf),
    "negative running variance": (_RUNNING_VAR, "<f", -1.0),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_checkpoint_is_a_file_error(run_dir, tmp_path, capsys, corruption):
    _, out = run_dir
    offset, fmt, value = CORRUPTIONS[corruption]
    blob = bytearray(Path(out, checkpoint_name(4)).read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    bad = ckpts / checkpoint_name(4)
    bad.write_bytes(bytes(blob))
    capsys.readouterr()

    sweep_out = tmp_path / "sweep"
    assert _sweep_learned(run_dir, ckpts, sweep_out) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert not (sweep_out / "report.json").exists()


@pytest.mark.parametrize("where, value", [("first", math.nan), ("last", math.inf)])
def test_non_finite_dataset_is_a_file_error(run_dir, tmp_path, capsys, where, value):
    # the first value belongs to a train sample, the last to a test sample;
    # the samples follow an 8-byte prefix and six u64 header fields
    root, out = run_dir
    blob = bytearray(Path(out, "dataset.bcsl").read_bytes())
    (trailer_len,) = struct.unpack("<Q", blob[-8:])
    offset = 56 if where == "first" else len(blob) - 8 - trailer_len - 8
    struct.pack_into("<d", blob, offset, value)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "dataset.bcsl").write_bytes(bytes(blob))
    cfg = ["--config", str(root / "cfg.json"), "--out", str(bad)]
    for command in (["train", *cfg], ["sweep", *cfg, "--kinds", "gaussian"]):
        capsys.readouterr()
        assert main(command) == EXIT_IO
        assert capsys.readouterr().err == "file error: dataset holds a non-finite value\n"
    assert sorted(os.listdir(bad)) == ["dataset.bcsl"]


def test_dataset_ratios_that_contradict_its_split_are_a_file_error(
    run_dir, tmp_path, capsys
):
    root, out = run_dir
    blob = Path(out, "dataset.bcsl").read_bytes()
    (trailer_len,) = struct.unpack("<Q", blob[-8:])
    payload_end = len(blob) - 8 - trailer_len
    trailer = json.loads(blob[payload_end:-8])

    def write(path, trailer):
        text = json.dumps(trailer, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:payload_end] + text + struct.pack("<Q", len(text)))

    bad = tmp_path / "bad"
    bad.mkdir()
    write(bad / "dataset.bcsl", {**trailer, "ratios": [0.5]})
    cfg = ["--config", str(root / "cfg.json"), "--out", str(bad), "--m", "4"]
    for command in (["train", *cfg], ["sweep", *cfg, "--kinds", "gaussian"]):
        capsys.readouterr()
        assert main(command) == EXIT_IO
        err = capsys.readouterr().err
        assert err == "file error: dataset trailer invalid: ratios must have exactly 3 entries\n"
    assert sorted(os.listdir(bad)) == ["dataset.bcsl"]

    # a trailer key that no reader uses is refused, not dropped
    extra = tmp_path / "extra.bcsl"
    write(extra, {**trailer, "gain_model": "complex_gaussian"})
    capsys.readouterr()
    assert main(["train", *cfg, "--data", str(extra)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == "file error: dataset trailer invalid: unknown trailer key: gain_model\n"
    assert sorted(os.listdir(bad)) == ["dataset.bcsl"]


def _refused_as_version(run_dir, tmp_path, capsys, name, version) -> None:
    """run_dir's file name, relabelled as that version, is a file error:
    a dataset under train, a checkpoint under a learned sweep."""
    root, out = run_dir
    blob = bytearray(Path(out, name).read_bytes())
    struct.pack_into("<I", blob, 4, version)
    old = tmp_path / "old"
    old.mkdir()
    (old / name).write_bytes(bytes(blob))
    capsys.readouterr()
    if name == "dataset.bcsl":
        code = main(["train", "--config", str(root / "cfg.json"), "--out", str(old)])
    else:
        code = _sweep_learned(run_dir, old, old)
    assert code == EXIT_IO
    assert capsys.readouterr().err == f"file error: unsupported format version {version}\n"
    assert os.listdir(old) == [name]


@pytest.mark.parametrize("name", ["dataset.bcsl", checkpoint_name(4)])
def test_version_1_file_is_a_file_error(run_dir, tmp_path, capsys, name):
    _refused_as_version(run_dir, tmp_path, capsys, name, 1)


def test_version_2_checkpoint_is_a_file_error(run_dir, tmp_path, capsys):
    # version 2 held an alpha_init in its trailer
    _refused_as_version(run_dir, tmp_path, capsys, checkpoint_name(4), 2)


def test_version_2_dataset_is_a_file_error(run_dir, tmp_path, capsys):
    # version 2 stored an n x 2 (min, max) block after the samples
    root, out = run_dir
    blob = bytearray(Path(out, "dataset.bcsl").read_bytes())
    struct.pack_into("<I", blob, 4, 2)
    (trailer_len,) = struct.unpack("<Q", blob[-8:])
    payload_end = len(blob) - 8 - trailer_len
    blob[payload_end:payload_end] = bytes(8 * 2 * CFG["data"]["num_samples"])
    old = tmp_path / "old"
    old.mkdir()
    (old / "dataset.bcsl").write_bytes(bytes(blob))
    capsys.readouterr()
    code = main(["train", "--config", str(root / "cfg.json"), "--out", str(old)])
    assert code == EXIT_IO
    assert capsys.readouterr().err == "file error: unsupported format version 2\n"
    assert sorted(os.listdir(old)) == ["dataset.bcsl"]


def test_sweep_rank_deficient_phi_is_a_numerical_failure(run_dir, tmp_path, capsys):
    # a Phi whose second row repeats its first spends 4 rows on 3
    # measurements; scoring it at m=4 would flatter it
    _, out = run_dir
    blob = bytearray(Path(out, checkpoint_name(4)).read_bytes())
    row = 4 * 16  # one Phi row of the width-16 checkpoint, in bytes
    blob[_PHI + row : _PHI + 2 * row] = blob[_PHI : _PHI + row]
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / checkpoint_name(4)).write_bytes(bytes(blob))
    capsys.readouterr()

    sweep_out = tmp_path / "sweep"
    assert _sweep_learned(run_dir, ckpts, sweep_out) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "rank 3" in err
    assert not (sweep_out / "report.json").exists()


def _fresh_interpreter_env() -> dict:
    """The environment with this beamcs's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(beamcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_train_is_byte_identical_across_processes(run_dir, tmp_path):
    # two fresh interpreters, each with its own BLAS set-up, write the
    # same checkpoint bytes as the in-process run
    root, out = run_dir
    env = _fresh_interpreter_env()
    outs = [tmp_path / "a", tmp_path / "b"]
    for dest in outs:
        subprocess.run(
            [
                sys.executable, "-m", "beamcs.cli", "train",
                "--config", str(root / "cfg.json"), "--seed", "0",
                "--data", os.path.join(out, "dataset.bcsl"), "--out", str(dest),
            ],
            env=env, check=True, capture_output=True, timeout=300,
        )
    for m in CFG["m_values"]:
        want = Path(out, checkpoint_name(m)).read_bytes()
        for dest in outs:
            assert (dest / checkpoint_name(m)).read_bytes() == want


_COLD_START = """
import json, sys
import beamcs, beamcs.cli
cfg, out = sys.argv[1:]
base = ["--config", cfg, "--out", out]
codes = [beamcs.cli.main(argv) for argv in (
    ["gen-data", *base],
    ["train", *base],
)]
before = "scipy.linalg" in sys.modules
codes.append(beamcs.cli.main(["sweep", *base]))
print(json.dumps({"codes": codes, "before": before, "after": "scipy.linalg" in sys.modules}))
"""


def test_only_sweep_loads_scipy(tmp_path):
    # a fresh interpreter, since this one has loaded scipy for the tests:
    # gen-data and train run on numpy alone, and the first
    # basis-pursuit factorization loads scipy's LAPACK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(cfg), str(tmp_path / "run")],
        env=_fresh_interpreter_env(), check=True, capture_output=True, text=True,
        timeout=300,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 3, "before": False, "after": True}
