import json
import math
import os
import struct
from pathlib import Path

import pytest

from beamcs.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    checkpoint_name,
    main,
)

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
    assert doc["config"]["channel"]["num_antennas"] == 8
    assert doc["config"]["seed"] == 0
    assert doc["metric"] == doc["config"]["metric"]
    assert doc["recovery"] == doc["config"]["recovery"]


def test_seed_flag_overrides_config(run_dir):
    root, out = run_dir
    doc = json.loads(Path(out, "report.json").read_text())
    assert doc["config"]["train"]["seed"] == 0


def test_checkpoint_name():
    assert checkpoint_name(25) == "checkpoint_m25.bcsw"


def test_export_round_trips(run_dir, tmp_path):
    _, out = run_dir
    ckpt = os.path.join(out, "checkpoint_m4.bcsw")
    dest = str(tmp_path / "ckpt.json")
    assert main(["export", "--in", ckpt, "--format", "json", "--out", dest]) == EXIT_OK
    doc = json.loads(Path(dest).read_text())
    assert doc["m"] == 4 and doc["width"] == 16

    data = os.path.join(out, "dataset.bcsl")
    dest = str(tmp_path / "data.csv")
    assert main(["export", "--in", data, "--format", "csv", "--out", dest]) == EXIT_OK
    lines = Path(dest).read_text().splitlines()
    assert len(lines) == 60  # one row per sample, no comment line
    assert all(line.count(",") == 15 and "#" not in line for line in lines)


def test_export_format_mismatch(run_dir, tmp_path):
    _, out = run_dir
    ckpt = os.path.join(out, "checkpoint_m4.bcsw")
    dest = str(tmp_path / "x.csv")
    assert main(["export", "--in", ckpt, "--format", "csv", "--out", dest]) == EXIT_USAGE


def test_usage_errors(run_dir, tmp_path):
    root, _ = run_dir
    cfg = str(root / "cfg.json")
    out = str(tmp_path / "u")
    assert main(["gen-data", "--profile", "nope", "--out", out]) == EXIT_USAGE
    assert main(["bogus-command"]) == EXIT_USAGE
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
    # a key the config does not read fails loudly instead of being dropped
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    for extra, key in [
        ({"recovery": {"solver": "basis_pursuit_lp"}}, "recovery.solver"),
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
    cfg.write_text(json.dumps({**CFG, "data": {"ratios": [0.5, 0.3, 0.3]}}))
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: split ratios must sum to 1") and err.count("\n") == 1
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
    # the ratios pass config validation, but train needs a dev split
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CFG, "data": {"ratios": [1.0, 0.0, 0.0]}}))
    out = str(tmp_path / "out")
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: dataset must have nonempty train and dev splits\n"
    assert not any(name.endswith(".bcsw") for name in os.listdir(out))


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
    root, out = run_dir
    offset, fmt, value = CORRUPTIONS[corruption]
    blob = bytearray(Path(out, checkpoint_name(4)).read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    bad = ckpts / checkpoint_name(4)
    bad.write_bytes(bytes(blob))
    capsys.readouterr()

    exported = tmp_path / "m4.json"
    code = main(["export", "--in", str(bad), "--format", "json", "--out", str(exported)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert not exported.exists()

    sweep_out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(root / "cfg.json"), "--out", str(sweep_out),
        "--data", os.path.join(out, "dataset.bcsl"), "--checkpoints", str(ckpts),
        "--m", "4", "--kinds", "learned",
    ])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert not (sweep_out / "report.json").exists()


@pytest.mark.parametrize("name", ["dataset.bcsl", checkpoint_name(4)])
def test_version_1_file_is_a_file_error(run_dir, tmp_path, capsys, name):
    _, out = run_dir
    blob = bytearray(Path(out, name).read_bytes())
    struct.pack_into("<I", blob, 4, 1)
    old = tmp_path / name
    old.write_bytes(bytes(blob))
    capsys.readouterr()
    exported = tmp_path / "exported"
    fmt = "csv" if name.endswith(".bcsl") else "json"
    code = main(["export", "--in", str(old), "--format", fmt, "--out", str(exported)])
    assert code == EXIT_IO
    assert capsys.readouterr().err == "file error: unsupported format version 1\n"
    assert not exported.exists()


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
    root, out = run_dir
    blob = bytearray(Path(out, checkpoint_name(4)).read_bytes())
    row = 4 * 16  # one Phi row of the width-16 checkpoint, in bytes
    blob[_PHI + row : _PHI + 2 * row] = blob[_PHI : _PHI + row]
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    (ckpts / checkpoint_name(4)).write_bytes(bytes(blob))
    capsys.readouterr()

    sweep_out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(root / "cfg.json"), "--out", str(sweep_out),
        "--data", os.path.join(out, "dataset.bcsl"), "--checkpoints", str(ckpts),
        "--m", "4", "--kinds", "learned",
    ])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "rank 3" in err
    assert not (sweep_out / "report.json").exists()


def test_train_is_byte_identical_across_processes(run_dir, tmp_path):
    # two fresh interpreters, each with its own BLAS set-up, write the
    # same checkpoint bytes as the in-process run
    import subprocess
    import sys

    import beamcs

    root, out = run_dir
    env = dict(os.environ)
    src = str(Path(beamcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
