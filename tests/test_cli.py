import json
import os
from pathlib import Path

import pytest

from beamcs.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, checkpoint_name, main

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
    assert Path(dest).read_text().splitlines()[0].count(",") == 19  # 16 values + 4 params


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


def test_sweep_rejects_off_grid_data(tmp_path, capsys):
    # exact recovery cannot score off-grid data: no 0% report, one error line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        **CFG,
        "channel": {**CFG["channel"], "angle_mode": "off_grid"},
        "kinds": ["gaussian"],
    }))
    out = str(tmp_path / "out")
    assert main(["gen-data", "--config", str(cfg), "--out", out]) == EXIT_OK
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "off_grid" in err
    assert err.count("\n") == 1
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
