import json
import os

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
    doc = json.loads(open(os.path.join(out, "report.json")).read())
    assert doc["m_values"] == [4, 6]
    assert {r["kind"] for r in doc["rows"]} == {"learned", "gaussian"}
    assert len(doc["rows"]) == 4
    assert all(r["note"] == "" for r in doc["rows"])
    assert doc["config"]["channel"]["num_antennas"] == 8
    assert doc["config"]["seed"] == 0


def test_seed_flag_overrides_config(run_dir):
    root, out = run_dir
    doc = json.loads(open(os.path.join(out, "report.json")).read())
    assert doc["config"]["train"]["seed"] == 0


def test_checkpoint_name():
    assert checkpoint_name(25) == "checkpoint_m25.bcsw"


def test_export_round_trips(run_dir, tmp_path):
    _, out = run_dir
    ckpt = os.path.join(out, "checkpoint_m4.bcsw")
    dest = str(tmp_path / "ckpt.json")
    assert main(["export", "--in", ckpt, "--format", "json", "--out", dest]) == EXIT_OK
    doc = json.loads(open(dest).read())
    assert doc["m"] == 4 and doc["width"] == 16

    data = os.path.join(out, "dataset.bcsl")
    dest = str(tmp_path / "data.csv")
    assert main(["export", "--in", data, "--format", "csv", "--out", dest]) == EXIT_OK
    assert open(dest).readline().count(",") == 19  # 16 values + 4 params


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
    # the sweep always solves the LP, so no other solver may reach report.json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({**CFG, "recovery": {"solver": "projected_subgradient"}})
    )
    out = str(tmp_path / "out")
    for command in ("gen-data", "train", "sweep"):
        assert main([command, "--config", str(cfg), "--out", out]) == EXIT_USAGE
        assert "projected_subgradient" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_workers_env(run_dir, monkeypatch, tmp_path):
    root, out = run_dir
    cfg = str(root / "cfg.json")
    args = [
        "sweep",
        "--config",
        cfg,
        "--out",
        str(tmp_path),
        "--data",
        os.path.join(out, "dataset.bcsl"),
        "--checkpoints",
        out,
    ]
    monkeypatch.setenv("BEAMCS_WORKERS", "many")
    assert main(args) == EXIT_USAGE
    monkeypatch.setenv("BEAMCS_WORKERS", "0")
    assert main(args) == EXIT_USAGE


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
    doc = json.loads(open(os.path.join(str(tmp_path), "report.json")).read())
    gaps = [r for r in doc["rows"] if r["note"] == "missing checkpoint"]
    assert len(gaps) == 2


def test_gen_data_is_deterministic(run_dir, tmp_path):
    root, out = run_dir
    cfg = str(root / "cfg.json")
    again = str(tmp_path / "again")
    assert main(["gen-data", "--config", cfg, "--seed", "0", "--out", again]) == EXIT_OK
    a = open(os.path.join(out, "dataset.bcsl"), "rb").read()
    b = open(os.path.join(again, "dataset.bcsl"), "rb").read()
    assert a == b
