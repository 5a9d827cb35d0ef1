"""Toy-size smoke run of every workload, so the harness cannot rot.

    python3 -m pytest perfbench

No timing bound anywhere: these tests check that each workload runs,
reports exactly the metrics BENCHMARK.json names, keeps each layer's
work on the workloads meant to exercise it, and refuses to print
numbers when a check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def invoke(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "toy",
    ])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_spec_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in run.spans.PER_LAYER
    ]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result = invoke(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


def _layer(metrics: dict, prefix: str, what: str) -> float:
    return sum(
        v["value"] for k, v in metrics.items()
        if k.startswith(prefix) and k.endswith(what)
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_keeps_each_layer_on_its_workloads(capsys, workload):
    code, result = invoke(capsys, workload, 1)
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert [k for k in metrics] == [m["name"] for m in SPEC["per_layer"]]
    network = _layer(metrics, "network.", "_ms")
    recovery = _layer(metrics, "recovery.", "_ms")
    fileio = _layer(metrics, "fileio.", "")
    assert (network > 0) == (workload != "sweep-paper")
    assert (recovery > 0) == (workload != "train-paper")
    assert (fileio > 0) == (workload == "pipeline-ci")
    assert metrics["trace.spans"]["value"] > 0


def test_wrong_recovery_fails_the_run_without_numbers(capsys, monkeypatch):
    import beamcs.recovery as recovery

    solve = recovery.BasisPursuitSolver.solve

    def off_by_one(self, y):
        result = solve(self, y)
        h_hat = result.h_hat.copy()
        h_hat[0] += 1.0
        return recovery.RecoveryResult(
            h_hat, result.status, result.residual, result.objective, result.iterations
        )

    monkeypatch.setattr(recovery.BasisPursuitSolver, "solve", off_by_one)
    code, result = invoke(capsys, "sweep-paper", 0)
    assert code == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_refuses_parallel_workers(capsys, monkeypatch):
    monkeypatch.setenv("BEAMCS_WORKERS", "2")
    code = run.main(["--workload", "sweep-paper", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
