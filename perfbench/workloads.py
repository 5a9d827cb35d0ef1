"""The three closed-loop workloads: one caller, each call waits for the last.

Each workload builds its inputs from the seed in `setup` and runs one
closed-loop operation, a fixed amount of work, per `op` call.  Every
operation is checked from outside the package; a failed check raises
BenchmarkFailure and the run prints no numbers.

  train-paper  one training.train call per op at the paper shape.
  sweep-paper  one round of evaluate.recover_all over every
               (kind, m) cell per op; the unit of latency is one solve.
  pipeline-ci  one gen-data -> train -> sweep run of cli.main per op.

Every op repeats the same work, so each piece of it (a train call, a
solve, the rest of a recover_all cell or pipeline stage) runs many
times in a run, and its time is the fastest of its repeats, as timeit
recommends: the shared cores the benchmark runs on alternate, over
seconds, between full speed and about 1.5x slower (a fixed numpy
kernel shows the same two speeds, so they come from the machine, not
from the program).  Medians and
percentiles are then taken over the distinct pieces.
"""

from __future__ import annotations

import csv
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time

import numpy as np

SIZES = {
    "paper": {
        "train-paper": dict(antennas=256, paths=3, samples=2000, m=20, epochs=5,
                            batch=128),
        "sweep-paper": dict(antennas=256, paths=3, test=300, m_values=(20, 40)),
        "pipeline-ci": dict(samples=1000, epochs=10, warm_samples=100),
    },
    # Toy shapes for the smoke test; the same code paths at a fraction of
    # the cost.
    "toy": {
        "train-paper": dict(antennas=32, paths=3, samples=100, m=20, epochs=2,
                            batch=16),
        "sweep-paper": dict(antennas=32, paths=3, test=10, m_values=(20, 40)),
        "pipeline-ci": dict(samples=40, epochs=1, warm_samples=20),
    },
}


class BenchmarkFailure(Exception):
    """An output of the program failed a correctness check."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, from
    p99.9/p99/p90/p75/p50; below 20 samples the median stands in."""
    n = len(values)
    for q in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return f"p{q:g}", percentile(values, q)
    return "p50", statistics.median(values)


class SolveLog:
    """Times every BasisPursuitSolver.solve and keeps its result until the
    caller checks it.  This is the one wrapper present in untraced runs:
    per-solve latency cannot be seen from the sweep's entry points, and
    two clock reads cost well under 0.1% of a solve."""

    def __init__(self) -> None:
        self.pending: list[tuple] = []  # (solver, y, result)
        self.ms: list[float] = []
        self.statuses: list[str] = []

    @contextlib.contextmanager
    def installed(self):
        from beamcs.recovery import BasisPursuitSolver

        solve = BasisPursuitSolver.__dict__["solve"]

        def timed_solve(solver, y):
            start = time.perf_counter_ns()
            result = solve(solver, y)
            self.ms.append((time.perf_counter_ns() - start) / 1e6)
            self.pending.append((solver, y, result))
            return result

        BasisPursuitSolver.solve = timed_solve
        try:
            yield self
        finally:
            BasisPursuitSolver.solve = solve

    def check(self) -> None:
        """Re-checks ||Phi h - y|| of every OPTIMAL result against feas_tol."""
        for solver, y, result in self.pending:
            status = result.status.value
            if status == "optimal":
                residual = float(np.linalg.norm(solver.phi @ result.h_hat - y))
                if not residual <= solver.cfg.feas_tol:
                    raise BenchmarkFailure(
                        f"OPTIMAL solve has residual {residual:.3g} > "
                        f"feas_tol {solver.cfg.feas_tol:g}"
                    )
            self.statuses.append(status)
        self.pending.clear()


class StepLog:
    """Times every call of training's forward and backward, the bulk of a
    train step, in call order.  Names missing from training are left
    alone; their time then stays in the rest of the train call."""

    NAMES = ("forward", "backward")

    def __init__(self) -> None:
        self.ms: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        from beamcs import training

        saved = {n: getattr(training, n) for n in self.NAMES if hasattr(training, n)}

        def timer(fn):
            def timed(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.ms.append((time.perf_counter_ns() - start) / 1e6)
            return timed

        for name, fn in saved.items():
            setattr(training, name, timer(fn))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(training, name, fn)


class Units:
    """Fastest-of-repeats times of the units of work an op repeats.

    A unit (a train call, a recover_all cell, a pipeline stage) is timed
    as a whole, minus the calls the logs (SolveLog, StepLog) timed inside
    it; each of those calls is kept on its own, keyed by its log and its
    place in the unit, since every repeat makes the same calls in the
    same order.  The fastest repeat of each piece is kept, so a piece
    counts at full speed if any of its repeats ran at full speed."""

    def __init__(self, *logs) -> None:
        self.logs = logs
        self.ms: dict[tuple, list[float]] = {}

    @contextlib.contextmanager
    def timing(self, unit: str):
        firsts = [len(log.ms) for log in self.logs]
        start = time.perf_counter_ns()
        yield
        elapsed = (time.perf_counter_ns() - start) / 1e6
        inner = [log.ms[first:] for log, first in zip(self.logs, firsts)]
        self.ms.setdefault((unit, "rest"), []).append(elapsed - sum(map(sum, inner)))
        for j, calls in enumerate(inner):
            for i, ms in enumerate(calls):
                self.ms.setdefault((unit, j, i), []).append(ms)

    def repeats(self, unit: str) -> int:
        return len(self.ms[(unit, "rest")])

    def best_ms(self, unit: str | None = None) -> float:
        """Fastest time of a unit (or of all units), piece by piece."""
        return sum(min(v) for k, v in self.ms.items() if unit in (None, k[0]))

    def calls_ms(self, log: int = 0) -> list[float]:
        """Fastest time of every distinct call the given log timed."""
        return [min(v) for k, v in self.ms.items() if k[1] == log]


def _finite(values, what: str) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise BenchmarkFailure(f"non-finite {what}")


def _same(first, again, what: str) -> None:
    if first != again:
        raise BenchmarkFailure(f"{what} differs between repeats at the same seed")


class TrainPaper:
    """training.train at the paper shape (N=256, width 512, m=20, T=9,
    batch 128, lr 0.01) with a fixed epoch budget and dev evaluation
    every 5 epochs."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = SIZES[size]["train-paper"]
        self.steps = StepLog()
        self.units = Units(self.steps)
        self.calls_ms: list[float] = []
        self.samples = 0
        self.first = None

    def setup(self) -> None:
        from beamcs import channels, training

        p = self.p
        cfg = channels.ChannelConfig(p["antennas"], p["paths"], seed=self.seed)
        self.dataset = channels.generate_dataset(cfg, p["samples"], floor=0.0)
        self.cfg = training.TrainConfig(
            learning_rate=0.01, batch_size=p["batch"], max_epochs=p["epochs"],
            dev_eval_every=5, seed=self.seed,
        )
        # Warm-up: the first train call in a process runs markedly slower.
        warm = training.TrainConfig(batch_size=p["batch"], max_epochs=1, seed=self.seed)
        training.train(self.dataset, p["m"], warm)

    def op(self) -> None:
        from beamcs import training

        start = time.perf_counter()
        with self.steps.installed(), self.units.timing("train"):
            model, report = training.train(self.dataset, self.p["m"], self.cfg)
        self.calls_ms.append((time.perf_counter() - start) * 1e3)
        _finite(report.train_losses, "training loss")
        _finite(report.dev_losses, "dev loss")
        full, rest = divmod(self.dataset.num_train, self.cfg.batch_size)
        used = full * self.cfg.batch_size + (rest if rest >= 2 else 0)
        self.samples += len(report.train_losses) * used
        outcome = (report.best_dev_loss, report.dev_losses.tobytes(), model.phi.tobytes())
        if self.first is None:
            self.first = outcome
            self.report = report
        _same(self.first, outcome, "training outcome")

    def attempted(self) -> tuple[int, int]:
        return len(self.calls_ms), 0

    def results(self):
        report = self.report
        losses = report.dev_losses.tolist()
        snapshots = sum(losses[i] < min(losses[:i]) for i in range(1, len(losses)))
        n = len(self.calls_ms)
        best = self.units.best_ms()
        rate = self.samples / n / (best / 1e3)
        final_train = float(report.train_losses[-1])
        generic = {
            "throughput_per_s": rate,
            "op_ms_p50": best,
            "op_ms_tail": best,
            "quality_loss": final_train,
        }
        detail = [
            ("train_samples_per_s", rate, "samples/s", n, "fastest train call"),
            ("train_call_ms_best", best, "ms", n, "fastest train call"),
            ("train_call_ms_p50", statistics.median(self.calls_ms), "ms", n,
             "train calls, not gated"),
            ("best_dev_loss", report.best_dev_loss, "loss", 1,
             f"best epoch {report.best_epoch}, {snapshots} snapshots"),
            ("final_dev_loss", losses[-1], "loss", 1,
             f"epoch {int(report.dev_epochs[-1])}"),
            ("final_train_loss", final_train, "loss", 1,
             f"mean over epoch {len(report.train_losses)}"),
        ]
        return generic, detail


class SweepPaper:
    """evaluate.recover_all over paper-shaped test vectors (width 512) for
    the gaussian and phase_shifter baselines at m=20 and m=40."""

    KINDS = ("gaussian", "phase_shifter")

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.p = SIZES[size]["sweep-paper"]
        self.log = SolveLog()
        self.units = Units(self.log)
        self.rates: dict = {}

    def setup(self) -> None:
        from beamcs import channels, evaluate, recovery
        from beamcs.matrices import MatrixKind

        p = self.p
        cfg = channels.ChannelConfig(p["antennas"], p["paths"], seed=self.seed)
        data = channels.generate_dataset(cfg, p["test"], ratios=(0.0, 0.0, 1.0), floor=0.0)
        self.test = data.test
        self.recovery_cfg = recovery.RecoveryConfig()
        self.cells = []
        for kind in self.KINDS:
            for m in p["m_values"]:
                matrix = evaluate.sweep_baseline(MatrixKind(kind), m, data.width, self.seed)
                self.cells.append((f"{kind}/m{m}", matrix))
        # Warm-up: build each cell's solver and solve a few vectors.
        for _, matrix in self.cells:
            solver = recovery.BasisPursuitSolver(matrix.data, self.recovery_cfg)
            for h in self.test[:3]:
                solver.solve(matrix.data @ h)

    def op(self) -> None:
        from beamcs import evaluate

        with self.log.installed():
            for name, matrix in self.cells:
                with self.units.timing(name):
                    estimates, _ = evaluate.recover_all(
                        matrix, self.test, self.recovery_cfg
                    )
                rate = evaluate.exact_recovery_rate(self.test, estimates, 1e-8)
                nrse, _ = evaluate.mean_nrse(self.test, estimates)
                outcome = (rate, nrse, estimates.tobytes())
                _same(self.rates.setdefault(name, outcome), outcome,
                      f"recovery of cell {name}")
        self.log.check()

    def _statuses(self) -> list[str]:
        # Each distinct solve counts once: later rounds repeat the same
        # solves, and the check above makes them give the same result.
        return self.log.statuses[: len(self.cells) * len(self.test)]

    def attempted(self) -> tuple[int, int]:
        # A non-OPTIMAL solve still returns an estimate and is reported as
        # nonoptimal_frac, not as a failure: whether a borderline problem
        # stops at max_iters depends on floating-point rounding that
        # differs from process to process, so the same seed can give 0
        # non-OPTIMAL solves in one run and a few in the next.
        return len(self._statuses()), 0

    def results(self):
        statuses = self._statuses()
        solves = len(statuses)
        nonoptimal = sum(s != "optimal" for s in statuses)
        rounds = self.units.repeats(self.cells[0][0])
        ms = self.units.calls_ms()
        rate = solves / (self.units.best_ms() / 1e3)
        name, slow = tail(ms)
        exact = statistics.fmean(r[0] for r in self.rates.values())
        generic = {
            "throughput_per_s": rate,
            "op_ms_p50": statistics.median(ms),
            "op_ms_tail": percentile(ms, 90.0),
            "quality_loss": 1.0 - exact,
        }
        cells = len(self.rates)
        note = f"solves, fastest of {rounds} rounds"
        detail = [
            ("recoveries_per_s", rate, "solves/s", solves,
             f"recover_all cells, fastest of {rounds} rounds"),
            ("recover_ms_p50", generic["op_ms_p50"], "ms", solves, note),
            ("recover_ms_p90", generic["op_ms_tail"], "ms", solves, note),
            ("recover_ms_tail", slow, "ms", solves, f"{name} of {note}"),
            ("recover_ms_p50_all", statistics.median(self.log.ms), "ms",
             len(self.log.ms), "every solve of every round, not gated"),
            ("exact_rate_mean", exact, "fraction", cells, "cells"),
            ("nonoptimal_frac", nonoptimal / solves, "fraction", solves, "solves"),
        ]
        return generic, detail


class PipelineCi:
    """cli.main in-process for gen-data, train and sweep at the ci profile
    (width 64, m in {8, 12, 16}, all six matrix kinds), with fewer samples
    and epochs so that one pipeline takes seconds."""

    STAGES = ("gen-data", "train", "sweep")

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.p = SIZES[size]["pipeline-ci"]
        self.workdir = workdir
        self.log = SolveLog()
        self.steps = StepLog()
        self.units = Units(self.log, self.steps)
        self.pipeline_ms: list[float] = []
        self.runs = 0
        self.reference: dict | None = None

    def _config(self, name: str, samples: int, epochs: int) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({
                "profile": "ci",
                "seed": self.seed,
                "data": {"num_samples": samples},
                "train": {"max_epochs": epochs},
            }, fh)
        return path

    def _pipeline(self, config: str, out: str, units: Units) -> None:
        from beamcs import cli

        for stage in self.STAGES:
            with units.timing(stage), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([stage, "--config", config, "--out", out])
            if code != 0:
                raise BenchmarkFailure(f"beamcs {stage} exited with code {code}")

    def setup(self) -> None:
        p = self.p
        self.config = self._config("pipeline", p["samples"], p["epochs"])
        warm = self._config("warm-up", p["warm_samples"], 1)
        out = os.path.join(self.workdir, "warm-up")
        with self.log.installed(), self.steps.installed():
            self._pipeline(warm, out, Units(self.log, self.steps))
        self.log.check()
        shutil.rmtree(out)

    def op(self) -> None:
        out = os.path.join(self.workdir, f"run{self.runs}")
        start = time.perf_counter()
        with self.log.installed(), self.steps.installed():
            self._pipeline(self.config, out, self.units)
        self.pipeline_ms.append((time.perf_counter() - start) * 1e3)
        self.log.check()
        self.runs += 1
        outputs = self._read_outputs(out)
        if self.reference is None:
            self.reference = outputs
        else:
            _same(self.reference, outputs, "pipeline output (report.json, checkpoints)")
            shutil.rmtree(out)


    def _read_outputs(self, out: str) -> dict:
        outputs = {}
        for name in sorted(os.listdir(out)):
            if name.startswith("training_m"):
                with open(os.path.join(out, name), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                losses = [float(r[k]) for r in rows for k in ("train_loss", "dev_loss") if r[k]]
                _finite(losses, f"loss in {name}")
                dev = [float(r["dev_loss"]) for r in rows if r["dev_loss"]]
                outputs[name] = min(dev)  # the seconds column is wall-clock
            elif name.endswith((".json", ".bcsw", ".bcsl")):
                with open(os.path.join(out, name), "rb") as fh:
                    outputs[name] = fh.read()
        return outputs

    def attempted(self) -> tuple[int, int]:
        return len(self.STAGES) * self.runs, 0

    def results(self):
        n = self.runs
        total_ms = self.units.best_ms()
        report = json.loads(self.reference["report.json"])
        rows = report["rows"]
        exact = statistics.fmean(r["exact_rate"] for r in rows)
        solves = sum(r["num_samples"] for r in rows)
        nonoptimal = sum(r["solver_failures"] for r in rows) / solves
        dev = statistics.fmean(
            v for k, v in self.reference.items() if k.startswith("training_m")
        )
        generic = {
            "throughput_per_s": 1e3 / total_ms,
            "op_ms_p50": total_ms,
            "op_ms_tail": total_ms,
            "quality_loss": dev,
        }
        detail = [
            (f"{stage.replace('-', '_')}_s", self.units.best_ms(stage) / 1e3, "s", n,
             "fastest of runs")
            for stage in self.STAGES
        ] + [
            ("pipeline_ms_best", total_ms, "ms", n, "sum of the fastest stages"),
            ("pipeline_ms_p50", statistics.median(self.pipeline_ms), "ms", n,
             "runs, not gated"),
            ("best_dev_loss", dev, "loss", len(report["m_values"]), "mean over m"),
            ("exact_rate_mean", exact, "fraction", len(rows), "cells"),
            ("nonoptimal_frac", nonoptimal, "fraction", solves, "solves"),
        ]
        return generic, detail


def make(name: str, seed: int, size: str, workdir: str):
    if name == "train-paper":
        return TrainPaper(seed, size)
    if name == "sweep-paper":
        return SweepPaper(seed, size)
    return PipelineCi(seed, size, workdir)
