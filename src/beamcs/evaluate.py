"""Recovery metrics and (matrix kind x m) sweep evaluation.

All metrics operate in the preprocessed domain, where compression,
recovery, and the exact-recovery threshold are defined.  A sweep cell
compresses every test sample with one matrix, recovers each with basis
pursuit, and computes all three metrics from that single solver pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .channels import ChannelDataset
from .matrices import MatrixKind, MeasurementMatrix, generate_baseline
from .recovery import BasisPursuitSolver, RecoveryConfig, RecoveryStatus

_FAILURE_NOTE_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricConfig:
    """Metric conventions: exact-recovery tolerance and the transmission
    block length that prices each measurement."""

    exact_tol: float = 1e-8
    block_length: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.exact_tol < np.inf:
            raise ValueError("exact_tol must be positive and finite")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")


@dataclass
class SweepRow:
    kind: str
    m: int
    exact_rate: float
    mean_nrse: float
    nrse_excluded: int
    effective_rate: float
    num_samples: int
    seed: int | None
    solver_failures: int
    note: str = ""
    seconds: float = 0.0  # wall-clock; kept out of deterministic exports


@dataclass
class SweepReport:
    rows: list[SweepRow]
    m_values: tuple[int, ...]
    kinds: tuple[str, ...]
    metric_cfg: MetricConfig
    recovery_cfg: RecoveryConfig
    num_test_samples: int
    notes: list[str] = field(default_factory=list)


def exact_recovery_rate(
    truth: np.ndarray, estimates: np.ndarray, exact_tol: float
) -> float:
    """Fraction of rows with reconstruction 2-norm error <= exact_tol."""
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimates.shape}")
    if truth.ndim != 2 or truth.shape[0] == 0:
        raise ValueError("need a nonempty (samples, width) array")
    errs = np.linalg.norm(truth - estimates, axis=1)
    return float(np.count_nonzero(errs <= exact_tol)) / truth.shape[0]


def mean_nrse(truth: np.ndarray, estimates: np.ndarray) -> tuple[float, int]:
    """Mean over samples of ||h - h_hat|| / ||h||.

    Zero-norm truth rows cannot be normalized; they are excluded from the
    mean and returned as a count.  Raises if every row is zero-norm.
    """
    truth = np.asarray(truth, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if truth.shape != estimates.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimates.shape}")
    if truth.ndim != 2 or truth.shape[0] == 0:
        raise ValueError("need a nonempty (samples, width) array")
    norms = np.linalg.norm(truth, axis=1)
    keep = norms > 0.0
    excluded = int(truth.shape[0] - np.count_nonzero(keep))
    if not np.any(keep):
        raise ValueError("all samples have zero norm; nothing to normalize")
    errs = np.linalg.norm(truth[keep] - estimates[keep], axis=1)
    return float(np.mean(errs / norms[keep])), excluded


def effective_rate(p: float, m: int, block_length: int) -> float:
    """Achievable rate, relative to the full block's, after spending m of
    block_length symbols on measurement: (1 - m/block_length) * p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"recovery rate must lie in [0, 1], got {p}")
    if not 0 < m < block_length:
        raise ValueError(f"need 0 < m < block_length, got m={m}, B={block_length}")
    return (1.0 - m / block_length) * p


def recover_all(
    matrix: MeasurementMatrix, samples: np.ndarray, cfg: RecoveryConfig
) -> tuple[np.ndarray, int]:
    """Basis-pursuit recovery of every row of samples measured by matrix.

    Returns (estimates, num_non_optimal).  One solver shares the
    factorizations of the matrix across every row.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != matrix.num_columns:
        raise ValueError(
            f"expected (samples, {matrix.num_columns}), got {samples.shape}"
        )
    solver = BasisPursuitSolver(matrix.data, cfg)
    estimates = np.empty_like(samples)
    failures = 0
    for i in range(samples.shape[0]):
        res = solver.solve(solver.phi @ samples[i])
        estimates[i] = res.h_hat
        if res.status is not RecoveryStatus.OPTIMAL:
            failures += 1
    return estimates, failures


def sweep_baseline(
    kind: MatrixKind, m: int, n: int, seed: int
) -> MeasurementMatrix:
    """Baseline matrix for one sweep cell: generate_baseline, which
    takes any m, including odd m for the complex kinds."""
    return generate_baseline(kind, m, n, seed)


def run_sweep(
    dataset: ChannelDataset,
    kinds: Sequence[MatrixKind],
    m_values: Sequence[int],
    recovery_cfg: RecoveryConfig,
    metric_cfg: MetricConfig,
    learned: Mapping[int, MeasurementMatrix] | None = None,
    seed: int = 0,
) -> SweepReport:
    """Evaluates every (matrix kind, m) cell on the dataset's test split.

    Every baseline kind is drawn from the one seed, each kind from its
    own stream; learned matrices come in as checkpoints.  A learned
    checkpoint missing for some m produces an explicit gap row rather
    than a silent omission or an abort; a cell whose solver reports
    non-optimal on more than half the samples gets a diagnostic note.
    Deterministic given the seed (wall-clock lives only in `seconds`).
    """
    test = dataset.test
    if test.shape[0] == 0:
        raise ValueError("dataset has an empty test split")
    m_values = tuple(int(m) for m in m_values)
    if len(m_values) == 0:
        raise ValueError("m_values must be nonempty")
    if any(m2 <= m1 for m1, m2 in zip(m_values, m_values[1:])):
        raise ValueError("m_values must be strictly increasing")
    if m_values[-1] >= dataset.width:
        raise ValueError("every m must be smaller than the vector width")
    if m_values[-1] >= metric_cfg.block_length:
        raise ValueError("block_length must exceed every swept m")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ValueError(f"duplicate matrix kind {kind.value}")

    learned = dict(learned) if learned else {}
    # Every matrix is drawn, and every checkpoint checked, before the first
    # solve: a cell that cannot be drawn fails the sweep at once.
    cells: list[tuple[MatrixKind, int, MeasurementMatrix | None]] = []
    for kind in kinds:
        for m in m_values:
            if kind is not MatrixKind.LEARNED:
                matrix = sweep_baseline(kind, m, dataset.width, seed)
            else:
                matrix = learned.get(m)
                if matrix is not None and matrix.data.shape != (m, dataset.width):
                    raise ValueError(
                        f"checkpoint for m={m} has shape "
                        f"{matrix.data.shape}, dataset width {dataset.width}"
                    )
            cells.append((kind, m, matrix))

    rows: list[SweepRow] = []
    notes: list[str] = []
    for kind, m, matrix in cells:
        if matrix is None:
            rows.append(
                SweepRow(
                    kind=kind.value,
                    m=m,
                    exact_rate=np.nan,
                    mean_nrse=np.nan,
                    nrse_excluded=0,
                    effective_rate=np.nan,
                    num_samples=0,
                    seed=None,
                    solver_failures=0,
                    note="missing checkpoint",
                )
            )
            notes.append(f"learned m={m}: missing checkpoint")
            continue
        tic = time.perf_counter()
        estimates, failures = recover_all(matrix, test, recovery_cfg)
        seconds = time.perf_counter() - tic
        p = exact_recovery_rate(test, estimates, metric_cfg.exact_tol)
        nrse, excluded = mean_nrse(test, estimates)
        note = ""
        if failures > _FAILURE_NOTE_THRESHOLD * test.shape[0]:
            note = f"solver non-optimal on {failures}/{test.shape[0]} samples"
            notes.append(f"{kind.value} m={m}: {note}")
        rows.append(
            SweepRow(
                kind=kind.value,
                m=m,
                exact_rate=p,
                mean_nrse=nrse,
                nrse_excluded=excluded,
                effective_rate=effective_rate(p, m, metric_cfg.block_length),
                num_samples=test.shape[0],
                seed=None if kind is MatrixKind.LEARNED else seed,
                solver_failures=failures,
                note=note,
                seconds=seconds,
            )
        )

    report = SweepReport(
        rows=rows,
        m_values=m_values,
        kinds=tuple(k.value for k in kinds),
        metric_cfg=metric_cfg,
        recovery_cfg=recovery_cfg,
        num_test_samples=test.shape[0],
    )
    report.notes = notes + nrse_trend_violations(report)
    return report


def nrse_trend_violations(report: SweepReport) -> list[str]:
    """Flags kinds whose mean normalized error increases with m.

    More measurements should not hurt recovery; increases are reported
    as notes, never hidden or corrected.
    """
    out: list[str] = []
    for kind in report.kinds:
        series = [
            (r.m, r.mean_nrse)
            for r in report.rows
            if r.kind == kind and np.isfinite(r.mean_nrse)
        ]
        series.sort()
        for (m1, v1), (m2, v2) in zip(series, series[1:]):
            if v2 > v1 + 1e-12:
                out.append(
                    f"{kind}: mean NRSE rises from {v1:.6g} (m={m1}) "
                    f"to {v2:.6g} (m={m2})"
                )
    return out


def figure_table(
    report: SweepReport, metric: str
) -> tuple[list[str], list[list[float]]]:
    """Reshapes one metric into plot-ready columns: x = m, one column
    per kind.  metric is one of exact_rate / mean_nrse / effective_rate."""
    if metric not in ("exact_rate", "mean_nrse", "effective_rate"):
        raise ValueError(f"unknown metric {metric!r}")
    header = ["m"] + list(report.kinds)
    cells = {(r.kind, r.m): getattr(r, metric) for r in report.rows}
    table = []
    for m in report.m_values:
        table.append([float(m)] + [cells.get((k, m), np.nan) for k in report.kinds])
    return header, table
