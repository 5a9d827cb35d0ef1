"""Recovery metrics and (matrix kind x m) sweep evaluation.

All metrics operate in the preprocessed domain, where compression,
recovery, and the exact-recovery threshold are defined.  A sweep cell
compresses every test sample with one matrix, recovers each with basis
pursuit, and computes all three metrics from that single solver pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .channels import AngleMode, ChannelDataset
from .matrices import COMPLEX_KINDS, MatrixKind, MeasurementMatrix, generate_baseline
from .recovery import BasisPursuitSolver, RecoveryConfig, RecoveryStatus

_FAILURE_NOTE_THRESHOLD = 0.5


@dataclass(frozen=True)
class MetricConfig:
    """Metric conventions: exact-recovery tolerance, the transmission
    block length that prices each measurement, and the rate ceiling the
    effective rate is measured against (normalized to 1)."""

    exact_tol: float = 1e-8
    block_length: int = 200
    base_rate: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.exact_tol < np.inf:
            raise ValueError("exact_tol must be positive and finite")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if not 0 < self.base_rate < np.inf:
            raise ValueError("base_rate must be positive and finite")


@dataclass(frozen=True)
class MatrixSpec:
    """One sweep participant: a matrix family and its generation seed.

    Learned matrices are trained elsewhere and passed in as checkpoints,
    so their seed here is ignored.
    """

    kind: MatrixKind
    seed: int = 0


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


def effective_rate(p: float, m: int, block_length: int, base_rate: float) -> float:
    """Achievable rate after spending m of block_length symbols on
    measurement: base_rate * (1 - m/block_length) * p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"recovery rate must lie in [0, 1], got {p}")
    if not 0 < m < block_length:
        raise ValueError(f"need 0 < m < block_length, got m={m}, B={block_length}")
    return base_rate * (1.0 - m / block_length) * p


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
    """Baseline matrix for one sweep cell, at any m.

    The complex kinds realify row pairs and so only generate even row
    counts directly.  A sweep grid prices measurements one real row at a
    time, so odd m must still produce a cell: take the first m rows of
    the even (m+1)-row draw, i.e. (m-1)/2 full [Re; Im] pairs plus the
    real part of one final complex row.  Even m is passed through
    unchanged, so grids that avoid odd m keep their exact draws.
    """
    if kind in COMPLEX_KINDS and m % 2 != 0:
        full = generate_baseline(kind, m + 1, n, seed)
        return MeasurementMatrix(full.data[:m], kind, seed, full.num_angles)
    return generate_baseline(kind, m, n, seed)


def run_sweep(
    dataset: ChannelDataset,
    specs: Sequence[MatrixSpec],
    m_values: Sequence[int],
    recovery_cfg: RecoveryConfig,
    metric_cfg: MetricConfig,
    learned: Mapping[int, MeasurementMatrix] | None = None,
) -> SweepReport:
    """Evaluates every (matrix kind, m) cell on the dataset's test split.

    A learned checkpoint missing for some m produces an explicit gap row
    rather than a silent omission or an abort; a cell whose solver
    reports non-optimal on more than half the samples gets a diagnostic
    note.  Deterministic given seeds (wall-clock lives only in `seconds`).
    Off-grid datasets are rejected: their vectors are not sparse, so the
    exact-recovery rate would read 0 whatever the matrix.
    """
    import time

    if dataset.config.angle_mode is not AngleMode.ON_GRID:
        raise ValueError(
            f"{dataset.config.angle_mode.value} data has no sparse ground "
            "truth for exact recovery; sweep needs on_grid data"
        )
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
    seen = set()
    for spec in specs:
        if spec.kind in seen:
            raise ValueError(f"duplicate matrix kind {spec.kind.value}")
        seen.add(spec.kind)

    learned = dict(learned) if learned else {}
    rows: list[SweepRow] = []
    notes: list[str] = []
    for spec in specs:
        for m in m_values:
            if spec.kind is MatrixKind.LEARNED:
                matrix = learned.get(m)
                if matrix is None:
                    rows.append(
                        SweepRow(
                            kind=spec.kind.value,
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
                if matrix.num_measurements != m or matrix.num_columns != dataset.width:
                    raise ValueError(
                        f"checkpoint for m={m} has shape "
                        f"{matrix.data.shape}, dataset width {dataset.width}"
                    )
                seed: int | None = None
            else:
                matrix = sweep_baseline(spec.kind, m, dataset.width, spec.seed)
                seed = spec.seed
            tic = time.perf_counter()
            estimates, failures = recover_all(matrix, test, recovery_cfg)
            seconds = time.perf_counter() - tic
            p = exact_recovery_rate(test, estimates, metric_cfg.exact_tol)
            nrse, excluded = mean_nrse(test, estimates)
            note = ""
            if failures > _FAILURE_NOTE_THRESHOLD * test.shape[0]:
                note = f"solver non-optimal on {failures}/{test.shape[0]} samples"
                notes.append(f"{spec.kind.value} m={m}: {note}")
            rows.append(
                SweepRow(
                    kind=spec.kind.value,
                    m=m,
                    exact_rate=p,
                    mean_nrse=nrse,
                    nrse_excluded=excluded,
                    effective_rate=effective_rate(
                        p, m, metric_cfg.block_length, metric_cfg.base_rate
                    ),
                    num_samples=test.shape[0],
                    seed=seed,
                    solver_failures=failures,
                    note=note,
                    seconds=seconds,
                )
            )

    report = SweepReport(
        rows=rows,
        m_values=m_values,
        kinds=tuple(s.kind.value for s in specs),
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
