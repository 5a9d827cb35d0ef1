"""Measurement matrices: the five random baselines plus the learned kind.

A MeasurementMatrix is a validated read-only float64 copy of a real
m x n map with m < n.  generate_baseline draws the five random kinds; a
trained model's matrix is MeasurementMatrix(model.phi), which widens
its float32 Phi.  The two complex constructions (partial Fourier and
phase shifter) are realified by expanding each complex row into two
real rows (real part, imaginary part), so m real measurements carry m/2
complex ones; an odd m keeps only the real part of the last complex
row.

Those complex rows have n entries and act on the stacked real channel
vector [Re h; Im h] of length n, which is what every kind measures: row
pair k gives Re and Im of phi_k . [Re h; Im h].  They are not an
(m/2) x (n/2) complex operator Phi_c = A + jB applied to the complex
channel h, whose realified form would be the rows [A, -B] and [B, A].
Which of the two the paper's baselines are is not settled here; the
choice changes the baseline rows of a sweep and stays open.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class MatrixKind(enum.Enum):
    LEARNED = "learned"
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"
    PARTIAL_FOURIER = "partial_fourier"
    SELECTION = "selection"
    PHASE_SHIFTER = "phase_shifter"


# Stable numeric tags that separate the RNG streams of the baseline kinds.
KIND_TAGS: dict[MatrixKind, int] = {
    MatrixKind.GAUSSIAN: 1,
    MatrixKind.BERNOULLI: 2,
    MatrixKind.PARTIAL_FOURIER: 3,
    MatrixKind.SELECTION: 4,
    MatrixKind.PHASE_SHIFTER: 5,
}

# Quantized phase-shifter levels: xi is drawn from 2*pi*k/PHASE_LEVELS.
PHASE_LEVELS = 4


@dataclass(frozen=True)
class MeasurementMatrix:
    """Immutable real m x n linear map, held as a float64 copy."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {data.shape}")
        if data.shape[0] >= data.shape[1]:
            raise ValueError(
                f"expected m < n, got shape {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("matrix entries must be finite")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def num_measurements(self) -> int:
        return self.data.shape[0]

    @property
    def num_columns(self) -> int:
        return self.data.shape[1]


def _kind_rng(kind: MatrixKind, seed: int) -> np.random.Generator:
    # Separate stream per kind so one seed yields independent baselines.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(KIND_TAGS[kind],))
    )


def realify_rows(complex_rows: np.ndarray) -> np.ndarray:
    """Expand each complex row into two real rows [Re; Im]."""
    half_m, n = complex_rows.shape
    out = np.empty((2 * half_m, n))
    out[0::2] = complex_rows.real
    out[1::2] = complex_rows.imag
    return out


def generate_baseline(
    kind: MatrixKind,
    num_measurements: int,
    num_columns: int,
    seed: int = 0,
) -> MeasurementMatrix:
    """Construct one of the five random baseline matrices.

    Entry conventions: Gaussian entries are N(0, 1/m); Bernoulli entries
    are +-1/sqrt(m); selection entries are 0/1 equiprobable; partial
    Fourier draws distinct rows k of the unitary n-point DFT from
    1 <= k <= (n-1)/2, a set free of real rows (k = 0, n/2) and of
    conjugate pairs (k, n-k), so its realified rows are orthogonal
    (Phi Phi^T = I/2) and Phi has full rank m; phase shifter entries
    are exp(j*xi)/sqrt(n) with xi uniform over PHASE_LEVELS quantized
    phases.  The complex kinds draw ceil(m/2) complex rows and keep the
    first m real rows, so an odd m is the first m rows of the m+1 draw.
    Deterministic in (kind, m, n, seed).
    """
    m, n = num_measurements, num_columns
    if kind is MatrixKind.LEARNED:
        raise ValueError("learned matrices come from training, not generation")
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    half_m = (m + 1) // 2
    if kind is MatrixKind.PARTIAL_FOURIER and half_m > (n - 1) // 2:
        raise ValueError(
            f"partial_fourier has {(n - 1) // 2} usable DFT rows at n={n}, "
            f"too few for m={m}"
        )

    rng = _kind_rng(kind, seed)
    if kind is MatrixKind.GAUSSIAN:
        data = rng.standard_normal((m, n)) / math.sqrt(m)
    elif kind is MatrixKind.BERNOULLI:
        data = (2.0 * rng.integers(0, 2, size=(m, n)) - 1.0) / math.sqrt(m)
    elif kind is MatrixKind.SELECTION:
        data = rng.integers(0, 2, size=(m, n)).astype(float)
    elif kind is MatrixKind.PARTIAL_FOURIER:
        rows = 1 + rng.choice((n - 1) // 2, size=half_m, replace=False)
        cols = np.arange(n)
        dft_rows = np.exp(-2j * np.pi * np.outer(rows, cols) / n) / math.sqrt(n)
        data = realify_rows(dft_rows)[:m]
    elif kind is MatrixKind.PHASE_SHIFTER:
        xi = rng.integers(0, PHASE_LEVELS, (half_m, n)) * (2 * np.pi / PHASE_LEVELS)
        data = realify_rows(np.exp(1j * xi) / math.sqrt(n))[:m]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown kind {kind}")

    return MeasurementMatrix(data)

