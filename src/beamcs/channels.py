"""Synthetic multipath channels and their sparse beamspace representation.

A uniform-linear-array channel is a weighted sum of steering vectors.
Multiplying by the unitary DFT grid matrix turns it into a beamspace
vector that is sparse when the number of propagation paths is small.
The real pipeline below stacks real on imaginary parts and rescales the
nonzero entries into [floor, 1] so they sit in the working range of the
autoencoder and of the recovery threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class AngleMode(enum.Enum):
    """How path directions are drawn.

    ON_GRID samples directions from the DFT grid without replacement,
    which makes the beamspace vector exactly sparse.  OFF_GRID samples
    continuous directions; the beamspace vector then has full support
    (leakage), which is incompatible with the exact-recovery metric, so
    run_sweep rejects it.
    """

    ON_GRID = "on_grid"
    OFF_GRID = "off_grid"


class GainModel(enum.Enum):
    """Complex path gain distribution."""

    COMPLEX_GAUSSIAN = "complex_gaussian"  # circularly symmetric, unit variance
    UNIT = "unit"  # deterministic gain 1, for tests and debugging


@dataclass(frozen=True)
class ChannelConfig:
    """Physical parameters of the synthetic channel generator.

    The array is a half-wavelength ULA; that spacing is built into the
    steering and grid formulas.
    """

    num_antennas: int
    num_paths: int
    angle_mode: AngleMode = AngleMode.ON_GRID
    gain_model: GainModel = GainModel.COMPLEX_GAUSSIAN
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {self.num_antennas}")
        if not 1 <= self.num_paths <= self.num_antennas:
            raise ValueError(
                f"num_paths must be in [1, {self.num_antennas}], got {self.num_paths}"
            )
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class SpatialChannel:
    """Antenna-domain channel: coefficient vector plus its generating paths."""

    coeffs: np.ndarray  # complex, shape (N,)
    paths: tuple[tuple[complex, float], ...]  # (gain, spatial direction)


@dataclass(frozen=True)
class PreprocessParams:
    """Per-sample affine rescaling of the nonzero entries.

    min_nz/max_nz are the signed extremes of the nonzero entries before
    rescaling; min_nz == max_nz == 0 is the sentinel for an all-zero
    sample (the map was the identity).
    """

    min_nz: float
    max_nz: float
    floor: float
    zero_tol: float

    def __post_init__(self) -> None:
        if self.max_nz < self.min_nz:
            raise ValueError("max_nz must be >= min_nz")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must lie in [0, 1)")
        if not 0.0 <= self.zero_tol < np.inf:
            raise ValueError("zero_tol must be nonnegative and finite")

    @property
    def is_sentinel(self) -> bool:
        return self.min_nz == 0.0 and self.max_nz == 0.0

    def as_row(self) -> np.ndarray:
        return np.array([self.min_nz, self.max_nz, self.floor, self.zero_tol])

    @classmethod
    def from_row(cls, row: np.ndarray) -> "PreprocessParams":
        return cls(float(row[0]), float(row[1]), float(row[2]), float(row[3]))


def steering_vector(phi: float, num_antennas: int) -> np.ndarray:
    """Array response of an N-element half-wavelength ULA toward direction phi.

    Entry n is exp(-j*2*pi*phi*(n - (N-1)/2)) / sqrt(N), so the vector
    always has unit 2-norm.
    """
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    n = np.arange(num_antennas) - (num_antennas - 1) / 2.0
    return np.exp(-2j * np.pi * phi * n) / math.sqrt(num_antennas)


def grid_directions(num_antennas: int) -> np.ndarray:
    """The N spatial directions predefined by the array, (m - (N-1)/2)/N."""
    if num_antennas < 1:
        raise ValueError("num_antennas must be >= 1")
    m = np.arange(num_antennas)
    return (m - (num_antennas - 1) / 2.0) / num_antennas


def dft_grid_matrix(num_antennas: int) -> np.ndarray:
    """Unitary N x N matrix whose row m is the conjugate of the m-th grid steering vector.

    Applying it to a steering vector aligned with grid direction m yields
    the m-th standard basis vector.
    """
    n = np.arange(num_antennas) - (num_antennas - 1) / 2.0
    phis = grid_directions(num_antennas)
    # Row m = steering_vector(phis[m])^H.
    return np.exp(2j * np.pi * np.outer(phis, n)) / math.sqrt(num_antennas)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: order-independent and reproducible."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _draw_directions(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.angle_mode is AngleMode.ON_GRID:
        grid = grid_directions(cfg.num_antennas)
        return rng.choice(grid, size=cfg.num_paths, replace=False)
    return rng.uniform(-0.5, 0.5, size=cfg.num_paths)


def _draw_gains(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.gain_model is GainModel.COMPLEX_GAUSSIAN:
        re = rng.standard_normal(cfg.num_paths)
        im = rng.standard_normal(cfg.num_paths)
        return (re + 1j * im) / math.sqrt(2.0)
    return np.ones(cfg.num_paths, dtype=complex)


def generate_spatial_channel(
    cfg: ChannelConfig, rng: np.random.Generator
) -> SpatialChannel:
    """Draw one multipath channel: sqrt(N/P) * sum_i gain_i * steering(phi_i)."""
    directions = _draw_directions(cfg, rng)
    gains = _draw_gains(cfg, rng)
    n = np.arange(cfg.num_antennas) - (cfg.num_antennas - 1) / 2.0
    # Columns are steering vectors for the drawn directions.
    steering = np.exp(-2j * np.pi * np.outer(n, directions)) / math.sqrt(
        cfg.num_antennas
    )
    scale = math.sqrt(cfg.num_antennas / cfg.num_paths)
    coeffs = scale * (steering @ gains)
    paths = tuple(
        (complex(g), float(phi)) for g, phi in zip(gains, directions)
    )
    return SpatialChannel(coeffs=coeffs, paths=paths)


def to_beamspace(coeffs: np.ndarray, grid_matrix: np.ndarray) -> np.ndarray:
    """Transform an antenna-domain vector into the beamspace domain."""
    coeffs = np.asarray(coeffs)
    if grid_matrix.ndim != 2 or grid_matrix.shape[1] != coeffs.shape[0]:
        raise ValueError(
            f"dimension mismatch: grid {grid_matrix.shape} vs coeffs {coeffs.shape}"
        )
    return grid_matrix @ coeffs


def stack_real(coeffs: np.ndarray) -> np.ndarray:
    """Stack a complex N-vector into a real 2N-vector, real part first."""
    coeffs = np.asarray(coeffs)
    return np.concatenate([coeffs.real, coeffs.imag])


def unstack_real(values: np.ndarray) -> np.ndarray:
    """Inverse of stack_real.  Rejects odd-length input."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.shape[0] % 2 != 0:
        raise ValueError(f"expected an even-length real vector, got shape {values.shape}")
    half = values.shape[0] // 2
    return values[:half] + 1j * values[half:]


def preprocess(
    values: np.ndarray, floor: float = 0.1, zero_tol: float = 1e-12
) -> tuple[np.ndarray, PreprocessParams]:
    """Map nonzero entries affinely onto [floor, 1]; zero out sub-tolerance entries.

    A positive floor keeps the smallest nonzero strictly away from 0 so
    the support is preserved exactly.  floor=0 is the plain [0, 1] map:
    the minimum nonzero lands on exactly 0 and leaves the support, so
    inversion can no longer restore it.  Returns the rescaled vector and
    the per-sample parameters needed to invert the map.
    """
    values = np.asarray(values, dtype=float)
    mask = np.abs(values) > zero_tol
    out = np.zeros_like(values)
    if not mask.any():
        return out, PreprocessParams(0.0, 0.0, floor, zero_tol)
    nz = values[mask]
    min_nz = float(nz.min())
    max_nz = float(nz.max())
    if max_nz == min_nz:
        out[mask] = 1.0
    else:
        # the clamp absorbs one-ulp overshoot of floor + (1 - floor)
        scaled = floor + (1.0 - floor) * (nz - min_nz) / (max_nz - min_nz)
        out[mask] = np.minimum(scaled, 1.0)
    return out, PreprocessParams(min_nz, max_nz, floor, zero_tol)


def invert_preprocess(values: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """Exact inverse of preprocess on the support."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if params.is_sentinel:
        return out
    mask = values != 0.0
    if params.max_nz == params.min_nz:
        out[mask] = params.min_nz
    else:
        out[mask] = params.min_nz + (values[mask] - params.floor) * (
            params.max_nz - params.min_nz
        ) / (1.0 - params.floor)
    return out


@dataclass(frozen=True)
class ChannelDataset:
    """Preprocessed real channel vectors with a deterministic split.

    samples is (n, 2N) with every entry in {0} u [floor, 1]; params row i
    holds the PreprocessParams of sample i as (min_nz, max_nz, floor,
    zero_tol).  The split is contiguous: train, then dev, then test.
    """

    samples: np.ndarray
    params: np.ndarray
    num_train: int
    num_dev: int
    num_test: int
    config: ChannelConfig
    ratios: tuple[float, float, float]
    floor: float
    zero_tol: float

    def __post_init__(self) -> None:
        n = self.samples.shape[0]
        if self.num_train + self.num_dev + self.num_test != n:
            raise ValueError("split sizes must sum to the number of samples")
        if self.params.shape != (n, 4):
            raise ValueError("params must have one 4-entry row per sample")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        """Length of each stacked real vector (2N)."""
        return self.samples.shape[1]

    @property
    def train(self) -> np.ndarray:
        return self.samples[: self.num_train]

    @property
    def dev(self) -> np.ndarray:
        return self.samples[self.num_train : self.num_train + self.num_dev]

    @property
    def test(self) -> np.ndarray:
        return self.samples[self.num_train + self.num_dev :]

    def sample_params(self, index: int) -> PreprocessParams:
        return PreprocessParams.from_row(self.params[index])


def split_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Deterministic train/dev/test sizes; remainder goes to the test split."""
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    if any(r < 0 for r in ratios):
        raise ValueError("split ratios must be nonnegative")
    n_train = int(math.floor(n * ratios[0] + 1e-9))
    n_dev = int(math.floor(n * ratios[1] + 1e-9))
    return n_train, n_dev, n - n_train - n_dev


def generate_dataset(
    cfg: ChannelConfig,
    num_samples: int,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    floor: float = 0.1,
    zero_tol: float = 1e-12,
) -> ChannelDataset:
    """Generate, preprocess, and split a dataset of stacked beamspace vectors.

    Each sample derives its own counter-based stream from (cfg.seed, index),
    so generation is a pure function of the config and is order-independent.
    """
    if num_samples < 10:
        raise ValueError("num_samples must be at least 10")
    n_train, n_dev, n_test = split_sizes(num_samples, ratios)
    grid = dft_grid_matrix(cfg.num_antennas)

    spatial = np.empty((num_samples, cfg.num_antennas), dtype=complex)
    for i in range(num_samples):
        spatial[i] = generate_spatial_channel(cfg, sample_rng(cfg.seed, i)).coeffs
    beam = spatial @ grid.T  # row i is grid @ spatial[i]

    width = 2 * cfg.num_antennas
    samples = np.empty((num_samples, width))
    params = np.empty((num_samples, 4))
    for i in range(num_samples):
        stacked = stack_real(beam[i])
        samples[i], p = preprocess(stacked, floor=floor, zero_tol=zero_tol)
        params[i] = p.as_row()

    return ChannelDataset(
        samples=samples,
        params=params,
        num_train=n_train,
        num_dev=n_dev,
        num_test=n_test,
        config=cfg,
        ratios=tuple(ratios),
        floor=floor,
        zero_tol=zero_tol,
    )
