"""Synthetic multipath channels and their sparse beamspace representation.

A uniform-linear-array channel is a weighted sum of steering vectors.
Multiplying by the unitary DFT grid matrix turns it into a beamspace
vector that is sparse when the number of propagation paths is small.
Every path lies on the DFT grid, so a channel with gains g_i at grid
indices k_i has the beamspace vector sqrt(N/P) * g_i at k_i, exactly
zero elsewhere: generate_dataset writes it directly.  The antenna route
(steering vectors times the DFT grid matrix) is the reference it
matches; it lives in the tests (tests/reference_channels.py).  The real
pipeline stacks real on imaginary parts and rescales the nonzero
entries into [floor, 1] so they sit in the working range of the
autoencoder and of the recovery threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelConfig:
    """Physical parameters of the synthetic channel generator.

    The array is a half-wavelength ULA, so its N grid directions are
    (k - (N-1)/2)/N.  Path directions are drawn from the DFT
    grid without replacement, so every beamspace vector is exactly
    sparse.  Path gains are circularly symmetric complex Gaussian with
    unit variance.
    """

    num_antennas: int
    num_paths: int
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


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-sample stream: order-independent and reproducible."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _draw_indices(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Grid indices of the paths, distinct; drawn before the gains."""
    return rng.choice(cfg.num_antennas, size=cfg.num_paths, replace=False)


def _draw_gains(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    re = rng.standard_normal(cfg.num_paths)
    im = rng.standard_normal(cfg.num_paths)
    return (re + 1j * im) / math.sqrt(2.0)


def preprocess(values: np.ndarray, floor: float = 0.1) -> np.ndarray:
    """Map the nonzero entries of each row affinely onto [floor, 1].

    values is one vector or an (n, width) block mapped row by row.  In
    each row the signed minimum nonzero lands on floor and the maximum
    on 1; a row whose nonzeros are all equal maps them to 1, and zeros
    stay 0.  A positive floor keeps the smallest nonzero strictly away
    from 0 so the support is preserved exactly.  floor=0 is the plain
    [0, 1] map: the minimum nonzero lands on exactly 0 and leaves the
    support.
    """
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must lie in [0, 1)")
    values = np.asarray(values, dtype=float)
    support = values != 0.0
    lo = np.min(values, axis=-1, keepdims=True, initial=np.inf, where=support)
    hi = np.max(values, axis=-1, keepdims=True, initial=-np.inf, where=support)
    spread = hi > lo  # False for a row without two distinct nonzeros
    # floor + (1 - floor) * (v - lo) / (hi - lo), in place: one block of
    # working memory
    out = values - lo
    out *= 1.0 - floor
    out /= np.where(spread, hi - lo, 1.0)
    out += floor
    # the clamp absorbs one-ulp overshoot of floor + (1 - floor)
    np.minimum(out, 1.0, out=out)
    np.copyto(out, 1.0, where=~spread)
    np.copyto(out, 0.0, where=~support)
    return out


@dataclass(frozen=True)
class ChannelDataset:
    """Preprocessed real channel vectors with a deterministic split.

    samples is (n, 2N) with every entry in {0} u [floor, 1].  The split
    is contiguous: train, then dev, then test.
    """

    samples: np.ndarray
    num_train: int
    num_dev: int
    num_test: int
    config: ChannelConfig
    ratios: tuple[float, float, float]
    floor: float

    def __post_init__(self) -> None:
        n = self.samples.shape[0]
        if self.num_train + self.num_dev + self.num_test != n:
            raise ValueError("split sizes must sum to the number of samples")

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
) -> ChannelDataset:
    """Generate, preprocess, and split a dataset of stacked beamspace vectors.

    Each sample derives its own counter-based stream from (cfg.seed, index),
    so generation is a pure function of the config and is order-independent.
    Sample i holds the beamspace vector of the paths drawn from
    sample_rng(cfg.seed, i), built without the DFT product.
    """
    if num_samples < 10:
        raise ValueError("num_samples must be at least 10")
    n_train, n_dev, n_test = split_sizes(num_samples, ratios)

    indices = np.empty((num_samples, cfg.num_paths), dtype=np.intp)
    gains = np.empty((num_samples, cfg.num_paths), dtype=complex)
    for i in range(num_samples):
        rng = sample_rng(cfg.seed, i)
        indices[i] = _draw_indices(cfg, rng)
        gains[i] = _draw_gains(cfg, rng)
    gains *= math.sqrt(cfg.num_antennas / cfg.num_paths)
    # the stacked beamspace block: real parts at the drawn indices,
    # imaginary parts N entries later
    samples = np.zeros((num_samples, 2 * cfg.num_antennas))
    rows = np.arange(num_samples)[:, None]
    samples[rows, indices] = gains.real
    samples[rows, indices + cfg.num_antennas] = gains.imag

    return ChannelDataset(
        samples=preprocess(samples, floor),
        num_train=n_train,
        num_dev=n_dev,
        num_test=n_test,
        config=cfg,
        ratios=tuple(ratios),
        floor=floor,
    )
