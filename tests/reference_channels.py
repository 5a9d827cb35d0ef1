"""The antenna-domain channel the package's beamspace data must match.

A uniform-linear-array channel is a weighted sum of steering vectors;
the unitary DFT grid matrix turns it into a beamspace vector.  Every
path lies on the DFT grid, so that product is exactly sparse, and
generate_dataset writes it directly without the product.  The tests
build the same channels here, from the same per-sample draws, and check
generate_dataset against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from beamcs.channels import ChannelConfig, _draw_gains, _draw_indices


@dataclass(frozen=True)
class SpatialChannel:
    """Antenna-domain channel: coefficient vector plus its generating paths."""

    coeffs: np.ndarray  # complex, shape (N,)
    paths: tuple[tuple[complex, float], ...]  # (gain, spatial direction)


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


def generate_spatial_channel(
    cfg: ChannelConfig, rng: np.random.Generator
) -> SpatialChannel:
    """Draw one multipath channel: sqrt(N/P) * sum_i gain_i * steering(phi_i)."""
    directions = grid_directions(cfg.num_antennas)[_draw_indices(cfg, rng)]
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
