import numpy as np
import pytest

from beamcs import AngleMode, ChannelConfig, generate_dataset


@pytest.fixture(scope="session")
def tiny_dataset():
    """60 samples at N=8, P=2; big enough for a 48/6/6 split."""
    cfg = ChannelConfig(
        num_antennas=8,
        num_paths=2,
        angle_mode=AngleMode.ON_GRID,
        seed=11,
    )
    return generate_dataset(cfg, 60)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
