import numpy as np
import pytest

from beamcs import ChannelConfig, generate_dataset


@pytest.fixture(scope="session")
def tiny_dataset():
    """60 samples at N=8, P=2; big enough for a 48/6/6 split."""
    return generate_dataset(ChannelConfig(num_antennas=8, num_paths=2, seed=11), 60)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
