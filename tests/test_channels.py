import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcs import ChannelConfig, generate_dataset, preprocess
from beamcs.channels import sample_rng, split_sizes
from reference_channels import (
    dft_grid_matrix,
    generate_spatial_channel,
    grid_directions,
    stack_real,
    steering_vector,
    unstack_real,
)


def test_steering_vector_entries():
    # entry n = exp(-j 2 pi phi (n - (N-1)/2)) / sqrt(N)
    phi, n_ant = 0.3, 5
    v = steering_vector(phi, n_ant)
    for n in range(n_ant):
        expected = np.exp(-2j * np.pi * phi * (n - 2.0)) / math.sqrt(5)
        assert v[n] == pytest.approx(expected, abs=1e-15)


@given(st.floats(min_value=-0.5, max_value=0.5), st.integers(1, 64))
def test_steering_vector_unit_norm(phi, n_ant):
    assert abs(np.linalg.norm(steering_vector(phi, n_ant)) - 1.0) <= 1e-12


def test_grid_directions_values():
    assert np.allclose(grid_directions(4), [-0.375, -0.125, 0.125, 0.375])
    # always inside [-1/2, 1/2) and symmetric about 0
    g = grid_directions(33)
    assert g.min() >= -0.5 and g.max() < 0.5
    assert abs(g.sum()) < 1e-12


@pytest.mark.parametrize("n_ant", [1, 2, 7, 16, 33])
def test_dft_grid_matrix_unitary(n_ant):
    u = dft_grid_matrix(n_ant)
    assert np.max(np.abs(u @ u.conj().T - np.eye(n_ant))) <= 1e-10


def test_dft_grid_rows_are_conjugate_steering():
    n_ant = 9
    u = dft_grid_matrix(n_ant)
    for m, phi in enumerate(grid_directions(n_ant)):
        assert np.allclose(u[m], steering_vector(phi, n_ant).conj(), atol=1e-14)


def test_grid_steering_maps_to_basis_vector():
    n_ant = 16
    u = dft_grid_matrix(n_ant)
    phis = grid_directions(n_ant)
    beam = u @ steering_vector(phis[5], n_ant)
    expected = np.zeros(n_ant)
    expected[5] = 1.0
    assert np.allclose(beam, expected, atol=1e-12)


def test_on_grid_channel_is_exactly_sparse():
    cfg = ChannelConfig(num_antennas=32, num_paths=3, seed=4)
    u = dft_grid_matrix(32)
    for i in range(20):
        ch = generate_spatial_channel(cfg, sample_rng(cfg.seed, i))
        beam = u @ ch.coeffs
        support = np.abs(beam) > 1e-10
        assert support.sum() <= 3
        # everything off the support is numerically zero, not just small
        assert np.max(np.abs(beam[~support])) <= 1e-12


def test_channel_scale_unit_gain():
    # single path on the grid: beamspace peak is sqrt(N/P) * |gain| exactly
    cfg = ChannelConfig(num_antennas=16, num_paths=1, seed=0)
    u = dft_grid_matrix(16)
    ch = generate_spatial_channel(cfg, sample_rng(cfg.seed, 0))
    beam = u @ ch.coeffs
    ((gain, _),) = ch.paths
    assert np.max(np.abs(beam)) == pytest.approx(
        math.sqrt(16.0) * abs(gain), abs=1e-10
    )


def test_channel_paths_recorded():
    cfg = ChannelConfig(num_antennas=8, num_paths=3, seed=1)
    ch = generate_spatial_channel(cfg, sample_rng(cfg.seed, 0))
    assert len(ch.paths) == 3
    grid = set(np.round(grid_directions(8), 12))
    for _, phi in ch.paths:
        assert round(phi, 12) in grid


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=40,
    ).filter(lambda v: len(v) % 2 == 0)
)
def test_stack_unstack_round_trip(values):
    z = unstack_real(np.asarray(values))
    assert np.array_equal(stack_real(z), np.asarray(values))


def test_unstack_rejects_odd_length():
    with pytest.raises(ValueError):
        unstack_real(np.ones(5))


@settings(max_examples=200)
@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_preprocess_direct_map(values, floor):
    # zeros stay 0; the nonzeros map affinely, order kept, the minimum
    # to floor and the maximum to 1
    x = np.asarray(values)
    out = preprocess(x, floor=floor)
    keep = x != 0.0
    assert np.all(out[~keep] == 0.0)
    if not keep.any():
        return
    nz, got = x[keep], out[keep]
    lo, hi = nz.min(), nz.max()
    if lo == hi:
        assert np.all(got == 1.0)
        return
    want = floor + (1.0 - floor) * (nz - lo) / (hi - lo)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert got[nz.argmin()] == floor
    assert got[nz.argmax()] == pytest.approx(1.0, abs=1e-15)
    assert np.all((got >= floor) & (got <= 1.0))
    assert np.all(np.diff(got[np.argsort(nz)]) >= 0.0)


def test_preprocess_all_zero_sample():
    assert np.array_equal(preprocess(np.zeros(6)), np.zeros(6))


def test_preprocess_zero_floor_drops_minimum():
    # floor=0 is the plain [0, 1] map: the minimum nonzero becomes
    # exactly 0 and leaves the support.
    x = np.array([0.0, -2.0, 4.0, 1.0, 0.0])
    out = preprocess(x, floor=0.0)
    assert out[1] == 0.0
    assert out[2] == 1.0
    assert out[3] == pytest.approx(0.5)
    assert np.count_nonzero(out) == 2


def test_preprocess_zero_floor_sparsity():
    # with distinct nonzeros exactly one entry collapses per sample
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = np.zeros(16)
        idx = rng.choice(16, size=6, replace=False)
        x[idx] = rng.standard_normal(6)
        out = preprocess(x, floor=0.0)
        assert np.count_nonzero(out) == 5


def test_preprocess_constant_nonzeros_map_to_one():
    out = preprocess(np.array([3.0, 0.0, 3.0]))
    assert np.array_equal(out, [1.0, 0.0, 1.0])


def test_preprocess_keeps_tiny_nonzeros():
    # every nonzero is in the support, however small
    out = preprocess(np.array([1e-300, 0.0, -2.0, 1.0]), floor=0.1)
    assert out[0] > 0.1 and out[1] == 0.0 and np.count_nonzero(out) == 3


@pytest.mark.parametrize("floor", [0.0, 0.1])
def test_preprocess_block_equals_its_rows(floor):
    rng = np.random.default_rng(3)
    block = rng.standard_normal((7, 12))
    block[rng.random(block.shape) < 0.6] = 0.0
    block[2] = 0.0  # all-zero row
    block[4:6] = 0.0
    block[4, 5] = -0.3  # single nonzero
    block[5, [1, 8]] = 2.5  # equal nonzeros only
    out = preprocess(block, floor)
    assert out.shape == block.shape
    for row, got in zip(block, out):
        assert got.tobytes() == preprocess(row, floor).tobytes()
    assert np.all(out[2] == 0.0)
    assert out[4, 5] == 1.0 and np.count_nonzero(out[4]) == 1
    assert np.array_equal(out[5] != 0.0, block[5] != 0.0)


def test_preprocess_signed_extremes():
    # signed min maps to floor, signed max to 1
    x = np.array([-2.0, 0.0, 5.0, 1.0])
    out = preprocess(x, floor=0.1)
    assert out[0] == pytest.approx(0.1)
    assert out[2] == pytest.approx(1.0)
    assert out[3] == pytest.approx(0.1 + 0.9 * 3.0 / 7.0)


def test_split_sizes():
    assert split_sizes(20000, (0.8, 0.1, 0.1)) == (16000, 2000, 2000)
    n_train, n_dev, n_test = split_sizes(17, (0.8, 0.1, 0.1))
    assert n_train + n_dev + n_test == 17
    with pytest.raises(ValueError, match="must sum to 1"):
        split_sizes(100, (0.5, 0.1, 0.1))
    with pytest.raises(ValueError, match="must sum to 1"):
        split_sizes(100, (float("nan"), 0.0, 1.0))
    with pytest.raises(ValueError, match="must be nonnegative"):
        split_sizes(100, (1.2, -0.1, -0.1))


def test_generate_dataset_shapes_and_values(tiny_dataset):
    ds = tiny_dataset
    assert ds.samples.shape == (60, 16)
    assert (ds.num_train, ds.num_dev, ds.num_test) == (48, 6, 6)
    assert ds.width == 16
    # every entry is 0 or inside [floor, 1]
    nz = ds.samples != 0.0
    assert np.all(ds.samples[nz] >= ds.floor) and np.all(ds.samples[nz] <= 1.0)
    # stacked on-grid channels have at most 2P nonzeros
    assert np.count_nonzero(ds.samples, axis=1).max() <= 2 * ds.config.num_paths


def test_generate_dataset_split_views(tiny_dataset):
    ds = tiny_dataset
    assert np.array_equal(ds.train, ds.samples[:48])
    assert np.array_equal(ds.dev, ds.samples[48:54])
    assert np.array_equal(ds.test, ds.samples[54:])


def test_generate_dataset_deterministic():
    cfg = ChannelConfig(num_antennas=8, num_paths=2, seed=11)
    a = generate_dataset(cfg, 60)
    b = generate_dataset(cfg, 60)
    assert np.array_equal(a.samples, b.samples)


def test_generate_dataset_per_sample_streams():
    # sample i depends only on (seed, i), not on how many samples are drawn
    cfg = ChannelConfig(num_antennas=8, num_paths=2, seed=11)
    small = generate_dataset(cfg, 20)
    large = generate_dataset(cfg, 40)
    assert np.array_equal(small.samples, large.samples[:20])


def test_generate_dataset_seed_changes_data():
    a = generate_dataset(ChannelConfig(num_antennas=8, num_paths=2, seed=0), 20)
    b = generate_dataset(ChannelConfig(num_antennas=8, num_paths=2, seed=1), 20)
    assert not np.array_equal(a.samples, b.samples)


def _dense_samples(cfg, num_samples, floor):
    """The antenna-domain route: each channel times the DFT grid, its
    ~1e-16 rounding off the drawn beams set to 0, then preprocessed."""
    u = dft_grid_matrix(cfg.num_antennas)
    beams = np.array([
        stack_real(u @ generate_spatial_channel(cfg, sample_rng(cfg.seed, i)).coeffs)
        for i in range(num_samples)
    ])
    assert np.sum(np.abs(beams) > 1e-12, axis=1).max() <= 2 * cfg.num_paths
    beams[np.abs(beams) <= 1e-12] = 0.0
    return np.array([preprocess(beam, floor) for beam in beams])


def test_dataset_samples_are_preprocessed_channels(tiny_dataset):
    # the dataset holds the exact beamspace vectors, the dense route
    # carries rounding: the same support, values within 1e-12
    ds = tiny_dataset
    want = _dense_samples(ds.config, ds.num_samples, ds.floor)
    assert np.array_equal(ds.samples != 0.0, want != 0.0)
    assert np.max(np.abs(ds.samples - want)) <= 1e-12


# N=8 is the tiny_dataset case above
@pytest.mark.parametrize("n_ant, n_paths, floor", [(32, 2, 0.1), (256, 3, 0.0)])
def test_dataset_matches_the_dense_route(n_ant, n_paths, floor):
    cfg = ChannelConfig(num_antennas=n_ant, num_paths=n_paths, seed=5)
    ds = generate_dataset(cfg, 200, floor=floor)
    want = _dense_samples(cfg, 200, floor)
    assert np.array_equal(ds.samples != 0.0, want != 0.0)
    assert np.max(np.abs(ds.samples - want)) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(num_antennas=0, num_paths=1)
    with pytest.raises(ValueError):
        ChannelConfig(num_antennas=4, num_paths=5)
    with pytest.raises(ValueError):
        ChannelConfig(num_antennas=4, num_paths=1, seed=-1)
    with pytest.raises(ValueError):
        generate_dataset(ChannelConfig(num_antennas=4, num_paths=1), 5)
    # preprocess checks the floor for an all-zero sample as well
    for x in (np.array([-1.0, 1.0]), np.zeros(2), np.zeros((3, 2))):
        for bad in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="^floor must lie in"):
                preprocess(x, bad)
    with pytest.raises(ValueError, match="^floor must lie in"):
        generate_dataset(ChannelConfig(num_antennas=4, num_paths=1), 20, floor=1.0)
