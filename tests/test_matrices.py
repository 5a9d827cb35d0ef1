import math

import numpy as np
import pytest

from beamcs import MatrixKind, MeasurementMatrix, generate_baseline
from beamcs.evaluate import sweep_baseline
from beamcs.matrices import KIND_TAGS, PHASE_LEVELS, realify_rows

BASELINES = [k for k in MatrixKind if k is not MatrixKind.LEARNED]


def test_kind_tags_bijective():
    # one distinct tag per baseline kind: each draws from its own RNG stream
    assert set(KIND_TAGS) == set(BASELINES)
    assert sorted(KIND_TAGS.values()) == list(range(1, 6))


@pytest.mark.parametrize("kind", BASELINES)
def test_baseline_shape_and_determinism(kind):
    a = generate_baseline(kind, 8, 32, seed=3)
    b = generate_baseline(kind, 8, 32, seed=3)
    assert a.data.shape == (8, 32)
    assert np.array_equal(a.data, b.data)
    c = generate_baseline(kind, 8, 32, seed=4)
    assert not np.array_equal(a.data, c.data)


def test_kinds_use_separate_streams():
    # one seed must not yield correlated Gaussian and Bernoulli draws
    g = generate_baseline(MatrixKind.GAUSSIAN, 6, 20, seed=0)
    b = generate_baseline(MatrixKind.BERNOULLI, 6, 20, seed=0)
    assert not np.array_equal(np.sign(g.data), b.data * math.sqrt(6))


def test_gaussian_scale():
    mat = generate_baseline(MatrixKind.GAUSSIAN, 40, 400, seed=1)
    # entries ~ N(0, 1/m): sample std within 5% at 16k draws
    assert mat.data.std() == pytest.approx(1.0 / math.sqrt(40), rel=0.05)


def test_bernoulli_entries():
    mat = generate_baseline(MatrixKind.BERNOULLI, 9, 33, seed=2)
    assert np.array_equal(np.abs(mat.data), np.full((9, 33), 1.0 / 3.0))
    assert (mat.data > 0).any() and (mat.data < 0).any()


def test_selection_entries():
    mat = generate_baseline(MatrixKind.SELECTION, 9, 33, seed=2)
    assert set(np.unique(mat.data)) <= {0.0, 1.0}
    frac = mat.data.mean()
    assert 0.3 < frac < 0.7


def test_partial_fourier_rows():
    n = 24
    mat = generate_baseline(MatrixKind.PARTIAL_FOURIER, 8, n, seed=5)
    complex_rows = mat.data[0::2] + 1j * mat.data[1::2]
    # each row is one unitary-DFT row: unit norm, constant modulus
    assert np.allclose(np.linalg.norm(complex_rows, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.abs(complex_rows), 1.0 / math.sqrt(n), atol=1e-12)
    # distinct rows: pairwise orthogonal
    gram = complex_rows @ complex_rows.conj().T
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    # rows k in 1..(n-1)/2 hold no real row and no conjugate pair, so the
    # realified rows are orthogonal too
    assert np.allclose(mat.data @ mat.data.T, np.eye(8) / 2, atol=1e-12)


@pytest.mark.parametrize("n, m_values", [(512, range(20, 41)), (64, range(8, 17))])
def test_baselines_full_rank(n, m_values):
    # the paper and ci widths, odd m through the sweep's truncated draw;
    # basis pursuit rejects a rank-deficient draw, failing the whole sweep
    for kind in BASELINES:
        for m in m_values:
            for seed in range(20):
                data = sweep_baseline(kind, m, n, seed).data
                assert np.linalg.matrix_rank(data) == m, (kind, m, seed)


def test_phase_shifter_entries():
    n = 20
    mat = generate_baseline(MatrixKind.PHASE_SHIFTER, 6, n, seed=7)
    complex_rows = mat.data[0::2] + 1j * mat.data[1::2]
    assert np.allclose(np.abs(complex_rows), 1.0 / math.sqrt(n), atol=1e-12)
    phases = np.angle(complex_rows * math.sqrt(n))
    allowed = 2.0 * np.pi * np.arange(PHASE_LEVELS) / PHASE_LEVELS
    # compare on the unit circle to sidestep the -pi/pi wrap
    dist = np.abs(np.exp(1j * phases[..., None]) - np.exp(1j * allowed))
    assert dist.min(axis=-1).max() <= 1e-12


def test_realify_rows_interleaves():
    rows = np.array([[1 + 2j, 3 - 4j]])
    out = realify_rows(rows)
    assert np.array_equal(out, [[1.0, 3.0], [2.0, -4.0]])


@pytest.mark.parametrize("kind", [MatrixKind.PARTIAL_FOURIER, MatrixKind.PHASE_SHIFTER])
def test_complex_kinds_at_odd_m(kind):
    # an odd m keeps the real part of the last complex row: the first m
    # rows of the m+1 draw, from the same rng calls
    odd = generate_baseline(kind, 5, 32, seed=4)
    assert odd.data.shape == (5, 32)
    assert np.array_equal(odd.data, generate_baseline(kind, 6, 32, seed=4).data[:5])


def test_phase_shifter_at_m_n_minus_1():
    # 63 rows of a width-64 phase shifter: 31 [Re; Im] pairs and one Re row
    mat = sweep_baseline(MatrixKind.PHASE_SHIFTER, 63, 64, 0)
    assert mat.data.shape == (63, 64)
    assert np.allclose(np.abs(mat.data[:62:2] + 1j * mat.data[1:62:2]), 1 / 8)
    assert np.linalg.matrix_rank(mat.data) == 63


def test_partial_fourier_needs_enough_dft_rows():
    # 1 <= k <= (n-1)/2 holds 31 rows at n=64: m=62 fits, m=63 needs 32
    assert generate_baseline(MatrixKind.PARTIAL_FOURIER, 62, 64).data.shape == (62, 64)
    with pytest.raises(ValueError, match="^partial_fourier has 31 usable DFT rows at n=64, too few for m=63$"):
        sweep_baseline(MatrixKind.PARTIAL_FOURIER, 63, 64, 0)


def test_learned_kind_not_generable():
    with pytest.raises(ValueError, match="training"):
        generate_baseline(MatrixKind.LEARNED, 4, 16)


def test_generate_baseline_validates_dims():
    with pytest.raises(ValueError):
        generate_baseline(MatrixKind.GAUSSIAN, 0, 16)
    with pytest.raises(ValueError):
        generate_baseline(MatrixKind.GAUSSIAN, 16, 16)


def test_matrix_validation():
    with pytest.raises(ValueError):
        MeasurementMatrix(np.ones(4))
    with pytest.raises(ValueError):
        MeasurementMatrix(np.ones((4, 4)))
    bad = np.ones((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        MeasurementMatrix(bad)


def test_matrix_data_read_only():
    mat = generate_baseline(MatrixKind.GAUSSIAN, 4, 16, seed=0)
    with pytest.raises(ValueError):
        mat.data[0, 0] = 7.0
    # and the constructor copied its input
    src = np.zeros((2, 4))
    mat2 = MeasurementMatrix(src)
    src[0, 0] = 5.0
    assert mat2.data[0, 0] == 0.0

