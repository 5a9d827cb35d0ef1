import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamcs import (
    AngleMode,
    ChannelConfig,
    MatrixKind,
    MatrixSpec,
    MetricConfig,
    RecoveryConfig,
    effective_rate,
    exact_recovery_rate,
    generate_baseline,
    generate_dataset,
    mean_nrse,
    run_sweep,
)
from beamcs.evaluate import (
    figure_table,
    nrse_trend_violations,
    recover_all,
    sweep_baseline,
)

RECOVERY = RecoveryConfig()
METRIC = MetricConfig(exact_tol=1e-8, block_length=200, base_rate=1.0)


def test_exact_recovery_rate_counts():
    truth = np.eye(4)
    estimates = truth.copy()
    estimates[1] += 1e-6  # one clear miss
    estimates[2] += 1e-9 / 2  # inside tolerance
    assert exact_recovery_rate(truth, estimates, 1e-8) == 0.75


def test_exact_recovery_rate_boundary():
    truth = np.zeros((1, 4))
    est = np.zeros((1, 4))
    est[0, 0] = 1e-8  # error exactly at the tolerance counts as success
    assert exact_recovery_rate(truth, est, 1e-8) == 1.0


def test_exact_recovery_rate_validates():
    with pytest.raises(ValueError):
        exact_recovery_rate(np.zeros((2, 3)), np.zeros((3, 2)), 1e-8)
    with pytest.raises(ValueError):
        exact_recovery_rate(np.zeros((0, 3)), np.zeros((0, 3)), 1e-8)


def test_mean_nrse_value():
    truth = np.array([[3.0, 4.0], [1.0, 0.0]])  # norms 5 and 1
    est = np.array([[3.0, 3.0], [0.5, 0.0]])  # errors 1 and 0.5
    value, excluded = mean_nrse(truth, est)
    assert value == pytest.approx((1.0 / 5.0 + 0.5) / 2.0)
    assert excluded == 0


def test_mean_nrse_excludes_zero_rows():
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    est = np.array([[9.9, 0.0], [1.0, 0.0]])
    value, excluded = mean_nrse(truth, est)
    assert value == 0.0
    assert excluded == 1
    with pytest.raises(ValueError, match="zero norm"):
        mean_nrse(np.zeros((2, 2)), np.zeros((2, 2)))


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=199),
)
def test_effective_rate_identity(p, m):
    assert effective_rate(p, m, 200, 1.0) == 1.0 * (1.0 - m / 200) * p


def test_effective_rate_validates():
    with pytest.raises(ValueError):
        effective_rate(1.5, 10, 200, 1.0)
    with pytest.raises(ValueError):
        effective_rate(0.5, 200, 200, 1.0)
    with pytest.raises(ValueError):
        effective_rate(0.5, 0, 200, 1.0)


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(exact_tol=0.0)
    with pytest.raises(ValueError):
        MetricConfig(block_length=0)
    with pytest.raises(ValueError):
        MetricConfig(base_rate=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="exact_tol"):
            MetricConfig(exact_tol=bad)
        with pytest.raises(ValueError, match="base_rate"):
            MetricConfig(base_rate=bad)


def test_recover_all_on_easy_instance(tiny_dataset):
    # m = 12 against at-most-4-sparse width-16 vectors: recovery succeeds
    # on nearly every sample
    mat = generate_baseline(MatrixKind.GAUSSIAN, 12, 16, seed=0)
    test = tiny_dataset.test
    estimates, failures = recover_all(mat, test, RECOVERY)
    assert estimates.shape == test.shape
    assert failures == 0
    assert exact_recovery_rate(test, estimates, 1e-8) >= 0.5


def test_recover_all_validates(tiny_dataset):
    mat = generate_baseline(MatrixKind.GAUSSIAN, 4, 16, seed=0)
    with pytest.raises(ValueError):
        recover_all(mat, np.ones((3, 9)), RECOVERY)


def _sweep(tiny_dataset, kinds, learned=None, m_values=(4, 8)):
    specs = [MatrixSpec(kind=k, seed=1) for k in kinds]
    return run_sweep(tiny_dataset, specs, m_values, RECOVERY, METRIC, learned=learned)


def test_run_sweep_baselines(tiny_dataset):
    report = _sweep(tiny_dataset, [MatrixKind.GAUSSIAN, MatrixKind.BERNOULLI])
    assert len(report.rows) == 4
    assert report.m_values == (4, 8)
    assert report.kinds == ("gaussian", "bernoulli")
    for row in report.rows:
        assert row.num_samples == tiny_dataset.num_test
        assert 0.0 <= row.exact_rate <= 1.0
        assert row.effective_rate == pytest.approx(
            (1.0 - row.m / 200) * row.exact_rate
        )
        assert row.seed == 1


@pytest.mark.parametrize(
    "kind", [MatrixKind.PARTIAL_FOURIER, MatrixKind.PHASE_SHIFTER]
)
def test_sweep_baseline_odd_m_truncates_even_draw(kind):
    odd = sweep_baseline(kind, 25, 512, seed=3)
    even = generate_baseline(kind, 26, 512, seed=3)
    assert odd.data.shape == (25, 512)
    assert np.array_equal(odd.data, even.data[:25])
    assert odd.num_angles == even.num_angles
    # the 12 complete [Re; Im] pairs still have unit combined norm
    pair_norms = (odd.data[0:24:2] ** 2 + odd.data[1:25:2] ** 2).sum(axis=1)
    np.testing.assert_allclose(pair_norms, 1.0, atol=1e-12)
    # even m is the plain draw, bit for bit
    direct = generate_baseline(kind, 26, 512, seed=3)
    assert np.array_equal(sweep_baseline(kind, 26, 512, 3).data, direct.data)


def test_sweep_baseline_real_kinds_pass_through():
    for kind in (MatrixKind.GAUSSIAN, MatrixKind.BERNOULLI, MatrixKind.SELECTION):
        a = sweep_baseline(kind, 25, 64, seed=2)
        b = generate_baseline(kind, 25, 64, seed=2)
        assert np.array_equal(a.data, b.data)


def test_run_sweep_complex_kinds_at_odd_m(tiny_dataset):
    report = _sweep(
        tiny_dataset,
        [MatrixKind.PARTIAL_FOURIER, MatrixKind.PHASE_SHIFTER],
        m_values=(5, 8),
    )
    assert len(report.rows) == 4
    for row in report.rows:
        assert np.isfinite(row.exact_rate)
        assert row.num_samples == tiny_dataset.num_test


def test_run_sweep_learned_and_gap_rows(tiny_dataset):
    from beamcs import TrainConfig, extract_matrix, train

    cfg = TrainConfig(
        learning_rate=0.05, batch_size=16, max_epochs=3, num_updates=2, seed=0
    )
    model, _ = train(tiny_dataset, 8, cfg)
    learned = {8: extract_matrix(model)}
    report = _sweep(tiny_dataset, [MatrixKind.LEARNED], learned=learned)
    gap = next(r for r in report.rows if r.m == 4)
    filled = next(r for r in report.rows if r.m == 8)
    assert gap.note == "missing checkpoint"
    assert np.isnan(gap.exact_rate) and np.isnan(gap.effective_rate)
    assert gap.seed is None
    assert np.isfinite(filled.exact_rate)
    assert any("missing checkpoint" in n for n in report.notes)


def test_run_sweep_rejects_wrong_checkpoint_shape(tiny_dataset):
    bad = generate_baseline(MatrixKind.GAUSSIAN, 4, 16, seed=0)
    with pytest.raises(ValueError, match="checkpoint"):
        _sweep(tiny_dataset, [MatrixKind.LEARNED], learned={8: bad})


def test_run_sweep_validates(tiny_dataset):
    with pytest.raises(ValueError, match="duplicate"):
        _sweep(tiny_dataset, [MatrixKind.GAUSSIAN, MatrixKind.GAUSSIAN])
    with pytest.raises(ValueError, match="increasing"):
        _sweep(tiny_dataset, [MatrixKind.GAUSSIAN], m_values=(8, 4))
    with pytest.raises(ValueError, match="width"):
        _sweep(tiny_dataset, [MatrixKind.GAUSSIAN], m_values=(4, 16))
    with pytest.raises(ValueError, match="nonempty"):
        _sweep(tiny_dataset, [MatrixKind.GAUSSIAN], m_values=())
    # off-grid vectors are not sparse, so every cell would score 0% exact
    cfg = ChannelConfig(num_antennas=8, num_paths=2, angle_mode=AngleMode.OFF_GRID)
    with pytest.raises(ValueError, match="off_grid"):
        _sweep(generate_dataset(cfg, 60), [MatrixKind.GAUSSIAN])


def test_run_sweep_deterministic(tiny_dataset):
    a = _sweep(tiny_dataset, [MatrixKind.GAUSSIAN])
    b = _sweep(tiny_dataset, [MatrixKind.GAUSSIAN])
    for ra, rb in zip(a.rows, b.rows):
        assert ra.exact_rate == rb.exact_rate
        assert ra.mean_nrse == rb.mean_nrse
        assert ra.solver_failures == rb.solver_failures


def test_nrse_trend_violation_detection(tiny_dataset):
    report = _sweep(tiny_dataset, [MatrixKind.GAUSSIAN])
    # plant a regression: error growing with m
    report.rows[0].mean_nrse = 0.1
    report.rows[1].mean_nrse = 0.5
    flags = nrse_trend_violations(report)
    assert len(flags) == 1 and "gaussian" in flags[0]


def test_figure_table(tiny_dataset):
    from beamcs import TrainConfig, extract_matrix, train

    cfg = TrainConfig(
        learning_rate=0.05, batch_size=16, max_epochs=2, num_updates=1, seed=0
    )
    model, _ = train(tiny_dataset, 8, cfg)
    report = _sweep(
        tiny_dataset,
        [MatrixKind.LEARNED, MatrixKind.GAUSSIAN],
        learned={8: extract_matrix(model)},
    )
    header, table = figure_table(report, "exact_rate")
    assert header == ["m", "learned", "gaussian"]
    assert [row[0] for row in table] == [4.0, 8.0]
    assert np.isnan(table[0][1])  # the m=4 learned gap
    assert np.isfinite(table[1][1])
    with pytest.raises(ValueError):
        figure_table(report, "seconds")
