import numpy as np
import pytest
from scipy.linalg import cho_factor

import beamcs.recovery as recovery
from beamcs import (
    BasisPursuitSolver,
    RecoveryConfig,
    RecoveryStatus,
    basis_pursuit,
    oracle_sparse_recover,
    projected_subgradient,
)


def sparse_instance(rng, m=10, n=24, k=2):
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    support = rng.choice(n, size=k, replace=False)
    h = np.zeros(n)
    h[support] = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    return phi, h, phi @ h


def test_recovers_sparse_signal(rng):
    # m = 10 Gaussian rows versus k = 2 succeeds on most draws, but the
    # l1 minimizer is occasionally a different, denser vector; that is a
    # property of basis pursuit, not a solver failure
    recovered = 0
    for _ in range(10):
        phi, h, y = sparse_instance(rng)
        res = basis_pursuit(phi, y)
        assert res.status is RecoveryStatus.OPTIMAL
        assert res.residual <= 1e-10
        assert res.objective <= np.abs(h).sum() + 1e-8
        if np.linalg.norm(res.h_hat - h) <= 1e-8:
            recovered += 1
    assert recovered >= 8


def test_objective_never_exceeds_truth(rng):
    # the true signal is feasible, so the minimum l1 value is at most its
    for _ in range(10):
        phi, h, y = sparse_instance(rng, m=6, n=24, k=3)
        res = basis_pursuit(phi, y)
        assert res.objective <= np.abs(h).sum() + 1e-8


def test_zero_measurement_shortcut():
    phi = np.random.default_rng(0).standard_normal((4, 12))
    res = basis_pursuit(phi, np.zeros(4))
    assert res.status is RecoveryStatus.OPTIMAL
    assert np.array_equal(res.h_hat, np.zeros(12))
    assert res.iterations == 0


def test_solver_reuse_matches_one_shot(rng):
    phi, _, _ = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    for _ in range(5):
        _, h, y = sparse_instance(rng)
        a = solver.solve(y)
        b = basis_pursuit(phi, y)
        assert np.array_equal(a.h_hat, b.h_hat)
        assert a.status == b.status


def test_rank_deficient_rows_consistent(rng):
    # duplicated rows carry no new information but must not break anything
    base = rng.standard_normal((4, 16))
    phi = np.vstack([base, base[0]])
    h = np.zeros(16)
    h[3] = 1.0
    res = basis_pursuit(phi, phi @ h)
    assert res.status is RecoveryStatus.OPTIMAL
    assert res.residual <= 1e-10


def test_rank_deficient_rows_inconsistent(rng):
    base = rng.standard_normal((4, 16))
    phi = np.vstack([base, base[0]])
    y = np.ones(5)
    y[4] = -1.0
    y[0] = 1.0  # row 4 repeats row 0, so y[4] != y[0] is unsatisfiable
    res = basis_pursuit(phi, y)
    assert res.status is RecoveryStatus.INFEASIBLE
    assert res.residual > 1e-6


def test_solve_validates_length(rng):
    phi, _, _ = sparse_instance(rng)
    with pytest.raises(ValueError, match="measurement length"):
        BasisPursuitSolver(phi).solve(np.ones(3))
    with pytest.raises(ValueError):
        BasisPursuitSolver(np.ones((2, 2, 2)))


def test_recovery_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(feas_tol=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(opt_tol=-1.0)
    with pytest.raises(ValueError):
        RecoveryConfig(max_iters=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="feas_tol"):
            RecoveryConfig(feas_tol=bad)
        with pytest.raises(ValueError, match="opt_tol"):
            RecoveryConfig(opt_tol=bad)


def test_max_iters_reported(rng):
    phi, _, y = sparse_instance(rng)
    res = basis_pursuit(phi, y, RecoveryConfig(max_iters=1))
    assert res.status is RecoveryStatus.MAX_ITERS
    assert res.iterations == 1


def test_projected_subgradient_agrees_with_lp(rng):
    cfg = RecoveryConfig(max_iters=3000)
    for _ in range(3):
        phi, h, y = sparse_instance(rng, m=8, n=16, k=2)
        sub = projected_subgradient(phi, y, cfg=cfg)
        lp = basis_pursuit(phi, y)
        # subgradient converges slowly; objectives agree loosely
        assert sub.objective >= lp.objective - 1e-9
        assert sub.objective <= lp.objective + 0.05 * max(1.0, lp.objective)
        assert np.linalg.norm(phi @ sub.h_hat - y) <= 1e-8


def test_projected_subgradient_feasible_iterates(rng):
    phi, _, y = sparse_instance(rng, m=6, n=18, k=2)
    res = projected_subgradient(phi, y, cfg=RecoveryConfig(max_iters=100))
    assert np.linalg.norm(phi @ res.h_hat - y) <= 1e-9


def test_oracle_finds_sparsest(rng):
    phi, h, y = sparse_instance(rng, m=8, n=12, k=2)
    res = oracle_sparse_recover(phi, y, k_max=2)
    assert np.linalg.norm(res.h_hat - h) <= 1e-8
    assert res.unique


def test_oracle_detects_tie():
    # columns 0 and 1 are identical: two size-1 supports explain y with
    # the same objective, so the minimizer is not unique
    phi = np.array([[1.0, 1.0, 0.3]])
    res = oracle_sparse_recover(phi, np.array([1.0]), k_max=1)
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    assert not res.unique


def test_oracle_budget_guard():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="budget"):
        oracle_sparse_recover(rng.standard_normal((4, 25)), np.ones(4), k_max=1)
    with pytest.raises(ValueError, match="budget"):
        oracle_sparse_recover(rng.standard_normal((4, 10)), np.ones(4), k_max=4)


def test_oracle_no_feasible_support(rng):
    phi = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)  # generic y needs at least 6 columns
    with pytest.raises(ValueError, match="no feasible"):
        oracle_sparse_recover(phi, y, k_max=2)


def test_oracle_zero_measurement(rng):
    phi = rng.standard_normal((4, 10))
    res = oracle_sparse_recover(phi, np.zeros(4), k_max=1)
    assert res.objective == 0.0
    assert np.array_equal(res.h_hat, np.zeros(10))


def test_step_to_boundary_unbounded_without_a_decreasing_entry():
    v = np.array([1.0, 2.0, 3.0])
    assert recovery._step_to_boundary(v, np.array([0.0, 1.0, 2.0])) == np.inf


def test_step_to_boundary_matches_masked_ratio(rng):
    for _ in range(20):
        v = rng.uniform(1e-6, 10.0, 1024)
        dv = rng.standard_normal(1024) * 10.0 ** rng.uniform(-6, 6, 1024)
        neg = dv < 0
        assert recovery._step_to_boundary(v, dv) == float(np.min(-v[neg] / dv[neg]))


def test_regularized_cho_factor_leaves_definite_matrix_alone(rng):
    b = rng.standard_normal((6, 9))
    mat = b @ b.T
    c, lower = recovery._regularized_cho_factor(mat)
    assert lower and np.array_equal(c, cho_factor(mat, lower=True)[0])


def test_regularized_cho_factor_first_regularization():
    mat = 4.0 * np.ones((2, 2))  # singular PSD, scale = trace / 2 = 4
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(mat, lower=True)
    c, _ = recovery._regularized_cho_factor(mat)
    expected, _ = cho_factor(mat + 4e-14 * np.eye(2), lower=True)
    assert np.array_equal(c, expected)


def test_regularized_cho_factor_gives_up_on_indefinite_matrix(monkeypatch):
    regs = []
    factor = recovery.cho_factor

    def recording(a, **kwargs):
        regs.append(a[0, 0])  # the regularization added to a zero diagonal
        return factor(a, **kwargs)

    monkeypatch.setattr(recovery, "cho_factor", recording)
    with pytest.raises(np.linalg.LinAlgError, match="not factorizable"):
        recovery._regularized_cho_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # the plain factor, then 1e-14 * scale (scale 1 here) growing 100x
    expected = [0.0] + [1e-14 * 100.0**k for k in range(7)]
    np.testing.assert_allclose(regs, expected, rtol=1e-12, atol=0)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("m", [20, 40])
def test_split_products_match_explicit_sign_split(rng, m):
    n = 512
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    a = np.hstack([phi, -phi])
    d = 10.0 ** rng.uniform(-8, 8, 2 * n)
    v = rng.standard_normal(2 * n)
    lam = rng.standard_normal(m)
    assert _rel(recovery._split_normal(phi, d), (a * d) @ a.T) <= 1e-12
    assert _rel(recovery._split_matvec(phi, v), a @ v) <= 1e-12
    assert _rel(recovery._split_rmatvec(phi, lam), a.T @ lam) <= 1e-12
