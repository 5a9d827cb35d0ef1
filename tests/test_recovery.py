import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import beamcs.recovery as recovery
import ipm_reference
from beamcs import (
    BasisPursuitSolver,
    ChannelConfig,
    MatrixKind,
    RecoveryConfig,
    RecoveryStatus,
    generate_dataset,
)
from beamcs.evaluate import sweep_baseline
from reference_solvers import oracle_sparse_recover, projected_subgradient


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
        res = BasisPursuitSolver(phi).solve(y)
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
        res = BasisPursuitSolver(phi).solve(y)
        assert res.objective <= np.abs(h).sum() + 1e-8


def test_zero_measurement_shortcut():
    phi = np.random.default_rng(0).standard_normal((4, 12))
    res = BasisPursuitSolver(phi).solve(np.zeros(4))
    assert res.status is RecoveryStatus.OPTIMAL
    assert np.array_equal(res.h_hat, np.zeros(12))
    assert res.iterations == 0
    empty = BasisPursuitSolver(np.ones((0, 12))).solve(np.zeros(0))
    assert empty.status is RecoveryStatus.OPTIMAL
    assert np.array_equal(empty.h_hat, np.zeros(12))


def test_solver_reuse_matches_one_shot(rng):
    phi, _, _ = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    for _ in range(5):
        _, h, y = sparse_instance(rng)
        a = solver.solve(y)
        b = BasisPursuitSolver(phi).solve(y)
        assert np.array_equal(a.h_hat, b.h_hat)
        assert a.status == b.status


def test_rank_deficient_rows_consistent(rng):
    # a repeated row is no new measurement: 5 rows that measure only 4
    # times must not be scored as m=5, even when y is in their range
    base = rng.standard_normal((4, 16))
    phi = np.vstack([base, base[0]])
    y = phi @ np.eye(16)[3]
    with pytest.raises(np.linalg.LinAlgError, match=r"\(5, 16\).*rank 4"):
        BasisPursuitSolver(phi)
    with pytest.raises(np.linalg.LinAlgError, match="rank 4"):
        projected_subgradient(phi, y)


def test_rank_deficient_rows_inconsistent(rng):
    # row 4 repeats row 0, so y[4] != y[0] is unsatisfiable; Phi is
    # rejected before y is read, so no infeasible status is ever reported
    base = rng.standard_normal((4, 16))
    phi = np.vstack([base, base[0]])
    y = np.ones(5)
    y[4] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="rank 4"):
        BasisPursuitSolver(phi).solve(y)
    with pytest.raises(np.linalg.LinAlgError, match="rank 4"):
        projected_subgradient(phi, y)


def test_solve_validates_length(rng):
    phi, _, _ = sparse_instance(rng)
    with pytest.raises(ValueError, match="measurement length"):
        BasisPursuitSolver(phi).solve(np.ones(3))
    with pytest.raises(ValueError):
        BasisPursuitSolver(np.ones((2, 2, 2)))


def test_non_finite_measurement_rejected(rng):
    phi, _, y = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    for bad in (np.nan, np.inf, -np.inf):
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ValueError, match="measurement") as exc:
            solver.solve(y_bad)
        assert not isinstance(exc.value, np.linalg.LinAlgError)
        with pytest.raises(ValueError, match="measurement"):
            projected_subgradient(phi, y_bad)


def test_non_finite_phi_rejected(rng):
    # a LinAlgError (SVD did not converge) would read as a numerical failure
    phi, _, y = sparse_instance(rng)
    for bad in (np.nan, np.inf):
        phi_bad = phi.copy()
        phi_bad[2, 5] = bad
        for call in (
            lambda: recovery.gram_cholesky(phi_bad),
            lambda: BasisPursuitSolver(phi_bad),
            lambda: projected_subgradient(phi_bad, y),
        ):
            with pytest.raises(ValueError, match="Phi entries must be finite") as exc:
                call()
            assert not isinstance(exc.value, np.linalg.LinAlgError)


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
    res = BasisPursuitSolver(phi, RecoveryConfig(max_iters=1)).solve(y)
    assert res.status is RecoveryStatus.MAX_ITERS
    assert res.iterations == 1


def test_projected_subgradient_agrees_with_lp(rng):
    cfg = RecoveryConfig(max_iters=3000)
    for _ in range(3):
        phi, h, y = sparse_instance(rng, m=8, n=16, k=2)
        sub = projected_subgradient(phi, y, cfg=cfg)
        lp = BasisPursuitSolver(phi).solve(y)
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


def _step_to_boundary(v, dv):
    """The primal step of recovery._steps_to_boundary on z = [v; w],
    dz = [dv; dw], where the dual half w, dw is v, dv reversed and v
    doubled; each half must equal the reference's masked ratio."""
    w, dw = 2.0 * v[::-1], dv[::-1]
    z, dz = np.concatenate((v, w)), np.concatenate((dv, dw))
    z_before, dz_before = z.copy(), dz.copy()
    primal, dual = recovery._steps_to_boundary(z, dz, np.empty_like(z))
    assert np.array_equal(z, z_before) and np.array_equal(dz, dz_before, equal_nan=True)
    assert primal == ipm_reference.step_to_boundary(v, dv)
    assert dual == ipm_reference.step_to_boundary(w, dw)
    return primal


def test_step_to_boundary_unbounded_without_a_decreasing_entry():
    v = np.array([1.0, 2.0, 3.0])
    assert _step_to_boundary(v, np.array([0.0, 1.0, 2.0])) == np.inf


def test_step_to_boundary_matches_masked_ratio(rng):
    for _ in range(20):
        v = rng.uniform(1e-6, 10.0, 1024)
        dv = rng.standard_normal(1024) * 10.0 ** rng.uniform(-6, 6, 1024)
        neg = dv < 0
        assert _step_to_boundary(v, dv) == float(np.min(-v[neg] / dv[neg]))


@pytest.mark.parametrize("fill", [0.0, -0.0, np.nan])
@pytest.mark.parametrize("zero_v", [False, True])
def test_step_to_boundary_skips_signed_zero_and_nan_steps(rng, fill, zero_v):
    # dv = +0.0, -0.0 or NaN never bounds the step, also in long runs that
    # reach numpy's vector loops; v = 0 bounds it at 0 where dv < 0 and
    # gives 0 / 0, skipped, where dv does not decrease
    for size in (1, 7, 64, 1024):
        v = rng.uniform(1e-6, 10.0, size)
        dv = rng.standard_normal(size)
        dv[rng.random(size) < 0.5] = fill
        if zero_v:
            v[rng.random(size) < 0.3] = 0.0
        neg = dv < 0
        want = float(np.min(-v[neg] / dv[neg])) if neg.any() else np.inf
        got = _step_to_boundary(v, dv)
        assert got == want and not np.signbit(got)
        all_fill = np.full(size, fill)
        assert _step_to_boundary(v, all_fill) == np.inf
        assert _step_to_boundary(np.zeros(size), all_fill) == np.inf


def test_regularized_cho_factor_leaves_definite_matrix_alone(rng):
    b = rng.standard_normal((6, 9))
    mat = b @ b.T
    c = recovery._regularized_cho_factor(mat)
    assert np.array_equal(c, cho_factor(mat, lower=True)[0])


def test_regularized_cho_factor_first_regularization():
    mat = 4.0 * np.ones((2, 2))  # singular PSD, scale = trace / 2 = 4
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(mat, lower=True)
    c = recovery._regularized_cho_factor(mat)
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


@pytest.mark.parametrize("where", [(0, 0), (3, 1), (5, 5)])
def test_regularized_cho_factor_fails_numerically_on_nan(rng, where):
    # a LinAlgError, not the ValueError the CLI reports as bad input
    b = rng.standard_normal((6, 9))
    mat = b @ b.T
    mat[where] = mat[where[::-1]] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        recovery._regularized_cho_factor(mat)


@pytest.mark.parametrize("m", [1, 2, 8, 20, 40])
def test_cholesky_helpers_match_scipy_bitwise(rng, m):
    g = rng.standard_normal((m, 3 * m))
    phi = rng.standard_normal((m, 128)) / np.sqrt(m)
    # the IPM's normal matrices are symmetric only up to rounding
    mats = [g @ g.T] + [
        recovery._split_normal(phi, 10.0 ** rng.uniform(-8, 8, 256)) for _ in range(5)
    ]
    for a in mats:
        b = rng.standard_normal(m)
        a_before, b_before = a.copy(), b.copy()
        c = recovery.cho_factor(a)
        want = cho_factor(a, lower=True)
        assert np.array_equal(c, want[0])
        assert np.array_equal(recovery.cho_solve(c, b), cho_solve(want, b))
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_cho_factor_rejects_indefinite_matrix():
    for mat in (np.array([[0.0, 1.0], [1.0, 0.0]]), -np.eye(3), np.zeros((1, 1))):
        with pytest.raises(np.linalg.LinAlgError):
            recovery.cho_factor(mat)


def test_solve_leaves_inputs_and_cached_factor_unchanged(rng):
    phi, _, y = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    phi_before, y_before = solver.phi.copy(), y.copy()
    gram_before = solver._gram_chol.copy()
    first = solver.solve(y)
    second = solver.solve(y)
    assert np.array_equal(solver.phi, phi_before)
    assert np.array_equal(y, y_before)
    assert np.array_equal(solver._gram_chol, gram_before)
    assert np.array_equal(first.h_hat, second.h_hat)
    assert first.residual == second.residual
    assert first.iterations == second.iterations


@pytest.fixture
def vertices(monkeypatch):
    """The (S, h_S) of every vertex the crossover accepts, in call order."""
    accepted = []
    crossover = BasisPursuitSolver._crossover

    def recording(self, *args):
        vertex = crossover(self, *args)
        if vertex is not None:
            accepted.append(vertex)
        return vertex

    monkeypatch.setattr(BasisPursuitSolver, "_crossover", recording)
    return accepted


def test_crossover_returns_an_exactly_sparse_vertex(rng, vertices):
    for _ in range(5):
        phi, _, y = sparse_instance(rng)
        before = len(vertices)
        res = BasisPursuitSolver(phi).solve(y)
        assert len(vertices) == before + 1  # the solve ended by crossover
        support, h_s = vertices[-1]
        assert res.status is RecoveryStatus.OPTIMAL
        assert np.array_equal(np.flatnonzero(res.h_hat), support)
        assert np.array_equal(res.h_hat[support], h_s)
        assert support.size <= phi.shape[0]
        assert np.linalg.norm(phi @ res.h_hat - y) <= RecoveryConfig().feas_tol
        # the oracle sees supports of size <= 3 only, so it bounds from above
        assert res.objective <= oracle_sparse_recover(phi, y, 3).objective + 1e-9


@pytest.mark.parametrize("tie", ["duplicate", "midpoint"])
def test_crossover_declines_a_non_unique_optimum(rng, vertices, tie):
    # duplicate: columns 0 and 1 are equal, so any split of h0 between
    # them is optimal.  midpoint: column 0 is the mean of columns 1 and 2,
    # so e0 and (e1 + e2) / 2 tie.  Either way no vertex is the unique
    # minimizer, and the IPM's own termination has to end the solve.
    phi = rng.standard_normal((6, 12)) / np.sqrt(6)
    if tie == "duplicate":
        phi[:, 1] = phi[:, 0]
    else:
        phi[:, 0] = (phi[:, 1] + phi[:, 2]) / 2.0
    h = np.zeros(12)
    h[0], h[5] = 1.5, -0.8
    y = phi @ h
    oracle = oracle_sparse_recover(phi, y, k_max=3)
    assert not oracle.unique
    res = BasisPursuitSolver(phi).solve(y)
    assert vertices == []
    assert res.status is RecoveryStatus.OPTIMAL
    assert res.objective == pytest.approx(oracle.objective, abs=1e-9)


def _crossover_on(phi, support, h_s, lam):
    """One crossover attempt at an iterate whose support is the given one,
    with h_s's signs, for b = Phi_S h_s and the given IPM dual."""
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1]
    x = np.full(2 * n, 0.1)
    for i, v in zip(support, h_s):
        x[i if v > 0 else n + i] = 10.0
    b = phi[:, support] @ np.asarray(h_s, dtype=float)
    # s = 1, so d = x / s = x
    return BasisPursuitSolver(phi)._crossover(b, x, x, np.asarray(lam, float))


@pytest.mark.parametrize("t, accepted", [(1e-3, True), (1e-9, False)])
def test_crossover_certificate_needs_a_margin_below_one(t, accepted):
    # lam = e0 gives Phi^T lam = (1, 1 - t, 0.2, -0.4): on support {0} it
    # certifies h = 0.5 e0, and uniquely only if 1 - t is clearly below 1
    phi = np.array([[1.0, 1.0 - t, 0.2, -0.4], [0.3, 0.5, 1.0, 0.0], [0.2, -0.1, 0.0, 1.0]])
    vertex = _crossover_on(phi, [0], [0.5], [1.0, 0.0, 0.0])
    if accepted:
        support, h_s = vertex
        assert support.tolist() == [0] and h_s.tolist() == [0.5]
    else:
        assert vertex is None


def test_crossover_declines_linearly_dependent_columns():
    # columns 0 and 1 are equal; their Gram matrix is singular, but its
    # Cholesky factor may still come out with a tiny positive last pivot,
    # and every other test passes for the split it then gives
    phi = np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
    assert _crossover_on(phi, [0, 1], [1.0, 1.0], [0.5, 0.5, 0.0]) is None


def test_solve_goes_through_the_module_cholesky_names(rng, monkeypatch, vertices):
    # wrappers bound to recovery.cho_factor / cho_solve see every call, so
    # per-call timings taken that way cannot silently read zero; the solve
    # ends by crossover, whose factorization must be seen too
    calls = {"cho_factor": 0, "cho_solve": 0}

    def counting(name):
        original = getattr(recovery, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    phi, _, y = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    for name in calls:
        monkeypatch.setattr(recovery, name, counting(name))
    res = solver.solve(y)
    assert len(vertices) == 1  # the solve ended by crossover
    assert res.iterations >= 1
    # a factor per Newton step plus the crossover's Phi_S^T Phi_S, two
    # solves per Newton step plus the crossover's primal and dual
    assert calls["cho_factor"] >= res.iterations + 1
    assert calls["cho_solve"] >= 2 * res.iterations + 2


# Two former borderline solves from sweep-paper at seed 5 (300 test vectors
# of width 512).  Before crossover, gaussian m=20 vector 255 took 123 IPM
# iterations: its iterate jumped away from the optimum at iteration 14.
# Phase shifter m=40 vector 216 took 28.
BORDERLINE = """
from beamcs import BasisPursuitSolver, ChannelConfig, MatrixKind, generate_dataset
from beamcs.evaluate import sweep_baseline

data = generate_dataset(ChannelConfig(256, 3, seed=5), 300, ratios=(0, 0, 1), floor=0.0)
results = []
for kind, m, i in (("gaussian", 20, 255), ("phase_shifter", 40, 216)):
    phi = sweep_baseline(MatrixKind(kind), m, data.width, 5).data
    results.append(BasisPursuitSolver(phi).solve(phi @ data.test[i]))
"""


def test_former_borderline_solve_ends_early_at_its_optimum():
    scope = {}
    exec(BORDERLINE, scope)
    res = scope["results"][0]
    assert res.status is RecoveryStatus.OPTIMAL
    assert res.iterations <= 15
    assert abs(res.objective - 1.67706472778) <= 1e-9


def test_borderline_solves_are_identical_across_processes():
    # two fresh interpreters, each with its own BLAS set-up, give the same
    # status, iteration count and estimate bits
    import beamcs

    env = dict(os.environ)
    src = str(Path(beamcs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = BORDERLINE + (
        "for r in results:\n"
        "    print(r.status.value, r.iterations, r.h_hat.tobytes().hex())\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        ).stdout
        for _ in range(2)
    ]
    assert len(outs[0].splitlines()) == 2
    assert outs[0] == outs[1]


def _assert_matches_reference(solver, y):
    """solver._mehrotra gives the same bits as the reference loop."""
    h_ls = solver.phi.T @ recovery.cho_solve(solver._gram_chol, y)
    x, iterations, converged, vertex = solver._mehrotra(y, h_ls)
    x_ref, iterations_ref, converged_ref, vertex_ref = ipm_reference.mehrotra(
        solver, y, h_ls
    )
    assert x.tobytes() == x_ref.tobytes()
    assert (iterations, converged) == (iterations_ref, converged_ref)
    assert (vertex is None) == (vertex_ref is None)
    if vertex is not None:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(vertex, vertex_ref))
    return iterations, converged, vertex


@pytest.mark.parametrize("kind", ["gaussian", "phase_shifter"])
@pytest.mark.parametrize("m, n", [(8, 64), (20, 512), (40, 512)])
def test_mehrotra_matches_the_reference_loop_bitwise(kind, m, n):
    cfg = ChannelConfig(n // 2, 3, seed=3)
    data = generate_dataset(cfg, 20, ratios=(0, 0, 1), floor=0.0)
    solver = BasisPursuitSolver(sweep_baseline(MatrixKind(kind), m, n, 3).data)
    for h in data.test:
        _assert_matches_reference(solver, solver.phi @ h)
    short = BasisPursuitSolver(solver.phi, RecoveryConfig(max_iters=3))
    iterations, converged, _ = _assert_matches_reference(short, solver.phi @ data.test[0])
    assert (iterations, converged) == (3, False)


def test_borderline_solves_match_the_reference_loop_bitwise():
    scope = {}
    exec(BORDERLINE, scope)
    data = scope["data"]
    for kind, m, i in (("gaussian", 20, 255), ("phase_shifter", 40, 216)):
        phi = sweep_baseline(MatrixKind(kind), m, data.width, 5).data
        _assert_matches_reference(BasisPursuitSolver(phi), phi @ data.test[i])


def test_non_finite_iterate_is_a_numerical_failure(rng, monkeypatch):
    # a Newton solve that returns inf used to end the solve with a NaN
    # estimate scored MAX_ITERS; it must fail like a NaN Cholesky does
    phi, _, y = sparse_instance(rng)
    solver = BasisPursuitSolver(phi)
    solve = recovery.cho_solve
    calls = []

    def inf_after_the_first(c, b):
        # the first solve is the least-norm start, outside the IPM loop
        calls.append(b)
        x = solve(c, b)
        return x if len(calls) == 1 else np.full_like(x, np.inf)

    monkeypatch.setattr(recovery, "cho_solve", inf_after_the_first)
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="iterate is not finite"):
            solver.solve(y)
    assert len(calls) > 1


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
    assert _rel(ipm_reference.split_rmatvec(phi, lam), a.T @ lam) <= 1e-12
