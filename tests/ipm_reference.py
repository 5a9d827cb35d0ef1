"""Reference Mehrotra loop for the basis-pursuit tests.

This is BasisPursuitSolver._mehrotra as it was written before the loop
moved into preallocated buffers: a fresh array per quantity, a masked
ratio test per half, A^T lam through a concatenation.  The package's
loop must return the same bits (tests/test_recovery.py).
"""

import math

import numpy as np

import beamcs.recovery as recovery


def step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha*dv >= 0, given v > 0."""
    ratios = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0)
    return float(ratios.min())


def split_rmatvec(phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A^T lam for A = [Phi, -Phi]."""
    g = phi.T @ lam
    return np.concatenate((g, -g))


def mehrotra(solver, b: np.ndarray, h_ls: np.ndarray):
    """(x, iterations, converged, vertex), as solver._mehrotra(b, h_ls)."""
    cfg = solver.cfg
    phi = solver.phi
    n2 = 2 * phi.shape[1]

    x = np.concatenate((h_ls, -h_ls)) / 2.0
    lam = np.zeros(b.shape[0])
    s = np.ones(n2)
    dx = max(-1.5 * float(x.min()), 0.0)
    x = x + dx
    xs = float(x @ s)
    x = x + 0.5 * xs / float(s.sum())
    s = s + 0.5 * xs / float(x.sum())

    b_scale = 1.0 + math.sqrt(b @ b)
    c_scale = 1.0 + np.sqrt(n2)
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        rb = recovery._split_matvec(phi, x) - b
        rc = split_rmatvec(phi, lam) + s - 1.0
        obj = float(x.sum())
        gap = obj - float(b @ lam)
        if (
            math.sqrt(rb @ rb) / b_scale <= cfg.feas_tol
            and math.sqrt(rc @ rc) / c_scale <= cfg.feas_tol
            and abs(gap) / (1.0 + abs(obj)) <= cfg.opt_tol
        ):
            return x, iterations - 1, True, None

        d = np.minimum(x / s, 1e16)
        vertex = solver._crossover(b, x, d, lam)
        if vertex is not None:
            return x, iterations - 1, True, vertex
        mu = float(x @ s) / n2
        m_chol = recovery._regularized_cho_factor(recovery._split_normal(phi, d))
        d_rc = d * rc

        def newton(r_xs):
            rhs = -rb - recovery._split_matvec(phi, r_xs / s + d_rc)
            dlam = recovery.cho_solve(m_chol, rhs)
            ds_ = -rc - split_rmatvec(phi, dlam)
            dx_ = (r_xs - x * ds_) / s
            return dx_, dlam, ds_

        dx_a, _, ds_a = newton(-x * s)
        ap_aff = min(1.0, step_to_boundary(x, dx_a))
        ad_aff = min(1.0, step_to_boundary(s, ds_a))
        mu_aff = float((x + ap_aff * dx_a) @ (s + ad_aff * ds_a)) / n2
        sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0) if mu > 0 else 0.0

        dx_, dlam_, ds_ = newton(sigma * mu - x * s - dx_a * ds_a)
        eta = 0.99995
        ap = min(1.0, eta * step_to_boundary(x, dx_))
        ad = min(1.0, eta * step_to_boundary(s, ds_))
        x = x + ap * dx_
        lam = lam + ad * dlam_
        s = s + ad * ds_
        if not (np.isfinite(x).all() and np.isfinite(s).all()):
            return np.maximum(x, 0.0), iterations, False, None

    return x, iterations, False, None
