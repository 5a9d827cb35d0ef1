"""Sparse recovery from compressed measurements.

BasisPursuitSolver solves min ||h||_1 s.t. Phi h = y through a
Mehrotra predictor-corrector interior-point method on the equivalent LP
min 1'z s.t. A z = y, z >= 0 with A = [Phi, -Phi] and z = [h+; h-].
A is never formed: every product goes through Phi alone, A v =
Phi (v+ - v-), A^T lam = [Phi^T lam; -Phi^T lam], and the normal matrix
A diag(d) A^T = Phi diag(d+ + d-) Phi^T.  That matrix is only m x m, so
one solve costs O(m^2 n) regardless of the signal length.

Each solve keeps x and s in one buffer z = [x; s] and writes every
Newton step (dx, ds) into one buffer dz, so a single unmasked pass over
z gives both step lengths: t = max(0 - dz, 0), z / t, then the fmin of
each half.  Where dv < 0 that ratio is v / (-dv), the same bits as the
textbook -v / dv; where dv >= 0 (or NaN) it is +inf, or 0 / 0 = NaN,
which fmin skips.  The 0 - dz is a guard, not -dz: dz = +0.0 would give
-0.0, which fmax(., 0.0) may return unchanged, and v / -0.0 = -inf
would become the step.

Every iteration also tries a crossover to an exact vertex (Ye 1992,
finite termination of interior-point methods).  It guesses the support
S = {i : max(x+_i / s+_i, x-_i / s-_i) > 1}; if 0 < |S| <= m it solves
Phi_S h_S = y by a Cholesky factor of Phi_S^T Phi_S and projects the
iterate's lam onto {Phi_S^T lam = sign(h_S)}.  The vertex, exactly zero
off S, is returned as OPTIMAL only when the residual is within feas_tol,
the signs match the iterate, Phi_S has full column rank (no tiny pivot)
and ||Phi_{S^c}^T lam||_inf < 1 - 1e-6: then it is the unique minimizer
(Fuchs 2004).  The 1e-6 margin sits far above the rounding in
Phi^T lam, so a tie (an optimum that is not unique) is declined rather
than scored by whichever vertex came first.  A declined or failed
attempt costs one small factorization; the iteration then carries on,
and the interior-point termination test, polish and max_iters exit are
those of a solve without crossover.

scipy is imported here alone, and only at the first factorization
(_lapack): generating data and training factor nothing, so they start
on numpy alone, without the ~0.3 s (2-core x86 box) and ~28 MB of
peak RSS that loading scipy.linalg adds to a process.
LinAlgError is numpy's, the class scipy.linalg re-exports.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError


# Crossover acceptance: Phi_S counts as full column rank when the smallest
# pivot of its Gram factor exceeds this fraction of the largest, and the
# dual certifies a unique optimum when max |Phi_j^T lam| off the support
# stays below 1 by this margin, far above the rounding in Phi^T lam.
_PIVOT_RATIO = 1e-6
_UNIQUE_MARGIN = 1e-6


class RecoveryStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class RecoveryConfig:
    feas_tol: float = 1e-10
    opt_tol: float = 1e-9
    max_iters: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.feas_tol < np.inf:
            raise ValueError("feas_tol must be positive and finite")
        if not 0 < self.opt_tol < np.inf:
            raise ValueError("opt_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class RecoveryResult:
    h_hat: np.ndarray
    status: RecoveryStatus
    residual: float  # ||Phi h_hat - y||_2
    objective: float  # ||h_hat||_1
    iterations: int


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported on the first call (module docstring)."""
    from scipy.linalg import lapack

    return lapack


def cho_factor(a: np.ndarray) -> np.ndarray:
    """The factor of scipy.linalg.cho_factor(a, lower=True), from LAPACK dpotrf.

    The same routine, so the same bits; at the m <= 40 of a sweep scipy's
    checking wrapper costs several times the factorization.  a is copied,
    never overwritten; the factor's upper triangle keeps a's entries.
    """
    c, info = _lapack().dpotrf(a, lower=1, clean=0, overwrite_a=0)
    # Reference LAPACK stops at a NaN pivot; OpenBLAS carries on, and the
    # NaN then reaches every later pivot, so the last one shows it.
    if info > 0 or (c.size and math.isnan(c[-1, -1])):
        raise LinAlgError("matrix is not positive definite")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve((c, True), b) for a cho_factor factor c, via
    LAPACK dpotrs.

    b is copied, never overwritten; nothing checks it for NaN or inf.
    """
    x, _ = _lapack().dpotrs(c, b, lower=1, overwrite_b=0)
    return x


def gram_cholesky(phi: np.ndarray):
    """Cholesky factor of Phi Phi^T, reusable across many recoveries.

    Rejects a non-finite Phi, and a Phi whose m rows are fewer than m
    independent measurements.
    """
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("Phi entries must be finite")
    if (rank := np.linalg.matrix_rank(phi)) < phi.shape[0]:
        raise LinAlgError(f"Phi {phi.shape} is rank-deficient: rank {rank}")
    try:
        return cho_factor(phi @ phi.T)
    except LinAlgError as exc:
        raise LinAlgError(f"Phi Phi^T is singular for Phi {phi.shape}") from exc


def _measurement(y, m: int) -> np.ndarray:
    """y as a float vector, checked against Phi's m rows."""
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"measurement length {y.shape} does not match Phi rows {m}")
    if not np.isfinite(y).all():
        raise ValueError("measurement y must be finite")
    return y


def project_feasible(phi, gram_chol, y, x) -> np.ndarray:
    """Euclidean projection of x onto {h : Phi h = y}; idempotent."""
    return x + phi.T @ cho_solve(gram_chol, y - phi @ x)


def _steps_to_boundary(
    z: np.ndarray, dz: np.ndarray, work: np.ndarray
) -> tuple[float, float]:
    """Largest alpha on each half of z = [x; s] with z + alpha*dz >= 0,
    given z > 0, by one unmasked pass (module docstring); work is scratch
    of z's size.  Equal to the masked min of -v / dv over dv < 0, or inf.
    """
    np.subtract(0.0, dz, out=work)
    np.fmax(work, 0.0, out=work)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(z, work, out=work)
    primal, dual = np.fmin.reduce(work.reshape(2, -1), axis=1, initial=np.inf).tolist()
    return primal, dual


def _regularized_cho_factor(mat: np.ndarray):
    """Cholesky with escalating diagonal regularization on failure."""
    try:
        return cho_factor(mat)
    except LinAlgError:
        pass
    eye = np.eye(mat.shape[0])
    reg = 1e-14 * max(float(np.trace(mat)) / mat.shape[0], 1.0)
    for _ in range(7):
        try:
            return cho_factor(mat + reg * eye)
        except LinAlgError:
            reg *= 100.0
    raise LinAlgError("normal-equations matrix is not factorizable")


def _split_matvec(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for A = [Phi, -Phi]."""
    n = phi.shape[1]
    return phi @ (v[:n] - v[n:])


def _split_normal(phi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A diag(d) A^T for A = [Phi, -Phi]."""
    n = phi.shape[1]
    return (phi * (d[:n] + d[n:])) @ phi.T


class BasisPursuitSolver:
    """Shares the Cholesky factor of Phi Phi^T across many solves.

    Immutable after construction; solve() is pure.
    """

    def __init__(self, phi: np.ndarray, cfg: RecoveryConfig | None = None):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError("Phi must be a 2-D array")
        self.cfg = cfg if cfg is not None else RecoveryConfig()
        self.phi = phi
        self._gram_chol = gram_cholesky(phi)

    def solve(self, y: np.ndarray) -> RecoveryResult:
        cfg = self.cfg
        phi, n = self.phi, self.phi.shape[1]
        y = _measurement(y, phi.shape[0])

        if np.linalg.norm(y) <= cfg.feas_tol:
            return RecoveryResult(
                h_hat=np.zeros(n),
                status=RecoveryStatus.OPTIMAL,
                residual=float(np.linalg.norm(y)),
                objective=0.0,
                iterations=0,
            )

        # Phi has full row rank, so every y is feasible.
        h_ls = phi.T @ cho_solve(self._gram_chol, y)
        x, iterations, converged, vertex = self._mehrotra(y, h_ls)
        if vertex is None:
            # Exact feasibility polish; keeps Optimal => residual <= feas_tol
            # meaningful in absolute terms.
            h = project_feasible(phi, self._gram_chol, y, x[:n] - x[n:])
        else:
            support, h_s = vertex
            h = np.zeros(n)
            h[support] = h_s
        residual = float(np.linalg.norm(phi @ h - y))
        status = RecoveryStatus.OPTIMAL if converged else RecoveryStatus.MAX_ITERS
        if status is RecoveryStatus.OPTIMAL and residual > cfg.feas_tol:
            status = RecoveryStatus.MAX_ITERS
        return RecoveryResult(
            h_hat=h,
            status=status,
            residual=residual,
            objective=float(np.abs(h).sum()),
            iterations=iterations,
        )

    def _crossover(
        self, b: np.ndarray, x: np.ndarray, d: np.ndarray, lam: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(S, h_S) of the vertex on the iterate's support, if a dual
        certifies it as the unique optimum; None otherwise (the IPM then
        carries on).

        d = x / s, so d > 1 is where x dominates its complementary slack.
        Most attempts fail the residual test, so it comes first and the
        rest runs only on a support that explains b.
        """
        phi = self.phi
        m, n = phi.shape
        support = np.nonzero(np.maximum(d[:n], d[n:]) > 1.0)[0]
        if not 0 < support.size <= m:
            return None
        cols = phi[:, support]
        try:
            chol = cho_factor(cols.T @ cols)
        except LinAlgError:
            return None
        h_s = cho_solve(chol, cols.T @ b)
        r = cols @ h_s - b
        if math.sqrt(r @ r) > self.cfg.feas_tol:
            return None
        sign = np.sign(h_s)
        if not (sign == np.sign(x[support] - x[n + support])).all():
            return None
        pivots = np.diagonal(chol)
        if pivots.min() <= _PIVOT_RATIO * pivots.max():
            return None  # Phi_S is numerically rank-deficient
        # Fuchs: Phi_S injective, Phi_S^T lam = sign(h_S) and
        # |Phi_j^T lam| < 1 off S make h the unique minimizer.
        lam = lam + cols @ cho_solve(chol, sign - cols.T @ lam)
        g = phi.T @ lam
        g[support] = 0.0
        if np.abs(g).max() >= 1.0 - _UNIQUE_MARGIN:
            return None
        return support, h_s

    def _mehrotra(
        self, b: np.ndarray, h_ls: np.ndarray
    ) -> tuple[np.ndarray, int, bool, tuple[np.ndarray, np.ndarray] | None]:
        """(x, iterations, converged, vertex): the last iterate, and the
        crossover's (S, h_S) when it ended the solve.

        Raises LinAlgError when an iterate stops being finite.
        """
        cfg = self.cfg
        phi = self.phi
        n = phi.shape[1]
        n2 = 2 * n

        # Starting point heuristic: least-norm primal, least-squares dual,
        # shifted into the positive orthant.  A A^T = 2 Phi Phi^T, so the
        # least-norm x is [h_ls; -h_ls] / 2 for the least-norm h_ls of
        # Phi h = b; the cost c = 1 gives A c = 0, so the dual starts at
        # lam = 0, s = c.
        x = np.concatenate((h_ls, -h_ls)) / 2.0
        lam = np.zeros(b.shape[0])
        s = np.ones(n2)
        dx = max(-1.5 * float(x.min()), 0.0)
        x = x + dx
        xs = float(x @ s)
        x = x + 0.5 * xs / float(s.sum())
        s = s + 0.5 * xs / float(x.sum())

        # z = [x; s] and each Newton step dz = [dx; ds] live in one buffer,
        # so one ratio pass serves the primal and the dual step.
        z = np.concatenate((x, s))
        x, s = z[:n2], z[n2:]
        dz_aff, dz, work = np.empty(2 * n2), np.empty(2 * n2), np.empty(2 * n2)
        rc, neg_rc, d, d_rc, x_s, r_xs, tmp = np.empty((7, n2))

        def newton(r, out):
            """Writes (dx, ds) for the complementarity residual r into out
            and returns dlam, at the current iteration's rb, rc, d and
            normal-matrix factor m_chol."""
            dx_, ds_ = out[:n2], out[n2:]
            np.divide(r, s, out=tmp)
            np.add(tmp, d_rc, out=tmp)
            rhs = -rb - _split_matvec(phi, tmp)
            dlam = cho_solve(m_chol, rhs)
            g = phi.T @ dlam
            # ds = -rc - A^T dlam, with A^T dlam = [g; -g]
            np.subtract(neg_rc[:n], g, out=ds_[:n])
            np.add(neg_rc[n:], g, out=ds_[n:])
            np.multiply(x, ds_, out=dx_)
            np.subtract(r, dx_, out=dx_)
            dx_ /= s
            return dlam

        b_scale = 1.0 + math.sqrt(b @ b)
        c_scale = 1.0 + np.sqrt(n2)  # 1 + ||c||
        iterations = 0
        for iterations in range(1, cfg.max_iters + 1):
            rb = _split_matvec(phi, x) - b
            # rc = A^T lam + s - 1, with A^T lam = [g; -g]
            g = phi.T @ lam
            np.add(g, s[:n], out=rc[:n])
            np.subtract(s[n:], g, out=rc[n:])
            rc -= 1.0
            obj = float(x.sum())
            gap = obj - float(b @ lam)
            if (
                math.sqrt(rb @ rb) / b_scale <= cfg.feas_tol
                and math.sqrt(rc @ rc) / c_scale <= cfg.feas_tol
                and abs(gap) / (1.0 + abs(obj)) <= cfg.opt_tol
            ):
                return x, iterations - 1, True, None

            np.divide(x, s, out=d)
            np.minimum(d, 1e16, out=d)
            vertex = self._crossover(b, x, d, lam)
            if vertex is not None:
                return x, iterations - 1, True, vertex
            mu = float(x @ s) / n2
            m_chol = _regularized_cho_factor(_split_normal(phi, d))
            np.multiply(d, rc, out=d_rc)
            np.negative(rc, out=neg_rc)
            np.multiply(x, s, out=x_s)

            np.negative(x_s, out=r_xs)
            newton(r_xs, dz_aff)
            ap_aff, ad_aff = _steps_to_boundary(z, dz_aff, work)
            ap_aff, ad_aff = min(1.0, ap_aff), min(1.0, ad_aff)
            np.multiply(dz_aff[:n2], ap_aff, out=work[:n2])
            np.multiply(dz_aff[n2:], ad_aff, out=work[n2:])
            work += z
            mu_aff = float(work[:n2] @ work[n2:]) / n2
            sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0) if mu > 0 else 0.0

            np.subtract(sigma * mu, x_s, out=r_xs)
            np.multiply(dz_aff[:n2], dz_aff[n2:], out=tmp)
            r_xs -= tmp
            dlam = newton(r_xs, dz)
            ap, ad = _steps_to_boundary(z, dz, work)
            eta = 0.99995
            ap, ad = min(1.0, eta * ap), min(1.0, eta * ad)
            np.multiply(dz[:n2], ap, out=work[:n2])
            np.multiply(dz[n2:], ad, out=work[n2:])
            z += work
            lam = lam + ad * dlam
            if not np.isfinite(z).all():
                raise LinAlgError(
                    f"interior-point iterate is not finite at iteration {iterations}"
                )

        return x, iterations, False, None

