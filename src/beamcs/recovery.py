"""Sparse recovery from compressed measurements.

basis_pursuit solves min ||h||_1 s.t. Phi h = y through a Mehrotra
predictor-corrector interior-point method on the equivalent LP
min 1'z s.t. A z = y, z >= 0 with A = [Phi, -Phi] and z = [h+; h-].
A is never formed: every product goes through Phi alone, A v =
Phi (v+ - v-), A^T lam = [Phi^T lam; -Phi^T lam], and the normal matrix
A diag(d) A^T = Phi diag(d+ + d-) Phi^T.  That matrix is only m x m, so
one solve costs O(m^2 n) regardless of the signal length.

projected_subgradient iterates h <- P[h - (a/t) sign(h)] where P is the
Euclidean projection onto the affine solution set, and
oracle_sparse_recover brute-forces small instances by support
enumeration; both exist as independent cross-checks of the LP route.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve


class RecoveryStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


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
    residual: float  # ||Phi h_hat - y||_2 against the original system
    objective: float  # ||h_hat||_1
    iterations: int


@dataclass(frozen=True)
class OracleRecovery:
    h_hat: np.ndarray
    objective: float
    unique: bool  # False when a distinct solution ties the objective within 1e-9


def gram_cholesky(phi: np.ndarray):
    """Cholesky factor of Phi Phi^T, reusable across many recoveries."""
    phi = np.asarray(phi, dtype=float)
    try:
        return cho_factor(phi @ phi.T, lower=True)
    except LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Phi Phi^T is singular (rank-deficient measurement matrix)"
        ) from exc


def project_feasible(phi, gram_chol, y, x) -> np.ndarray:
    """Euclidean projection of x onto {h : Phi h = y}; idempotent."""
    return x + phi.T @ cho_solve(gram_chol, y - phi @ x)


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha*dv >= 0, given v > 0."""
    ratios = np.divide(-v, dv, out=np.full_like(v, np.inf), where=dv < 0)
    return float(ratios.min())


def _regularized_cho_factor(mat: np.ndarray):
    """Cholesky with escalating diagonal regularization on failure."""
    try:
        return cho_factor(mat, lower=True)
    except LinAlgError:
        pass
    eye = np.eye(mat.shape[0])
    reg = 1e-14 * max(float(np.trace(mat)) / mat.shape[0], 1.0)
    for _ in range(7):
        try:
            return cho_factor(mat + reg * eye, lower=True)
        except LinAlgError:
            reg *= 100.0
    raise np.linalg.LinAlgError("normal-equations matrix is not factorizable")


def _split_matvec(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for A = [Phi, -Phi]."""
    n = phi.shape[1]
    return phi @ (v[:n] - v[n:])


def _split_rmatvec(phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A^T lam for A = [Phi, -Phi]."""
    g = phi.T @ lam
    return np.concatenate((g, -g))


def _split_normal(phi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A diag(d) A^T for A = [Phi, -Phi]."""
    n = phi.shape[1]
    return (phi * (d[:n] + d[n:])) @ phi.T


class BasisPursuitSolver:
    """Shares the row-space factorizations of one Phi across many solves.

    Immutable after construction; solve() is pure.
    """

    def __init__(self, phi: np.ndarray, cfg: RecoveryConfig | None = None):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2:
            raise ValueError("Phi must be a 2-D array")
        if not np.isfinite(phi).all():
            raise ValueError("Phi entries must be finite")
        self.cfg = cfg if cfg is not None else RecoveryConfig()
        self.phi = phi
        m, n = phi.shape

        # Rank-deficient rows are compressed onto an orthonormal row basis
        # so the interior-point normal equations stay positive definite.
        svd_u, svd_s, _ = np.linalg.svd(phi, full_matrices=False)
        tol = max(m, n) * np.finfo(float).eps * (svd_s[0] if svd_s.size else 0.0)
        rank = int(np.sum(svd_s > tol))
        if rank == m:
            self._row_basis = None
            self._phi_work = phi
        else:
            self._row_basis = svd_u[:, :rank].T
            self._phi_work = self._row_basis @ phi
        self._gram_chol = gram_cholesky(self._phi_work)

    def _reduce(self, y: np.ndarray) -> np.ndarray:
        return y if self._row_basis is None else self._row_basis @ y

    def solve(self, y: np.ndarray) -> RecoveryResult:
        cfg = self.cfg
        phi, n = self.phi, self.phi.shape[1]
        y = np.asarray(y, dtype=float)
        if y.shape != (phi.shape[0],):
            raise ValueError(
                f"measurement length {y.shape} does not match Phi rows {phi.shape[0]}"
            )

        if np.linalg.norm(y) <= cfg.feas_tol:
            return RecoveryResult(
                h_hat=np.zeros(n),
                status=RecoveryStatus.OPTIMAL,
                residual=float(np.linalg.norm(y)),
                objective=0.0,
                iterations=0,
            )

        b = self._reduce(y)
        h_ls = self._phi_work.T @ cho_solve(self._gram_chol, b)
        ls_resid = float(np.linalg.norm(phi @ h_ls - y))
        if ls_resid > cfg.feas_tol * (1.0 + float(np.linalg.norm(y))):
            return RecoveryResult(
                h_hat=h_ls,
                status=RecoveryStatus.INFEASIBLE,
                residual=ls_resid,
                objective=float(np.abs(h_ls).sum()),
                iterations=0,
            )

        x, iterations, converged = self._mehrotra(b, h_ls)
        h = x[:n] - x[n:]
        # Exact feasibility polish; keeps Optimal => residual <= feas_tol
        # meaningful in absolute terms.
        h = project_feasible(self._phi_work, self._gram_chol, b, h)
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

    def _mehrotra(
        self, b: np.ndarray, h_ls: np.ndarray
    ) -> tuple[np.ndarray, int, bool]:
        cfg = self.cfg
        phi = self._phi_work
        n2 = 2 * phi.shape[1]

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

        b_scale = 1.0 + float(np.linalg.norm(b))
        c_scale = 1.0 + np.sqrt(n2)  # 1 + ||c||
        iterations = 0
        for iterations in range(1, cfg.max_iters + 1):
            rb = _split_matvec(phi, x) - b
            rc = _split_rmatvec(phi, lam) + s - 1.0
            obj = float(x.sum())
            gap = obj - float(b @ lam)
            if (
                np.linalg.norm(rb) / b_scale <= cfg.feas_tol
                and np.linalg.norm(rc) / c_scale <= cfg.feas_tol
                and abs(gap) / (1.0 + abs(obj)) <= cfg.opt_tol
            ):
                return x, iterations - 1, True

            mu = float(x @ s) / n2
            d = np.minimum(x / s, 1e16)
            m_chol = _regularized_cho_factor(_split_normal(phi, d))
            d_rc = d * rc

            def newton(r_xs):
                rhs = -rb - _split_matvec(phi, r_xs / s + d_rc)
                dlam = cho_solve(m_chol, rhs)
                ds_ = -rc - _split_rmatvec(phi, dlam)
                dx_ = (r_xs - x * ds_) / s
                return dx_, dlam, ds_

            dx_a, _, ds_a = newton(-x * s)
            ap_aff = min(1.0, _step_to_boundary(x, dx_a))
            ad_aff = min(1.0, _step_to_boundary(s, ds_a))
            mu_aff = float((x + ap_aff * dx_a) @ (s + ad_aff * ds_a)) / n2
            sigma = min(max((mu_aff / mu) ** 3, 0.0), 1.0) if mu > 0 else 0.0

            dx_, dlam_, ds_ = newton(sigma * mu - x * s - dx_a * ds_a)
            eta = 0.99995
            ap = min(1.0, eta * _step_to_boundary(x, dx_))
            ad = min(1.0, eta * _step_to_boundary(s, ds_))
            x = x + ap * dx_
            lam = lam + ad * dlam_
            s = s + ad * ds_
            if not (np.isfinite(x).all() and np.isfinite(s).all()):
                return np.maximum(x, 0.0), iterations, False

        return x, iterations, False


def basis_pursuit(
    phi: np.ndarray, y: np.ndarray, cfg: RecoveryConfig | None = None
) -> RecoveryResult:
    """One-shot min-l1 recovery; build a BasisPursuitSolver to amortize."""
    return BasisPursuitSolver(phi, cfg).solve(y)


def projected_subgradient(
    phi: np.ndarray,
    y: np.ndarray,
    alpha0: float = 1.0,
    cfg: RecoveryConfig | None = None,
) -> RecoveryResult:
    """Diminishing-step subgradient descent on ||h||_1 over {Phi h = y}.

    Starts from the least-norm solution, projects every iterate back onto
    the constraint set, and returns the best feasible objective seen.
    There is no duality certificate, so Optimal is declared when the best
    objective has stopped improving over the final 10% of iterations.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    cfg = cfg if cfg is not None else RecoveryConfig()
    chol = gram_cholesky(phi)

    if np.linalg.norm(y) <= cfg.feas_tol:
        return RecoveryResult(
            h_hat=np.zeros(phi.shape[1]),
            status=RecoveryStatus.OPTIMAL,
            residual=float(np.linalg.norm(y)),
            objective=0.0,
            iterations=0,
        )

    h = phi.T @ cho_solve(chol, y)
    ls_resid = float(np.linalg.norm(phi @ h - y))
    if ls_resid > cfg.feas_tol * (1.0 + float(np.linalg.norm(y))):
        return RecoveryResult(
            h_hat=h,
            status=RecoveryStatus.INFEASIBLE,
            residual=ls_resid,
            objective=float(np.abs(h).sum()),
            iterations=0,
        )

    best = h.copy()
    best_obj = float(np.abs(h).sum())
    history = [best_obj]
    for t in range(1, cfg.max_iters + 1):
        h = h - (alpha0 / t) * np.sign(h)
        h = project_feasible(phi, chol, y, h)
        obj = float(np.abs(h).sum())
        if obj < best_obj:
            best_obj = obj
            best = h.copy()
        history.append(best_obj)

    window = max(10, cfg.max_iters // 10)
    baseline = history[-window - 1] if len(history) > window else history[0]
    stalled = baseline - best_obj <= max(cfg.opt_tol, 1e-6 * max(1.0, best_obj))
    return RecoveryResult(
        h_hat=best,
        status=RecoveryStatus.OPTIMAL if stalled else RecoveryStatus.MAX_ITERS,
        residual=float(np.linalg.norm(phi @ best - y)),
        objective=best_obj,
        iterations=cfg.max_iters,
    )


def oracle_sparse_recover(
    phi: np.ndarray,
    y: np.ndarray,
    k_max: int,
    feas_tol: float = 1e-9,
) -> OracleRecovery:
    """Brute-force minimum-l1 recovery over all supports of size <= k_max.

    Small instances only; intended as an independent check of the LP
    route, so it shares no code with basis_pursuit.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = phi.shape
    if n > 24 or k_max > 3:
        raise ValueError(
            f"combinatorial budget exceeded (n={n} > 24 or k_max={k_max} > 3)"
        )
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")

    thresh = feas_tol * (1.0 + float(np.linalg.norm(y)))
    best_obj = np.inf
    best_vec: np.ndarray | None = None
    contenders: list[tuple[float, np.ndarray]] = []

    def consider(obj: float, vec: np.ndarray) -> None:
        nonlocal best_obj, best_vec, contenders
        if obj < best_obj:
            best_obj = obj
            best_vec = vec
            contenders = [(o, v) for o, v in contenders if o <= best_obj + 1e-9]
        if obj <= best_obj + 1e-9:
            contenders.append((obj, vec))

    if float(np.linalg.norm(y)) <= thresh:
        consider(0.0, np.zeros(n))
    for size in range(1, k_max + 1):
        for support in itertools.combinations(range(n), size):
            cols = phi[:, support]
            coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if float(np.linalg.norm(cols @ coef - y)) > thresh:
                continue
            vec = np.zeros(n)
            vec[list(support)] = coef
            consider(float(np.abs(coef).sum()), vec)

    if best_vec is None:
        raise ValueError(f"no feasible solution with support size <= {k_max}")

    unique = True
    for obj, vec in contenders:
        if abs(obj - best_obj) <= 1e-9 and np.linalg.norm(vec - best_vec) > 1e-8:
            unique = False
            break
    return OracleRecovery(h_hat=best_vec, objective=best_obj, unique=unique)

