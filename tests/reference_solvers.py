"""Independent solvers the tests check the package against.

projected_subgradient iterates h <- P[h - (a/t) sign(h)] where P is the
Euclidean projection onto the affine solution set, and
oracle_sparse_recover brute-forces small instances by support
enumeration; both cross-check basis pursuit's LP route, and the oracle
shares no code with it.  decoder_update is one decoder layer of the
network, before batch norm, as a standalone function, and fresh_forward
is forward() on a trace allocated for the one call.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from beamcs.network import ForwardTrace, Mode, UnrolledAutoencoder, _update, forward
from beamcs.recovery import (
    RecoveryConfig,
    RecoveryResult,
    RecoveryStatus,
    _measurement,
    cho_solve,
    gram_cholesky,
    project_feasible,
)


@dataclass(frozen=True)
class OracleRecovery:
    h_hat: np.ndarray
    objective: float
    unique: bool  # False when a distinct solution ties the objective within 1e-9


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
    cfg = cfg if cfg is not None else RecoveryConfig()
    chol = gram_cholesky(phi)
    y = _measurement(y, phi.shape[0])

    if np.linalg.norm(y) <= cfg.feas_tol:
        return RecoveryResult(
            h_hat=np.zeros(phi.shape[1]),
            status=RecoveryStatus.OPTIMAL,
            residual=float(np.linalg.norm(y)),
            objective=0.0,
            iterations=0,
        )

    h = phi.T @ cho_solve(chol, y)
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


def decoder_update(
    model: UnrolledAutoencoder, h_batch: np.ndarray, step_index: int
) -> np.ndarray:
    """Pre-BN subgradient update h - (alpha/t)(I - Phi^T Phi) sign(h).

    Evaluated in factored form s - Phi^T(Phi s); sign(0) = 0.
    """
    if step_index < 1:
        raise ValueError("step_index must be >= 1")
    h_batch = np.asarray(h_batch, dtype=model.phi.dtype)
    signs = np.sign(h_batch)
    return _update(model, h_batch, signs, signs @ model.phi.T, step_index)


def fresh_forward(
    model: UnrolledAutoencoder, h_batch: np.ndarray, mode: Mode
) -> tuple[np.ndarray, ForwardTrace]:
    """(output, trace) of forward() on a trace made for this batch."""
    trace = ForwardTrace.allocate(model, len(h_batch))
    return forward(model, h_batch, mode, trace), trace
