"""Computed operation counts and bytes moved, from array shapes alone.

Each count walks the array operations of the beamcs code it models,
charging a matrix product (p x q)(q x r) 2pqr flops and an elementwise
or reduction pass one flop per element, and charging 8 bytes for every
float64 read or written by each operation as if nothing stayed in cache.
The numbers are labelled "computed": no cache behaviour and no roofline
bound stand behind them.
"""

from __future__ import annotations


class _Tally:
    def __init__(self) -> None:
        self.flops = 0
        self.words = 0

    def matmul(self, p: int, q: int, r: int, times: int = 1) -> None:
        self.flops += times * 2 * p * q * r
        self.words += times * (p * q + q * r + p * r)

    def elementwise(self, size: int, inputs: int = 1, times: int = 1) -> None:
        self.flops += times * size
        self.words += times * size * (inputs + 1)

    def result(self) -> tuple[int, int]:
        return self.flops, 8 * self.words


def train_step(batch: int, m: int, width: int, updates: int) -> tuple[int, int]:
    """(flops, bytes) of one SGD step: network.forward, mse_loss,
    network.backward and the parameter update, at (batch, m, width, T)."""
    b, n, layers = batch, width, updates + 1
    bn = b * n
    k = _Tally()
    # forward: encode, Phi^T y, then per update sign, two products and
    # the three-term combination; batch norm on every layer; final ReLU
    k.matmul(b, n, m)
    k.matmul(b, m, n)
    k.elementwise(bn, times=updates)
    k.matmul(b, n, m, times=updates)
    k.matmul(b, m, n, times=updates)
    k.elementwise(bn, inputs=2, times=3 * updates)
    k.elementwise(bn, times=layers * 4)  # mean, var (2 passes), x - mean
    k.elementwise(bn, inputs=2, times=layers * 3)  # * inv_std, * gamma, + beta
    k.elementwise(bn)
    k.elementwise(bn, inputs=2, times=2)  # loss
    # backward: loss and ReLU gradient, then per layer batch norm and,
    # per update, v = s - sp Phi, the alpha term and three Phi products
    k.elementwise(bn, inputs=2, times=3)
    k.elementwise(bn, inputs=2, times=layers * 9)
    k.matmul(b, m, n, times=updates)
    k.elementwise(bn, inputs=2, times=2 * updates)
    k.matmul(b, n, m, times=updates)
    k.matmul(m, b, n, times=2 * updates)
    k.elementwise(m * n, inputs=2, times=3 * updates)
    k.matmul(m, b, n, times=2)  # encoder and Phi^T y terms
    k.matmul(b, n, m)
    k.elementwise(m * n, inputs=2, times=2)
    # SGD on Phi and every gamma / beta
    k.elementwise(m * n, inputs=2, times=2)
    k.elementwise(n, inputs=2, times=4 * layers)
    return k.result()


def ipm_iteration(m: int, n2: int) -> tuple[int, int]:
    """(flops, bytes) of one Mehrotra iteration of BasisPursuitSolver on the
    m x n2 sign-split system A = [Phi, -Phi]."""
    k = _Tally()
    # residuals rb, rc, objective, gap and convergence norms
    k.matmul(m, n2, 1, times=2)
    k.elementwise(n2, inputs=2, times=6)
    k.elementwise(m, inputs=2, times=3)
    # scaling d = min(x/s), normal matrix (A*d) A^T, its Cholesky factor
    k.elementwise(n2, inputs=2, times=2)
    k.elementwise(m * n2, inputs=2)
    k.matmul(m, n2, m)
    k.elementwise(m * m, inputs=2, times=2)
    k.flops += m**3 // 3
    k.words += m * m
    # two Newton solves: three matvecs with A, one triangular pair, and
    # the elementwise right-hand side and back-substitution terms
    k.matmul(m, n2, 1, times=6)
    k.flops += 2 * 2 * m * m
    k.words += 2 * m * m
    k.elementwise(n2, inputs=2, times=2 * 6)
    # step lengths, affine mu, centring term, the update and finite checks
    k.elementwise(n2, inputs=2, times=4 * 3)
    k.elementwise(n2, inputs=2, times=4 + 3 + 4 + 2)
    k.elementwise(m, inputs=2, times=2)
    return k.result()
