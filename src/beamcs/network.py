"""Unrolled l1-minimization autoencoder: forward pass and exact gradients.

The encoder is the linear compression y = Phi h.  The decoder unrolls
projected-subgradient updates of min ||h||_1 s.t. Phi h = y, with the
pseudoinverse replaced by the transpose:

    h(1)   = Phi^T y
    h(t+1) = h(t) - (alpha/t) (I - Phi^T Phi) sign(h(t)),  t = 1..L

Every decoder layer output passes through batch normalization, and the
final output through ReLU.  The (I - Phi^T Phi) product is never
materialized; s - Phi^T(Phi s) keeps the parameter count at 2mN and the
per-sample cost at O(mNL).

Gradients are hand-derived reverse-mode for this fixed graph (no autodiff
framework): sign(.) is treated as locally constant, ReLU' is 0 at and
below 0, and batch-norm backward includes the batch-statistics terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Mode(enum.Enum):
    TRAIN = "train"
    INFER = "infer"


@dataclass
class BatchNormLayer:
    """Per-coordinate batch normalization with learnable affine parameters.

    Uses biased (population) batch variance for normalization and for the
    running updates; Infer mode standardizes by the running statistics.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.99

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if np.any(self.running_var < 0):
            raise ValueError("running variance must be nonnegative")
        shapes = {
            self.gamma.shape,
            self.beta.shape,
            self.running_mean.shape,
            self.running_var.shape,
        }
        if len(shapes) != 1:
            raise ValueError("batch-norm parameter shapes must agree")

    @classmethod
    def identity(
        cls, width: int, eps: float = 1e-5, momentum: float = 0.99
    ) -> "BatchNormLayer":
        return cls(
            gamma=np.ones(width),
            beta=np.zeros(width),
            running_mean=np.zeros(width),
            running_var=np.ones(width),
            eps=eps,
            momentum=momentum,
        )

    def forward(
        self,
        x: np.ndarray,
        mode: Mode,
        *,
        x_hat: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Normalize a (batch, width) block; returns (output, cache).

        cache = (x_hat, inv_std) feeds backward().  Train mode requires a
        batch of at least 2 and folds the batch statistics into the
        running statistics.  x_hat and out, when given, are written
        and returned instead of fresh arrays; x_hat may be x itself, which
        then is normalized in place.
        """
        if x.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ValueError(f"expected (batch, {self.gamma.shape[0]}), got {x.shape}")
        if mode is Mode.TRAIN:
            if x.shape[0] < 2:
                raise ValueError("train-mode batch norm needs batch size >= 2")
            mean = x.mean(axis=0)
            x_hat = np.subtract(x, mean, out=x_hat)
            var = np.einsum("ij,ij->j", x_hat, x_hat) / x.shape[0]
            self.running_mean = (
                self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1.0 - self.momentum) * var
            )
        else:
            x_hat = np.subtract(x, self.running_mean, out=x_hat)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        out = np.multiply(self.gamma, x_hat, out=out)
        out += self.beta
        return out, (x_hat, inv_std)

    def backward(
        self,
        grad_out: np.ndarray,
        cache: tuple[np.ndarray, np.ndarray],
        mode: Mode,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (grad_x, grad_gamma, grad_beta).

        With grad_xhat = gamma * grad_out, the batch sums the train-mode
        gradient needs are gamma * grad_beta and gamma * grad_gamma, so
        grad_x = gamma inv_std (g - grad_beta/B - x_hat grad_gamma/B).
        grad_x is written into out when given, which must not be grad_out.
        """
        x_hat, inv_std = cache
        grad_beta = grad_out.sum(axis=0)
        grad_gamma = np.einsum("ij,ij->j", grad_out, x_hat)
        scale = self.gamma * inv_std
        if mode is Mode.INFER:
            return np.multiply(grad_out, scale, out=out), grad_gamma, grad_beta
        batch = grad_out.shape[0]
        grad_x = np.multiply(x_hat, grad_gamma / batch, out=out)
        np.subtract(grad_out, grad_x, out=grad_x)
        grad_x -= grad_beta / batch
        grad_x *= scale
        return grad_x, grad_gamma, grad_beta


@dataclass
class UnrolledAutoencoder:
    """All trainable state: Phi, the step-size scalar, and the BN layers.

    num_updates is the number L of subgradient updates; the decoder has
    L + 1 layers counting the initial Phi^T y, each followed by batch
    norm, with ReLU after the last.
    """

    phi: np.ndarray  # (m, width)
    alpha: float
    num_updates: int
    bn_layers: list[BatchNormLayer] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.phi.ndim != 2:
            raise ValueError("Phi must be 2-D")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.num_updates < 0:
            raise ValueError("num_updates must be nonnegative")
        if len(self.bn_layers) != self.num_updates + 1:
            raise ValueError(
                f"need {self.num_updates + 1} batch-norm layers, "
                f"got {len(self.bn_layers)}"
            )
        for layer in self.bn_layers:
            if layer.gamma.shape[0] != self.width:
                raise ValueError("batch-norm width must match Phi columns")

    @property
    def num_measurements(self) -> int:
        return self.phi.shape[0]

    @property
    def width(self) -> int:
        return self.phi.shape[1]


@dataclass
class _Buffers:
    """Full-size storage behind a ForwardTrace, allocated once and
    overwritten by every forward(..., reuse=trace) it can hold."""

    measurements: np.ndarray  # (rows, m)
    x_hat: np.ndarray  # (L+1, rows, width): batch-norm inputs, normalized in place
    signs: np.ndarray  # (L, rows, width)
    signs_proj: np.ndarray  # (L, rows, m)
    post_bn: np.ndarray  # (rows, width)
    output: np.ndarray  # (rows, width)
    grads: np.ndarray | None = None  # (2, rows, width), made by the first backward
    generation: int = 0  # forward calls written so far; a trace keeps its own

    @classmethod
    def allocate(cls, model: UnrolledAutoencoder, rows: int) -> "_Buffers":
        m, width, steps = model.num_measurements, model.width, model.num_updates
        return cls(
            measurements=np.empty((rows, m)),
            x_hat=np.empty((steps + 1, rows, width)),
            signs=np.empty((steps, rows, width)),
            signs_proj=np.empty((steps, rows, m)),
            post_bn=np.empty((rows, width)),
            output=np.empty((rows, width)),
        )

    def holds(self, model: UnrolledAutoencoder, rows: int) -> bool:
        return (
            self.x_hat.shape[0] == model.num_updates + 1
            and self.x_hat.shape[1] >= rows
            and self.x_hat.shape[2] == model.width
            and self.measurements.shape[1] == model.num_measurements
        )


@dataclass
class ForwardTrace:
    """Intermediates recorded by forward() for the backward pass.

    The arrays are leading-row views of buffers that the next
    forward(..., reuse=this trace) overwrites; backward() then rejects
    this trace, as its generation no longer matches the buffers'.
    """

    mode: Mode
    inputs: np.ndarray  # (batch, width), the caller's array
    measurements: np.ndarray  # (batch, m)
    post_bn: np.ndarray  # (batch, width), output of the last batch norm
    bn_caches: list[tuple[np.ndarray, np.ndarray]]  # (x_hat, inv_std), length L+1
    signs: np.ndarray  # (L, batch, width)
    signs_proj: np.ndarray  # (L, batch, m), sign @ Phi^T
    output: np.ndarray
    generation: int
    buffers: _Buffers = field(repr=False)


@dataclass
class Gradients:
    """Loss gradients for every trainable parameter group."""

    d_phi: np.ndarray
    d_alpha: float
    d_gammas: list[np.ndarray]
    d_betas: list[np.ndarray]


def encode(
    model: UnrolledAutoencoder, h_batch: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Linear compression of a (batch, width) block: row i maps to Phi h_i.

    Written into out when given.
    """
    h_batch = np.asarray(h_batch, dtype=float)
    if h_batch.ndim != 2 or h_batch.shape[1] != model.width:
        raise ValueError(f"expected (batch, {model.width}), got {h_batch.shape}")
    return np.matmul(h_batch, model.phi.T, out=out)


def decoder_init(
    model: UnrolledAutoencoder, y_batch: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """First decoder layer: Phi^T y per sample, written into out when given."""
    y_batch = np.asarray(y_batch, dtype=float)
    if y_batch.ndim != 2 or y_batch.shape[1] != model.num_measurements:
        raise ValueError(
            f"expected (batch, {model.num_measurements}), got {y_batch.shape}"
        )
    return np.matmul(y_batch, model.phi, out=out)


def _update(
    model: UnrolledAutoencoder,
    h_batch: np.ndarray,
    signs: np.ndarray,
    signs_proj: np.ndarray,
    step_index: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """h + (alpha/t)(sp Phi - s), built in place in the sp Phi buffer.

    Bit-identical to h - (alpha/t)(s - sp Phi): negation is exact.
    """
    a = np.matmul(signs_proj, model.phi, out=out)
    a -= signs
    a *= model.alpha / step_index
    a += h_batch
    return a


def decoder_update(
    model: UnrolledAutoencoder, h_batch: np.ndarray, step_index: int
) -> np.ndarray:
    """Pre-BN subgradient update h - (alpha/t)(I - Phi^T Phi) sign(h).

    Evaluated in factored form s - Phi^T(Phi s); sign(0) = 0.
    """
    if step_index < 1:
        raise ValueError("step_index must be >= 1")
    h_batch = np.asarray(h_batch, dtype=float)
    signs = np.sign(h_batch)
    return _update(model, h_batch, signs, signs @ model.phi.T, step_index)


def forward(
    model: UnrolledAutoencoder,
    h_batch: np.ndarray,
    mode: Mode = Mode.TRAIN,
    reuse: ForwardTrace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Full reconstruction pass; Train mode updates BN running statistics.

    reuse takes the trace of an earlier call.  When its buffers hold this
    batch (same model shape, at least as many rows) they are overwritten
    in place, the leading rows for a smaller batch, so the returned
    output and trace share memory with reuse and every array read from
    reuse before the call now holds this batch's values.  h_batch must
    not share memory with those buffers.
    """
    h_batch = np.asarray(h_batch, dtype=float)
    rows = h_batch.shape[0] if h_batch.ndim == 2 else 0  # encode rejects the rest
    buf = None if reuse is None else reuse.buffers
    if buf is None or not buf.holds(model, rows):
        buf = _Buffers.allocate(model, rows)
    x_hat = buf.x_hat[:, :rows]
    signs = buf.signs[:, :rows]
    signs_proj = buf.signs_proj[:, :rows]
    z = buf.post_bn[:rows]

    # Each layer's update is built in its x_hat block, which batch norm
    # then normalizes in place, writing its output over z.
    y = encode(model, h_batch, out=buf.measurements[:rows])
    buf.generation += 1
    a = decoder_init(model, y, out=x_hat[0])
    caches = [model.bn_layers[0].forward(a, mode, x_hat=a, out=z)[1]]
    for t in range(1, model.num_updates + 1):
        s = np.sign(z, out=signs[t - 1])
        sp = np.matmul(s, model.phi.T, out=signs_proj[t - 1])
        a = _update(model, z, s, sp, t, out=x_hat[t])
        caches.append(model.bn_layers[t].forward(a, mode, x_hat=a, out=z)[1])

    output = np.maximum(z, 0.0, out=buf.output[:rows])
    trace = ForwardTrace(
        mode=mode,
        inputs=h_batch,
        measurements=y,
        post_bn=z,
        bn_caches=caches,
        signs=signs,
        signs_proj=signs_proj,
        output=output,
        generation=buf.generation,
        buffers=buf,
    )
    return output, trace


def mse_loss(
    h_batch: np.ndarray, h_hat_batch: np.ndarray, out: np.ndarray | None = None
) -> float:
    """Mean over samples of the squared reconstruction 2-norm.

    out, when given, holds the squared errors; it may be h_hat_batch.
    """
    h_batch = np.asarray(h_batch, dtype=float)
    h_hat_batch = np.asarray(h_hat_batch, dtype=float)
    if h_batch.shape != h_hat_batch.shape:
        raise ValueError(
            f"shape mismatch: {h_batch.shape} vs {h_hat_batch.shape}"
        )
    diff = np.subtract(h_batch, h_hat_batch, out=out)
    diff *= diff
    return float(np.sum(diff) / h_batch.shape[0])


def backward(
    model: UnrolledAutoencoder, trace: ForwardTrace, h_batch: np.ndarray
) -> Gradients:
    """Exact reverse-mode gradients of the reconstruction loss.

    Accumulates the Phi contributions from the encoder, the Phi^T y
    layer, and every (I - Phi^T Phi) term, always in factored form.  The
    sign path carries zero derivative.
    """
    h_batch = np.asarray(h_batch, dtype=float)
    if trace.generation != trace.buffers.generation:
        raise ValueError("trace was overwritten by a later forward(..., reuse=...)")
    if trace.inputs.shape != h_batch.shape or not np.array_equal(
        trace.inputs, h_batch
    ):
        raise ValueError("trace does not match this batch")

    phi = model.phi
    batch = h_batch.shape[0]
    d_phi = np.zeros_like(phi)
    d_alpha = 0.0
    d_gammas: list[np.ndarray] = [np.empty(0)] * (model.num_updates + 1)
    d_betas: list[np.ndarray] = [np.empty(0)] * (model.num_updates + 1)

    # The gradient alternates between two buffers of the trace's storage;
    # the forward intermediates are only read.
    buf = trace.buffers
    if buf.grads is None:
        buf.grads = np.empty((2,) + buf.output.shape)
    g, spare = buf.grads[0, :batch], buf.grads[1, :batch]
    np.subtract(trace.output, h_batch, out=g)
    g *= 2.0 / batch
    g *= trace.post_bn > 0  # ReLU'(x) = 0 for x <= 0

    for t in range(model.num_updates, 0, -1):
        grad_x, d_gammas[t], d_betas[t] = model.bn_layers[t].backward(
            g, trace.bn_caches[t], trace.mode, out=spare
        )
        g, spare = grad_x, g
        s = trace.signs[t - 1]
        sp = trace.signs_proj[t - 1]
        gp = g @ phi.T
        # <g, s - sp Phi> = <g, s> - <g Phi^T, sp>
        d_alpha -= (float(np.vdot(g, s)) - float(np.vdot(gp, sp))) / t
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
        # dL/d post_bn[t-1] equals g: the sign branch is locally constant.

    g, d_gammas[0], d_betas[0] = model.bn_layers[0].backward(
        g, trace.bn_caches[0], trace.mode, out=spare
    )
    # First layer a = y Phi with y = h Phi^T: direct term plus the
    # dependence through the encoder.
    d_phi += trace.measurements.T @ g
    d_y = g @ phi.T
    d_phi += d_y.T @ h_batch

    return Gradients(d_phi=d_phi, d_alpha=d_alpha, d_gammas=d_gammas, d_betas=d_betas)
