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
        self, x: np.ndarray, mode: Mode, update_running: bool = True
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Normalize a (batch, width) block; returns (output, cache).

        cache = (x_hat, inv_std) feeds backward().  Train mode requires a
        batch of at least 2 and by default folds the batch statistics into
        the running statistics.
        """
        if x.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ValueError(f"expected (batch, {self.gamma.shape[0]}), got {x.shape}")
        if mode is Mode.TRAIN:
            if x.shape[0] < 2:
                raise ValueError("train-mode batch norm needs batch size >= 2")
            mean = x.mean(axis=0)
            x_hat = x - mean
            var = np.einsum("ij,ij->j", x_hat, x_hat) / x.shape[0]
            if update_running:
                self.running_mean = (
                    self.momentum * self.running_mean + (1.0 - self.momentum) * mean
                )
                self.running_var = (
                    self.momentum * self.running_var + (1.0 - self.momentum) * var
                )
        else:
            x_hat = x - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        out = self.gamma * x_hat
        out += self.beta
        return out, (x_hat, inv_std)

    def backward(
        self, grad_out: np.ndarray, cache: tuple[np.ndarray, np.ndarray], mode: Mode
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (grad_x, grad_gamma, grad_beta).

        With grad_xhat = gamma * grad_out, the batch sums the train-mode
        gradient needs are gamma * grad_beta and gamma * grad_gamma, so
        grad_x = gamma inv_std (g - grad_beta/B - x_hat grad_gamma/B).
        """
        x_hat, inv_std = cache
        grad_beta = grad_out.sum(axis=0)
        grad_gamma = np.einsum("ij,ij->j", grad_out, x_hat)
        scale = self.gamma * inv_std
        if mode is Mode.INFER:
            return grad_out * scale, grad_gamma, grad_beta
        batch = grad_out.shape[0]
        grad_x = x_hat * (grad_gamma / batch)
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
class ForwardTrace:
    """Intermediates recorded by forward() for the backward pass."""

    mode: Mode
    inputs: np.ndarray  # (batch, width)
    measurements: np.ndarray  # (batch, m)
    post_bn: list[np.ndarray]  # length L+1
    bn_caches: list[tuple[np.ndarray, np.ndarray]]
    signs: list[np.ndarray]  # length L
    signs_proj: list[np.ndarray]  # sign @ Phi^T, length L
    output: np.ndarray


@dataclass
class Gradients:
    """Loss gradients for every trainable parameter group."""

    d_phi: np.ndarray
    d_alpha: float
    d_gammas: list[np.ndarray]
    d_betas: list[np.ndarray]


def encode(model: UnrolledAutoencoder, h_batch: np.ndarray) -> np.ndarray:
    """Linear compression of a (batch, width) block: row i maps to Phi h_i."""
    h_batch = np.asarray(h_batch, dtype=float)
    if h_batch.ndim != 2 or h_batch.shape[1] != model.width:
        raise ValueError(f"expected (batch, {model.width}), got {h_batch.shape}")
    return h_batch @ model.phi.T


def decoder_init(model: UnrolledAutoencoder, y_batch: np.ndarray) -> np.ndarray:
    """First decoder layer: Phi^T y per sample."""
    y_batch = np.asarray(y_batch, dtype=float)
    if y_batch.ndim != 2 or y_batch.shape[1] != model.num_measurements:
        raise ValueError(
            f"expected (batch, {model.num_measurements}), got {y_batch.shape}"
        )
    return y_batch @ model.phi


def _update(
    model: UnrolledAutoencoder,
    h_batch: np.ndarray,
    signs: np.ndarray,
    signs_proj: np.ndarray,
    step_index: int,
) -> np.ndarray:
    """h + (alpha/t)(sp Phi - s), built in place in the sp Phi buffer.

    Bit-identical to h - (alpha/t)(s - sp Phi): negation is exact.
    """
    a = signs_proj @ model.phi
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
    model: UnrolledAutoencoder, h_batch: np.ndarray, mode: Mode = Mode.TRAIN
) -> tuple[np.ndarray, ForwardTrace]:
    """Full reconstruction pass; Train mode updates BN running statistics."""
    h_batch = np.asarray(h_batch, dtype=float)
    y = encode(model, h_batch)

    post_bn: list[np.ndarray] = []
    caches: list[tuple[np.ndarray, np.ndarray]] = []
    signs: list[np.ndarray] = []
    signs_proj: list[np.ndarray] = []

    z, cache = model.bn_layers[0].forward(decoder_init(model, y), mode)
    post_bn.append(z)
    caches.append(cache)

    for t in range(1, model.num_updates + 1):
        s = np.sign(z)
        sp = s @ model.phi.T
        signs.append(s)
        signs_proj.append(sp)
        z, cache = model.bn_layers[t].forward(_update(model, z, s, sp, t), mode)
        post_bn.append(z)
        caches.append(cache)

    output = np.maximum(z, 0.0)
    trace = ForwardTrace(
        mode=mode,
        inputs=h_batch,
        measurements=y,
        post_bn=post_bn,
        bn_caches=caches,
        signs=signs,
        signs_proj=signs_proj,
        output=output,
    )
    return output, trace


def mse_loss(h_batch: np.ndarray, h_hat_batch: np.ndarray) -> float:
    """Mean over samples of the squared reconstruction 2-norm."""
    h_batch = np.asarray(h_batch, dtype=float)
    h_hat_batch = np.asarray(h_hat_batch, dtype=float)
    if h_batch.shape != h_hat_batch.shape:
        raise ValueError(
            f"shape mismatch: {h_batch.shape} vs {h_hat_batch.shape}"
        )
    diff = h_batch - h_hat_batch
    return float(np.sum(diff * diff) / h_batch.shape[0])


def backward(
    model: UnrolledAutoencoder, trace: ForwardTrace, h_batch: np.ndarray
) -> Gradients:
    """Exact reverse-mode gradients of the reconstruction loss.

    Accumulates the Phi contributions from the encoder, the Phi^T y
    layer, and every (I - Phi^T Phi) term, always in factored form.  The
    sign path carries zero derivative.
    """
    h_batch = np.asarray(h_batch, dtype=float)
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

    g = trace.output - h_batch
    g *= 2.0 / batch
    g *= trace.post_bn[-1] > 0  # ReLU'(x) = 0 for x <= 0

    for t in range(model.num_updates, 0, -1):
        g, d_gammas[t], d_betas[t] = model.bn_layers[t].backward(
            g, trace.bn_caches[t], trace.mode
        )
        s = trace.signs[t - 1]
        sp = trace.signs_proj[t - 1]
        gp = g @ phi.T
        # <g, s - sp Phi> = <g, s> - <g Phi^T, sp>
        d_alpha -= (float(np.vdot(g, s)) - float(np.vdot(gp, sp))) / t
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
        # dL/d post_bn[t-1] equals g: the sign branch is locally constant.

    g, d_gammas[0], d_betas[0] = model.bn_layers[0].backward(
        g, trace.bn_caches[0], trace.mode
    )
    # First layer a = y Phi with y = h Phi^T: direct term plus the
    # dependence through the encoder.
    d_phi += trace.measurements.T @ g
    d_y = g @ phi.T
    d_phi += d_y.T @ h_batch

    return Gradients(d_phi=d_phi, d_alpha=d_alpha, d_gammas=d_gammas, d_betas=d_betas)
