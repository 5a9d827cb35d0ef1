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

forward() fills a ForwardTrace that the caller allocates and passes in,
and refuses one that does not fit the batch; backward() reads the trace
together with the batch it holds: per layer the centred batch-norm
input and its 1/std vector, and per update the signs and their
projection.  A trace's blocks, backward()'s two gradient blocks among
them, are carved from one allocation, each starting on a page boundary:
where a pass's input and output lie modulo the page size follows from
the shapes, not from the allocator, and at the paper's shapes no pass
writes its output a few bytes above its input (4K aliasing).  A
training run allocates one trace, which every SGD step and every dev
evaluation refills in place.  Only a train-mode pass leaves a batch
for backward(): inference mode scores the dev split and is never
differentiated.

Every pass runs in the dtype of the model's Phi: float32 for the models
training builds, float64 for the finite-difference checks.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np


# Batch-norm constants shared by every layer.
BN_EPS = 1e-5
BN_MOMENTUM = 0.99

_PAGE = 4096  # bytes


def page_aligned(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Uninitialized arrays of the given (shape, dtype), carved from one
    allocation, each starting on a page boundary.

    A pass whose output lies a little above its input modulo the page
    size stalls: each load shares its low 12 address bits with a store
    just made (4K aliasing).  Where blocks are laid out by the allocator,
    which offsets a pass gets is chance; here a pass from the leading
    rows of one block into those of another reads and writes at equal
    offsets.
    """
    offsets = [0]
    for shape, dtype in specs:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        offsets.append(offsets[-1] - (-nbytes // _PAGE) * _PAGE)
    raw = np.empty(offsets[-1] + _PAGE, np.uint8)
    base = -raw.ctypes.data % _PAGE
    return [
        np.ndarray(shape, dtype, buffer=raw, offset=base + offset)
        for (shape, dtype), offset in zip(specs, offsets)
    ]


class Mode(enum.Enum):
    TRAIN = "train"
    INFER = "infer"


@functools.lru_cache(maxsize=8)
def _ones(rows: int, dtype: np.dtype) -> np.ndarray:
    """Read-only ones vector: ones @ x sums the columns of a (rows, width)
    block as one BLAS matrix-vector product, faster than a numpy axis-0
    reduction."""
    ones = np.ones(rows, dtype)
    ones.flags.writeable = False
    return ones


@dataclass
class BatchNormLayer:
    """Per-coordinate batch normalization with learnable affine parameters.

    Uses biased (population) batch variance for normalization and for the
    running updates, with momentum BN_MOMENTUM; Infer mode standardizes by
    the running statistics.  BN_EPS is added to every variance.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(self.running_var >= 0):  # a NaN fails this too
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
        cls, width: int, dtype: np.dtype | type = np.float64
    ) -> "BatchNormLayer":
        return cls(
            gamma=np.ones(width, dtype),
            beta=np.zeros(width, dtype),
            running_mean=np.zeros(width, dtype),
            running_var=np.ones(width, dtype),
        )

    def forward(self, a: np.ndarray, mode: Mode, out: np.ndarray) -> np.ndarray:
        """Normalizes a (batch, width) block into out; returns inv_std.

        a is centred in place by the batch (train) or running (infer)
        mean; a * inv_std is the normalized x_hat, which is never formed,
        and a with inv_std is what backward() reads.  Train mode requires
        a batch of at least 2 and folds the batch statistics into the
        running statistics.
        """
        if a.ndim != 2 or a.shape[1] != self.gamma.shape[0]:
            raise ValueError(f"expected (batch, {self.gamma.shape[0]}), got {a.shape}")
        if mode is Mode.TRAIN:
            batch = a.shape[0]
            if batch < 2:
                raise ValueError("train-mode batch norm needs batch size >= 2")
            mean = (_ones(batch, a.dtype) @ a) / batch
            a -= mean
            var = np.einsum("ij,ij->j", a, a) / batch
            self.running_mean = (
                BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
            )
            self.running_var = (
                BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
            )
        else:
            a -= self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        # gamma x_hat + beta, with the scaling folded into one pass
        np.multiply(a, self.gamma * inv_std, out=out)
        out += self.beta
        return inv_std

    def backward(
        self, g: np.ndarray, x_c: np.ndarray, inv_std: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Writes grad_x into out and returns (grad_gamma, grad_beta), for
        the output gradient g of a train-mode forward() that left x_c and
        inv_std, through the batch statistics.

        grad_gamma is inv_std times the column sums of g * x_c.  With
        grad_xhat = gamma * g, the batch sums the gradient needs are
        gamma * grad_beta and gamma * grad_gamma, so
        grad_x = gamma inv_std (g - grad_beta/B - x_c inv_std grad_gamma/B).
        out must not be g.
        """
        batch = g.shape[0]
        grad_beta = _ones(batch, g.dtype) @ g
        grad_gamma = np.einsum("ij,ij->j", g, x_c)
        grad_gamma *= inv_std
        np.multiply(x_c, grad_gamma * (inv_std / batch), out=out)
        np.subtract(g, out, out=out)
        out -= grad_beta / batch
        out *= self.gamma * inv_std
        return grad_gamma, grad_beta


@dataclass
class UnrolledAutoencoder:
    """All trainable state: Phi, the step-size scalar, and the BN layers.

    num_updates is the number L of subgradient updates; the decoder has
    L + 1 layers counting the initial Phi^T y, each followed by batch
    norm, with ReLU after the last.  The network computes in the dtype
    of Phi, which every batch-norm array shares: inputs are cast to it,
    and traces and gradients are made in it.
    """

    phi: np.ndarray  # (m, width)
    alpha: float
    num_updates: int
    bn_layers: list[BatchNormLayer]

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
            arrays = (layer.gamma, layer.beta, layer.running_mean, layer.running_var)
            if any(a.dtype != self.phi.dtype for a in arrays):
                raise ValueError("batch-norm parameters must share Phi's dtype")

    @property
    def num_measurements(self) -> int:
        return self.phi.shape[0]

    @property
    def width(self) -> int:
        return self.phi.shape[1]


@dataclass
class ForwardTrace:
    """Intermediates of the last forward() pass given this trace, for
    backward().

    The arrays hold up to capacity rows; forward() refills their leading
    rows with each batch, so the trace always describes the batch it was
    last given.  grads is backward()'s working storage.
    inputs is that batch once a train-mode pass completes; it is None
    while a pass is under way and after an infer-mode pass or a pass
    that raised or was refused, and backward() refuses the trace then.
    """

    inputs: np.ndarray | None  # (batch, width), the caller's array
    measurements: np.ndarray  # (capacity, m)
    x_hat: np.ndarray  # (L+1, capacity, width): batch-norm inputs, centred in place
    inv_stds: list[np.ndarray]  # L+1 batch-norm 1/std vectors
    signs: np.ndarray  # (L, capacity, width)
    sign_masks: np.ndarray  # (2, capacity, width) bool: z > 0 and z < 0 of one update
    signs_proj: np.ndarray  # (L, capacity, m), sign @ Phi^T
    post_bn: np.ndarray  # (capacity, width), output of the last batch norm
    output: np.ndarray  # (capacity, width)
    grads: np.ndarray  # (2, capacity, width), backward()'s two gradient blocks

    @classmethod
    def allocate(cls, model: UnrolledAutoencoder, rows: int) -> "ForwardTrace":
        """A trace of capacity rows whose blocks are page_aligned."""
        m, width, steps = model.num_measurements, model.width, model.num_updates
        dtype = model.phi.dtype
        blocks = {
            "measurements": ((rows, m), dtype),
            "x_hat": ((steps + 1, rows, width), dtype),
            "signs": ((steps, rows, width), dtype),
            "sign_masks": ((2, rows, width), bool),
            "signs_proj": ((steps, rows, m), dtype),
            "post_bn": ((rows, width), dtype),
            "output": ((rows, width), dtype),
            "grads": ((2, rows, width), dtype),
        }
        arrays = page_aligned(*blocks.values())
        return cls(inputs=None, inv_stds=[], **dict(zip(blocks, arrays)))

    def holds(self, model: UnrolledAutoencoder, rows: int) -> None:
        """Raises ValueError unless this trace takes a batch of rows for
        model: the model's dtype, layer count, width and m, and at least
        rows rows."""
        layers, capacity, width = self.x_hat.shape
        have = (self.x_hat.dtype.name, layers, width, self.measurements.shape[1])
        want = (
            model.phi.dtype.name, model.num_updates + 1, model.width,
            model.num_measurements,
        )
        if have != want or capacity < rows:
            raise ValueError(
                f"trace of {capacity} rows cannot hold {rows}: its (dtype, "
                f"layers, width, m) are {have}, the model's {want}"
            )


@dataclass
class Gradients:
    """Loss gradients for every trainable parameter group."""

    d_phi: np.ndarray
    d_alpha: float
    d_gammas: list[np.ndarray]
    d_betas: list[np.ndarray]


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


def forward(
    model: UnrolledAutoencoder, h_batch: np.ndarray, mode: Mode, trace: ForwardTrace
) -> np.ndarray:
    """Full reconstruction pass into the caller's trace; returns the
    output, a view of the trace's storage.  Train mode updates BN running
    statistics.

    The trace must hold the batch (ForwardTrace.holds); its leading rows
    are refilled.  h_batch must not share memory with the trace; after a
    train-mode pass backward() reads it as the batch, so it must not
    change before that call.
    """
    trace.inputs = None  # set last, by train mode only: see ForwardTrace
    h_batch = np.asarray(h_batch, dtype=model.phi.dtype)
    if h_batch.ndim != 2 or h_batch.shape[1] != model.width:
        raise ValueError(f"expected (batch, {model.width}), got {h_batch.shape}")
    rows = h_batch.shape[0]
    trace.holds(model, rows)
    x_hat = trace.x_hat[:, :rows]
    signs = trace.signs[:, :rows]
    signs_proj = trace.signs_proj[:, :rows]
    positive, negative = trace.sign_masks[:, :rows]
    z = trace.post_bn[:rows]

    # y = h Phi^T, then each layer's update is built in its x_hat block,
    # which batch norm centres in place, writing its output over z.
    y = np.matmul(h_batch, model.phi.T, out=trace.measurements[:rows])
    a = np.matmul(y, model.phi, out=x_hat[0])
    inv_stds = [model.bn_layers[0].forward(a, mode, z)]
    for t in range(1, model.num_updates + 1):
        # sign(z) as (z > 0) - (z < 0): the bits of np.sign, ±0 included,
        # and faster; a NaN gives 0 where np.sign gives NaN, but the NaN in
        # z makes the loss NaN all the same
        np.greater(z, 0.0, out=positive)
        np.less(z, 0.0, out=negative)
        s = np.subtract(
            positive.view(np.int8), negative.view(np.int8),
            out=signs[t - 1], casting="unsafe",
        )
        sp = np.matmul(s, model.phi.T, out=signs_proj[t - 1])
        a = _update(model, z, s, sp, t, out=x_hat[t])
        inv_stds.append(model.bn_layers[t].forward(a, mode, z))

    output = np.maximum(z, 0.0, out=trace.output[:rows])
    trace.inv_stds = inv_stds
    if mode is Mode.TRAIN:
        trace.inputs = h_batch
    return output


def mse_loss(
    h_batch: np.ndarray, h_hat_batch: np.ndarray, out: np.ndarray | None = None
) -> float:
    """Mean over samples of the squared reconstruction 2-norm.

    The errors are summed in the dtype of h_hat_batch, the network's
    output; out, when given, holds them and may be h_hat_batch.
    """
    h_hat_batch = np.asarray(h_hat_batch)
    h_batch = np.asarray(h_batch, dtype=h_hat_batch.dtype)
    if h_batch.shape != h_hat_batch.shape:
        raise ValueError(
            f"shape mismatch: {h_batch.shape} vs {h_hat_batch.shape}"
        )
    diff = np.subtract(h_batch, h_hat_batch, out=out)
    diff *= diff
    return float(np.sum(diff)) / h_batch.shape[0]


def backward(model: UnrolledAutoencoder, trace: ForwardTrace) -> Gradients:
    """Exact reverse-mode gradients of the reconstruction loss on the
    batch the trace was last given.

    Accumulates the Phi contributions from the encoder, the Phi^T y
    layer, and every (I - Phi^T Phi) term, always in factored form.  The
    sign path carries zero derivative.
    """
    h_batch = trace.inputs
    if h_batch is None:
        raise ValueError(
            "trace holds no batch: its last forward() raised or ran in infer mode"
        )

    phi = model.phi
    batch = h_batch.shape[0]
    d_phi = np.zeros_like(phi)
    d_alpha = 0.0
    d_gammas: list[np.ndarray] = [np.empty(0)] * (model.num_updates + 1)
    d_betas: list[np.ndarray] = [np.empty(0)] * (model.num_updates + 1)

    # The gradient alternates between the trace's two gradient blocks;
    # the forward intermediates are only read.
    g, spare = trace.grads[0, :batch], trace.grads[1, :batch]
    np.subtract(trace.output[:batch], h_batch, out=g)
    g *= 2.0 / batch
    # ReLU'(x) = 0 for x <= 0, as floats in the free block
    np.greater(trace.post_bn[:batch], 0.0, out=spare)
    g *= spare

    for t in range(model.num_updates, 0, -1):
        d_gammas[t], d_betas[t] = model.bn_layers[t].backward(
            g, trace.x_hat[t, :batch], trace.inv_stds[t], spare
        )
        g, spare = spare, g
        s = trace.signs[t - 1, :batch]
        sp = trace.signs_proj[t - 1, :batch]
        gp = g @ phi.T
        # <g, s - sp Phi> = <g, s> - <g Phi^T, sp>
        d_alpha -= (float(np.vdot(g, s)) - float(np.vdot(gp, sp))) / t
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
        # dL/d post_bn[t-1] equals g: the sign branch is locally constant.

    d_gammas[0], d_betas[0] = model.bn_layers[0].backward(
        g, trace.x_hat[0, :batch], trace.inv_stds[0], spare
    )
    g = spare
    # First layer a = y Phi with y = h Phi^T: direct term plus the
    # dependence through the encoder.
    d_phi += trace.measurements[:batch].T @ g
    d_y = g @ phi.T
    d_phi += d_y.T @ h_batch

    return Gradients(d_phi=d_phi, d_alpha=d_alpha, d_gammas=d_gammas, d_betas=d_betas)
