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

forward() records its intermediates in a ForwardTrace, which backward()
reads together with the batch it holds: per layer the centred batch-norm
input and its 1/std vector, and per update the signs and their
projection.  A trace's blocks, backward()'s two gradient blocks among
them, are carved from one allocation, each starting on a page boundary:
where a pass's input and output lie modulo the page size follows from
the shapes, not from the allocator, and at the paper's shapes no pass
writes its output a few bytes above its input (4K aliasing).  Passed
back as reuse, a trace is refilled in place and returned: a training
run allocates one, which every SGD step and every dev evaluation
shares.  Only a train-mode pass leaves a batch
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

    def forward(
        self,
        x: np.ndarray,
        mode: Mode,
        *,
        x_c: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Normalize a (batch, width) block; returns (output, cache).

        cache = (x_c, inv_std) feeds backward(): x_c is the input centred
        by the batch (train) or running (infer) mean, and x_c * inv_std is
        the normalized x_hat, which is never formed.  Train mode requires
        a batch of at least 2 and folds the batch statistics into the
        running statistics.  x_c and out, when given, are written and
        returned instead of fresh arrays; x_c may be x itself, which then
        is centred in place.
        """
        if x.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ValueError(f"expected (batch, {self.gamma.shape[0]}), got {x.shape}")
        if mode is Mode.TRAIN:
            batch = x.shape[0]
            if batch < 2:
                raise ValueError("train-mode batch norm needs batch size >= 2")
            mean = (_ones(batch, x.dtype) @ x) / batch
            x_c = np.subtract(x, mean, out=x_c)
            var = np.einsum("ij,ij->j", x_c, x_c) / batch
            self.running_mean = (
                BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
            )
            self.running_var = (
                BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
            )
        else:
            x_c = np.subtract(x, self.running_mean, out=x_c)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        # gamma x_hat + beta, with the scaling folded into one pass
        out = np.multiply(x_c, self.gamma * inv_std, out=out)
        out += self.beta
        return out, (x_c, inv_std)

    def backward(
        self,
        grad_out: np.ndarray,
        cache: tuple[np.ndarray, np.ndarray],
        *,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (grad_x, grad_gamma, grad_beta) for the cache (x_c,
        inv_std) of a train-mode forward(), through the batch statistics.

        grad_gamma is inv_std times the column sums of grad_out * x_c.
        With grad_xhat = gamma * grad_out, the batch sums the gradient
        needs are gamma * grad_beta and gamma * grad_gamma, so
        grad_x = gamma inv_std (g - grad_beta/B - x_c inv_std grad_gamma/B).
        grad_x is written into out when given, which must not be grad_out.
        """
        x_c, inv_std = cache
        batch = grad_out.shape[0]
        grad_beta = _ones(batch, grad_out.dtype) @ grad_out
        grad_gamma = np.einsum("ij,ij->j", grad_out, x_c)
        grad_gamma *= inv_std
        grad_x = np.multiply(x_c, grad_gamma * (inv_std / batch), out=out)
        np.subtract(grad_out, grad_x, out=grad_x)
        grad_x -= grad_beta / batch
        grad_x *= self.gamma * inv_std
        return grad_x, grad_gamma, grad_beta


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

    The arrays hold up to capacity rows; forward(..., reuse=this trace)
    refills their leading rows with each batch that fits and returns this
    same trace, so it always describes the batch it was last given.
    grads is backward()'s working storage.
    inputs is that batch once a train-mode pass completes; it is None
    while a pass is under way and after an infer-mode pass or a pass
    that raised, and backward() refuses the trace then.
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

    def holds(self, model: UnrolledAutoencoder, rows: int) -> bool:
        return (
            self.x_hat.dtype == model.phi.dtype
            and self.x_hat.shape[0] == model.num_updates + 1
            and self.x_hat.shape[1] >= rows
            and self.x_hat.shape[2] == model.width
            and self.measurements.shape[1] == model.num_measurements
        )


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
    h_batch = np.asarray(h_batch, dtype=model.phi.dtype)
    if h_batch.ndim != 2 or h_batch.shape[1] != model.width:
        raise ValueError(f"expected (batch, {model.width}), got {h_batch.shape}")
    return np.matmul(h_batch, model.phi.T, out=out)


def decoder_init(
    model: UnrolledAutoencoder, y_batch: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """First decoder layer: Phi^T y per sample, written into out when given."""
    y_batch = np.asarray(y_batch, dtype=model.phi.dtype)
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


def forward(
    model: UnrolledAutoencoder,
    h_batch: np.ndarray,
    mode: Mode = Mode.TRAIN,
    reuse: ForwardTrace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Full reconstruction pass; Train mode updates BN running statistics.

    reuse takes the trace of an earlier call.  When it holds this batch
    (same model shape, at least as many rows) its leading rows are
    refilled and reuse itself is returned, with the output a view of
    its storage; otherwise a new trace is made and reuse is left as it
    was.  h_batch must not share memory with reuse; after a train-mode
    pass backward() reads it as the batch, so it must not change before
    that call.
    """
    h_batch = np.asarray(h_batch, dtype=model.phi.dtype)
    rows = h_batch.shape[0] if h_batch.ndim == 2 else 0  # encode rejects the rest
    trace = reuse
    if trace is None or not trace.holds(model, rows):
        trace = ForwardTrace.allocate(model, rows)
    trace.inputs = None  # set last, by train mode only: see ForwardTrace
    x_hat = trace.x_hat[:, :rows]
    signs = trace.signs[:, :rows]
    signs_proj = trace.signs_proj[:, :rows]
    positive, negative = trace.sign_masks[:, :rows]
    z = trace.post_bn[:rows]

    # Each layer's update is built in its x_hat block, which batch norm
    # then centres in place, writing its output over z; of its cache
    # (x_c, inv_std) only inv_std is new.
    y = encode(model, h_batch, out=trace.measurements[:rows])
    a = decoder_init(model, y, out=x_hat[0])
    inv_stds = [model.bn_layers[0].forward(a, mode, x_c=a, out=z)[1][1]]
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
        inv_stds.append(model.bn_layers[t].forward(a, mode, x_c=a, out=z)[1][1])

    output = np.maximum(z, 0.0, out=trace.output[:rows])
    trace.inv_stds = inv_stds
    if mode is Mode.TRAIN:
        trace.inputs = h_batch
    return output, trace


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
    g *= trace.post_bn[:batch] > 0  # ReLU'(x) = 0 for x <= 0

    for t in range(model.num_updates, 0, -1):
        grad_x, d_gammas[t], d_betas[t] = model.bn_layers[t].backward(
            g, (trace.x_hat[t, :batch], trace.inv_stds[t]), out=spare
        )
        g, spare = grad_x, g
        s = trace.signs[t - 1, :batch]
        sp = trace.signs_proj[t - 1, :batch]
        gp = g @ phi.T
        # <g, s - sp Phi> = <g, s> - <g Phi^T, sp>
        d_alpha -= (float(np.vdot(g, s)) - float(np.vdot(gp, sp))) / t
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
        # dL/d post_bn[t-1] equals g: the sign branch is locally constant.

    g, d_gammas[0], d_betas[0] = model.bn_layers[0].backward(
        g, (trace.x_hat[0, :batch], trace.inv_stds[0]), out=spare
    )
    # First layer a = y Phi with y = h Phi^T: direct term plus the
    # dependence through the encoder.
    d_phi += trace.measurements[:batch].T @ g
    d_y = g @ phi.T
    d_phi += d_y.T @ h_batch

    return Gradients(d_phi=d_phi, d_alpha=d_alpha, d_gammas=d_gammas, d_betas=d_betas)
