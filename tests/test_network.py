import copy
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from beamcs import (
    BatchNormLayer,
    Mode,
    UnrolledAutoencoder,
    backward,
    decoder_init,
    encode,
    forward,
    mse_loss,
)
from beamcs import training
from beamcs.network import BN_EPS, BN_MOMENTUM, ForwardTrace
from reference_solvers import decoder_update


def make_model(width=6, m=2, num_updates=2, seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(num_updates + 1):
        layers.append(
            BatchNormLayer(
                gamma=rng.uniform(0.5, 1.5, width),
                beta=rng.uniform(-0.3, 0.3, width),
                running_mean=rng.uniform(-0.2, 0.2, width),
                running_var=rng.uniform(0.5, 1.5, width),
            )
        )
    return UnrolledAutoencoder(
        phi=rng.standard_normal((m, width)) * 0.4,
        alpha=0.7,
        num_updates=num_updates,
        bn_layers=layers,
    )


# ------------------------------------------------------------ batch norm


def test_bn_train_standardizes_batch(rng):
    layer = BatchNormLayer.identity(4)
    x = rng.standard_normal((64, 4)) * 3.0 + 5.0
    out, (x_c, inv_std) = layer.forward(x, Mode.TRAIN)
    # the cache holds the centred input; x_c * inv_std is the textbook x_hat
    want_x_hat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + BN_EPS)
    assert _rel(x_c * inv_std, want_x_hat) <= 1e-12
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-3)  # eps shrinks it a bit
    assert np.array_equal(out, x_c * inv_std)  # identity affine params


def test_bn_running_statistics_update(rng):
    layer = BatchNormLayer.identity(3)
    x = rng.standard_normal((32, 3)) + 2.0
    layer.forward(x, Mode.TRAIN)
    # exponential update from the (0, 1) initialization, biased batch var
    assert np.allclose(layer.running_mean, 0.01 * x.mean(axis=0), atol=1e-15)
    assert np.allclose(
        layer.running_var, 0.99 * 1.0 + 0.01 * x.var(axis=0), atol=1e-15
    )


def test_bn_infer_uses_running_stats(rng):
    layer = BatchNormLayer(
        gamma=np.array([2.0, 1.0]),
        beta=np.array([0.5, -0.5]),
        running_mean=np.array([1.0, -1.0]),
        running_var=np.array([4.0, 9.0]),
    )
    x = rng.standard_normal((5, 2))
    out, _ = layer.forward(x, Mode.INFER)
    expected = layer.gamma * (x - layer.running_mean) / np.sqrt(
        layer.running_var + 1e-5
    ) + layer.beta
    assert np.allclose(out, expected, atol=1e-14)
    # infer must not touch the running statistics
    assert np.array_equal(layer.running_mean, [1.0, -1.0])


def test_bn_infer_is_rowwise(rng):
    layer = make_model().bn_layers[0]
    x = rng.standard_normal((6, 6))
    full, _ = layer.forward(x, Mode.INFER)
    for i in range(6):
        row, _ = layer.forward(x[i : i + 1], Mode.INFER)
        assert np.array_equal(row[0], full[i])


def test_bn_rejects_singleton_train_batch():
    layer = BatchNormLayer.identity(3)
    with pytest.raises(ValueError, match="batch size >= 2"):
        layer.forward(np.ones((1, 3)), Mode.TRAIN)


def test_bn_validation():
    with pytest.raises(ValueError):
        BatchNormLayer(
            gamma=np.ones(3),
            beta=np.zeros(3),
            running_mean=np.zeros(3),
            running_var=-np.ones(3),
        )
    with pytest.raises(ValueError, match="nonnegative"):
        BatchNormLayer(
            gamma=np.ones(3),
            beta=np.zeros(3),
            running_mean=np.zeros(3),
            running_var=np.array([1.0, np.nan, 1.0]),
        )
    with pytest.raises(ValueError):
        BatchNormLayer(
            gamma=np.ones(3),
            beta=np.zeros(2),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )


# --------------------------------------------------------------- decoder


def test_decoder_update_matches_dense_form(rng):
    # factored s - Phi^T(Phi s) vs the materialized (I - Phi^T Phi) s
    model = make_model(width=10, m=4)
    h = rng.standard_normal((5, 10))
    got = decoder_update(model, h, 3)
    eye_minus = np.eye(10) - model.phi.T @ model.phi
    signs = np.sign(h)
    expected = h - (model.alpha / 3) * signs @ eye_minus.T
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_decoder_update_sign_of_zero(rng):
    model = make_model()
    h = np.zeros((3, 6))
    # sign(0) = 0 makes the update a fixpoint at the origin
    assert np.array_equal(decoder_update(model, h, 1), h)


def test_decoder_update_step_scaling(rng):
    model = make_model()
    h = rng.standard_normal((4, 6))
    d1 = decoder_update(model, h, 1) - h
    d4 = decoder_update(model, h, 4) - h
    assert np.allclose(d4, d1 / 4.0, atol=1e-14)
    with pytest.raises(ValueError):
        decoder_update(model, h, 0)


def test_encode_decode_shapes(rng):
    model = make_model(width=8, m=3, num_updates=4)
    h = rng.standard_normal((7, 8))
    y = encode(model, h)
    assert y.shape == (7, 3)
    assert np.allclose(y, h @ model.phi.T)
    assert decoder_init(model, y).shape == (7, 8)
    with pytest.raises(ValueError):
        encode(model, np.ones((7, 9)))
    with pytest.raises(ValueError):
        decoder_init(model, np.ones((7, 4)))


# --------------------------------------------------------------- forward


def test_forward_trace_contents(rng):
    model = make_model(width=6, m=2, num_updates=3)
    h = rng.standard_normal((5, 6))
    out, trace = forward(model, h, Mode.INFER)
    assert out.shape == trace.post_bn.shape == (5, 6)
    assert trace.x_hat.shape == (4, 5, 6) and len(trace.inv_stds) == 4
    assert trace.signs.shape == (3, 5, 6)
    assert trace.signs_proj.shape == (3, 5, 2)
    assert np.array_equal(trace.measurements, encode(model, h))
    assert np.array_equal(out, np.maximum(trace.post_bn, 0.0))
    assert (out >= 0.0).all()


@pytest.mark.parametrize("num_updates", [0, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trace_blocks_start_on_pages_and_share_no_memory(num_updates, dtype, rng):
    model = _as_dtype(make_model(width=6, m=2, num_updates=num_updates), dtype)
    _, trace = forward(model, rng.standard_normal((5, 6)), Mode.TRAIN)
    # the trace's own arrays: not inputs, the caller's batch
    blocks = {
        f.name: getattr(trace, f.name)
        for f in fields(trace)
        if f.name != "inputs" and isinstance(getattr(trace, f.name), np.ndarray)
    }
    assert set(blocks) == {
        "measurements", "x_hat", "signs", "sign_masks", "signs_proj",
        "post_bn", "output", "grads",
    }
    assert trace.grads.shape == (2, 5, 6) and trace.grads.dtype == dtype
    for name, block in blocks.items():
        assert block.ctypes.data % 4096 == 0, name
    names = list(blocks)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not np.shares_memory(blocks[a], blocks[b]), (a, b)


def test_backward_allocates_no_gradient_block(rng):
    # the gradient alternates between the trace's two grads blocks, made
    # with the trace: backward's fresh memory stays below one
    # (batch, width) block, and each call gives the same gradients
    model = make_model(width=64, m=2, num_updates=2)
    h = rng.standard_normal((1024, 64))
    _, trace = forward(model, h, Mode.TRAIN)
    grads = trace.grads
    tracemalloc.start()
    try:
        first = backward(model, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h.nbytes
    assert trace.grads is grads
    assert _grads_equal(backward(model, trace), first)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_signs_are_np_sign_bit_for_bit(dtype, rng):
    # forward takes sign(z) from two comparisons; on every non-NaN value,
    # signed zeros, subnormals and infinities included, its stored signs
    # must be the bits np.sign gives.  Layer 0's first columns output
    # chosen constants: the huge running mean makes each centred input
    # negative, gamma = 0 scales it to -0.0, and -0.0 + beta is beta.
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, np.inf, -np.inf], dtype)
    k, rows, width = special.size, 8, 16
    model = _as_dtype(make_model(width=width, m=3, num_updates=1, seed=2), dtype)
    layer = model.bn_layers[0]
    layer.gamma[:k] = 0.0
    layer.beta[:k] = special
    layer.running_mean[:k] = 1e30
    h = rng.uniform(0.0, 1.0, (rows, width))

    _, trace = forward(model, h, Mode.INFER)
    z, _ = layer.forward(decoder_init(model, encode(model, h)), Mode.INFER)
    ints = np.dtype(f"i{np.dtype(dtype).itemsize}")
    assert np.array_equal(z[:, :k].view(ints), np.tile(special.view(ints), (rows, 1)))
    assert (z[:, k:] > 0).any() and (z[:, k:] < 0).any()
    assert trace.signs.dtype == dtype
    assert np.array_equal(trace.signs[0].view(ints), np.sign(z).view(ints))


def test_forward_infer_is_batch_independent(rng):
    model = make_model(width=8, m=3, num_updates=2, seed=5)
    h = rng.standard_normal((6, 8))
    full, _ = forward(model, h, Mode.INFER)
    rows = [forward(model, h[i : i + 1], Mode.INFER)[0][0] for i in range(6)]
    # equal up to BLAS rounding: batched and row-wise matmuls may take
    # different kernel paths
    assert np.max(np.abs(np.stack(rows) - full)) <= 1e-12


def test_forward_train_updates_running_stats(rng):
    model = make_model()
    before = [layer.running_mean.copy() for layer in model.bn_layers]
    h = rng.standard_normal((4, 6))
    forward(model, h, Mode.TRAIN)
    for prev, layer in zip(before, model.bn_layers):
        assert not np.array_equal(prev, layer.running_mean)


def test_forward_infer_leaves_running_stats(rng):
    model = make_model()
    before = [layer.running_mean.copy() for layer in model.bn_layers]
    forward(model, rng.standard_normal((4, 6)), Mode.INFER)
    for prev, layer in zip(before, model.bn_layers):
        assert np.array_equal(prev, layer.running_mean)


def test_zero_updates_model(rng):
    # L = 0: encode, Phi^T y, one BN, ReLU
    model = make_model(num_updates=0)
    h = rng.standard_normal((3, 6))
    out, trace = forward(model, h, Mode.INFER)
    assert trace.post_bn.shape == (3, 6)
    assert len(trace.inv_stds) == 1
    assert len(trace.signs) == len(trace.signs_proj) == 0
    z, _ = model.bn_layers[0].forward(decoder_init(model, encode(model, h)), Mode.INFER)
    assert np.allclose(out, np.maximum(z, 0.0), atol=1e-14)


def test_model_validation():
    with pytest.raises(ValueError, match="batch-norm layers"):
        UnrolledAutoencoder(
            phi=np.ones((2, 6)),
            alpha=1.0,
            num_updates=2,
            bn_layers=[BatchNormLayer.identity(6)],
        )
    with pytest.raises(ValueError, match="width"):
        UnrolledAutoencoder(
            phi=np.ones((2, 6)),
            alpha=1.0,
            num_updates=0,
            bn_layers=[BatchNormLayer.identity(5)],
        )
    with pytest.raises(ValueError, match="alpha"):
        UnrolledAutoencoder(
            phi=np.ones((2, 6)),
            alpha=0.0,
            num_updates=0,
            bn_layers=[BatchNormLayer.identity(6)],
        )


def test_mse_loss():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0, 0.0], [0.0, 4.0]])
    # (4 + 9) / 2
    assert mse_loss(a, b) == pytest.approx(6.5)
    # out may be the reconstruction itself and then holds the squared errors
    out = b.copy()
    assert mse_loss(a, out, out=out) == mse_loss(a, b)
    assert np.array_equal(out, (a - b) ** 2)
    with pytest.raises(ValueError):
        mse_loss(a, np.ones((3, 2)))


# -------------------------------------------------------------- backward


def _loss_of(model, h, mode):
    out, _ = forward(model, copy.deepcopy(h), mode)
    return mse_loss(h, out)


def _fd(model, h, mode, setter, getter, eps=1e-6):
    base = getter(model)
    if np.ndim(base) == 0:
        setter(model, base + eps)
        up = _loss_of(model, h, mode)
        setter(model, base - eps)
        down = _loss_of(model, h, mode)
        setter(model, base)
        return (up - down) / (2 * eps)
    grad = np.empty_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = _loss_of(model, h, mode)
        flat[i] = orig - eps
        down = _loss_of(model, h, mode)
        flat[i] = orig
        grad.reshape(-1)[i] = (up - down) / (2 * eps)
    return grad


@pytest.mark.parametrize("mode", [Mode.TRAIN])
def test_backward_matches_finite_differences(mode, rng):
    # small spot check; the acceptance suite runs the full 20-config sweep
    model = make_model(width=6, m=2, num_updates=2, seed=3)
    h = rng.uniform(0.0, 1.0, (4, 6))
    h[h < 0.3] = 0.0
    frozen = copy.deepcopy(model)
    _, trace = forward(model, h, mode)
    grads = backward(model, trace)
    model = frozen  # FD probes run on untouched running statistics

    def close(a, b):
        return np.all(np.abs(a - b) <= np.maximum(1e-7, 1e-4 * np.abs(b)))

    fd_alpha = _fd(
        model,
        h,
        mode,
        lambda mo, v: setattr(mo, "alpha", v),
        lambda mo: mo.alpha,
    )
    assert close(np.array(grads.d_alpha), np.array(fd_alpha))
    fd_phi = _fd(model, h, mode, None, lambda mo: mo.phi)
    assert close(grads.d_phi, fd_phi)
    for i, layer in enumerate(model.bn_layers):
        assert close(grads.d_gammas[i], _fd(model, h, mode, None, lambda mo: mo.bn_layers[i].gamma))
        assert close(grads.d_betas[i], _fd(model, h, mode, None, lambda mo: mo.bn_layers[i].beta))


def test_backward_refuses_a_trace_whose_forward_raised(rng):
    # a 1-row train batch fails in the first batch norm, after the
    # encoder and the first decoder layer wrote into the reused trace
    model = make_model()
    _, trace = forward(model, rng.standard_normal((4, 6)), Mode.TRAIN)
    before = trace.measurements.copy()
    with pytest.raises(ValueError, match="batch size"):
        forward(model, rng.standard_normal((1, 6)), Mode.TRAIN, reuse=trace)
    assert not np.array_equal(trace.measurements[0], before[0])
    with pytest.raises(ValueError, match="no batch"):
        backward(model, trace)
    # the next pass refills the trace and backward takes it again
    twin = copy.deepcopy(model)
    h = rng.standard_normal((3, 6))
    _, again = forward(model, h, Mode.TRAIN, reuse=trace)
    assert again is trace
    assert _grads_equal(backward(model, trace), backward(twin, forward(twin, h)[1]))


def test_backward_refuses_a_trace_whose_last_pass_ran_in_infer_mode(rng):
    # only dev_loss runs infer mode, and it never backpropagates
    model = make_model()
    _, trace = forward(model, rng.standard_normal((4, 6)), Mode.TRAIN)
    _, again = forward(model, rng.standard_normal((4, 6)), Mode.INFER, reuse=trace)
    assert again is trace and trace.inputs is None
    with pytest.raises(ValueError, match="no batch: .* infer mode"):
        backward(model, trace)
    # a train-mode pass on the same trace makes it usable again
    twin = copy.deepcopy(model)
    h = rng.standard_normal((3, 6))
    _, again = forward(model, h, Mode.TRAIN, reuse=trace)
    assert again is trace and trace.inputs is h
    assert _grads_equal(backward(model, trace), backward(twin, forward(twin, h)[1]))


def test_backward_relu_gate(rng):
    # samples that land entirely in the dead half of the ReLU contribute
    # zero gradient through the decoder path
    model = make_model(width=4, m=2, num_updates=0, seed=2)
    model.bn_layers[0].beta[:] = -100.0  # push every output below zero
    h = np.abs(rng.standard_normal((3, 4)))
    out, trace = forward(model, h, Mode.TRAIN)
    assert np.array_equal(out, np.zeros_like(h))
    grads = backward(model, trace)
    assert np.array_equal(grads.d_gammas[0], np.zeros(4))
    assert np.array_equal(grads.d_phi, np.zeros_like(model.phi))


def _grads_equal(a, b):
    return (
        np.array_equal(a.d_phi, b.d_phi)
        and a.d_alpha == b.d_alpha
        and all(map(np.array_equal, a.d_gammas, b.d_gammas))
        and all(map(np.array_equal, a.d_betas, b.d_betas))
    )


def test_forward_backward_reuse_matches_fresh_calls():
    # one trace carried across batch sizes and modes, as train and
    # dev_loss carry it, against fresh traces on a twin model; an
    # infer-mode pass leaves no batch for backward
    reused = make_model(width=16, m=4, num_updates=3, seed=7)
    fresh = copy.deepcopy(reused)
    rng = np.random.default_rng(8)
    first = trace = None
    for rows, mode in [
        (128, Mode.TRAIN), (64, Mode.TRAIN), (128, Mode.TRAIN),
        (128, Mode.INFER), (64, Mode.INFER), (128, Mode.TRAIN),
    ]:
        h = rng.uniform(0.0, 1.0, (rows, 16))
        want_out, want_trace = forward(fresh, h, mode)
        out, trace = forward(reused, h, mode, reuse=trace)
        if first is None:
            first = trace
        # forward refills the trace it is given and returns it
        assert trace is first
        assert np.shares_memory(out, first.output)

        assert np.array_equal(out, want_out)
        for a, b in zip(reused.bn_layers, fresh.bn_layers):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
        if mode is Mode.INFER:
            assert trace.inputs is None
            with pytest.raises(ValueError, match="no batch"):
                backward(reused, trace)
            continue
        assert trace.inputs is h
        got = backward(reused, trace)
        assert _grads_equal(got, backward(fresh, want_trace))
        # backward only reads the trace: a second call gives the same
        assert _grads_equal(backward(reused, trace), got)

    # a batch larger than the trace gets a new one and leaves the old
    h = rng.uniform(0.0, 1.0, (200, 16))
    out, bigger = forward(reused, h, Mode.INFER, reuse=trace)
    assert bigger is not trace
    assert np.array_equal(out, forward(fresh, h, Mode.INFER)[0])
    assert not np.shares_memory(out, trace.output)
    assert _grads_equal(backward(reused, trace), got)
    # a rejected input was still given to the trace, which then holds no
    # batch
    with pytest.raises(ValueError):
        forward(reused, np.ones((5, 15)), Mode.TRAIN, reuse=trace)
    with pytest.raises(ValueError, match="no batch"):
        backward(reused, trace)


# ------------------------------------------ textbook reference, paper shape
#
# forward/backward and the batch-norm layer fold their batch sums and
# build updates in place; these are the plain formulas they must match.


def _textbook_bn_forward(layer, x, mode):
    if mode is Mode.TRAIN:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        layer.running_mean = (
            BN_MOMENTUM * layer.running_mean + (1.0 - BN_MOMENTUM) * mean
        )
        layer.running_var = (
            BN_MOMENTUM * layer.running_var + (1.0 - BN_MOMENTUM) * var
        )
    else:
        mean = layer.running_mean
        var = layer.running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x - mean) * inv_std
    return layer.gamma * x_hat + layer.beta, (x_hat, inv_std)


def _textbook_bn_backward(layer, grad_out, cache):
    x_hat, inv_std = cache
    grad_beta = grad_out.sum(axis=0)
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    grad_xhat = grad_out * layer.gamma
    batch = grad_out.shape[0]
    grad_x = (inv_std / batch) * (
        batch * grad_xhat
        - grad_xhat.sum(axis=0)
        - x_hat * (grad_xhat * x_hat).sum(axis=0)
    )
    return grad_x, grad_gamma, grad_beta


def _textbook_forward(model, h, mode):
    y = h @ model.phi.T
    z, cache = _textbook_bn_forward(model.bn_layers[0], y @ model.phi, mode)
    post_bn, caches, signs, signs_proj = [z], [cache], [], []
    for t in range(1, model.num_updates + 1):
        s = np.sign(z)
        sp = s @ model.phi.T
        a = z - (model.alpha / t) * (s - sp @ model.phi)
        z, cache = _textbook_bn_forward(model.bn_layers[t], a, mode)
        post_bn.append(z)
        caches.append(cache)
        signs.append(s)
        signs_proj.append(sp)
    return y, post_bn, caches, signs, signs_proj


def _textbook_backward(model, h, y, post_bn, caches, signs, signs_proj):
    phi = model.phi
    layers = model.num_updates + 1
    d_phi = np.zeros_like(phi)
    d_alpha = 0.0
    d_gammas, d_betas = [None] * layers, [None] * layers
    g = (2.0 / h.shape[0]) * (np.maximum(post_bn[-1], 0.0) - h)
    g = g * (post_bn[-1] > 0)
    for t in range(model.num_updates, 0, -1):
        g, d_gammas[t], d_betas[t] = _textbook_bn_backward(
            model.bn_layers[t], g, caches[t]
        )
        s, sp = signs[t - 1], signs_proj[t - 1]
        d_alpha -= float(np.sum(g * (s - sp @ phi))) / t
        gp = g @ phi.T
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
    g, d_gammas[0], d_betas[0] = _textbook_bn_backward(
        model.bn_layers[0], g, caches[0]
    )
    d_phi += y.T @ g + (g @ phi.T).T @ h
    return d_phi, d_alpha, d_gammas, d_betas


def _rel(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("mode", [Mode.TRAIN, Mode.INFER])
def test_forward_backward_match_textbook_at_paper_shape(mode):
    # width 512 (N=256 stacked real), m=20, T=9, batch 128; sparse
    # nonnegative inputs like the preprocessed beamspace samples
    width, m, num_updates, batch = 512, 20, 9, 128
    model = make_model(width=width, m=m, num_updates=num_updates, seed=11)
    rng = np.random.default_rng(12)
    model.phi = rng.standard_normal((m, width)) / np.sqrt(width)
    h = np.zeros((batch, width))
    for row in h:
        row[rng.choice(width, 6, replace=False)] = rng.uniform(0.1, 1.0, 6)

    reference = copy.deepcopy(model)
    ref = _textbook_forward(reference, h, mode)
    out, trace = forward(model, h, mode)

    assert _rel(out, np.maximum(ref[1][-1], 0.0)) <= 1e-12
    assert _rel(trace.post_bn, ref[1][-1]) <= 1e-12
    # the trace holds each batch-norm input centred, not yet scaled
    assert len(trace.x_hat) == len(trace.inv_stds) == len(ref[2])
    for x_c, inv_std, (want_x_hat, want_inv_std) in zip(
        trace.x_hat, trace.inv_stds, ref[2]
    ):
        assert _rel(x_c * inv_std, want_x_hat) <= 1e-12
        assert _rel(inv_std, want_inv_std) <= 1e-12
    for layer, ref_layer in zip(model.bn_layers, reference.bn_layers):
        assert _rel(layer.running_mean, ref_layer.running_mean) <= 1e-12
        assert _rel(layer.running_var, ref_layer.running_var) <= 1e-12
    if mode is Mode.INFER:
        return  # nothing differentiates an infer-mode pass

    grads = backward(model, trace)
    d_phi, d_alpha, d_gammas, d_betas = _textbook_backward(reference, h, *ref)
    assert _rel(grads.d_phi, d_phi) <= 1e-10
    assert abs(grads.d_alpha - d_alpha) <= 1e-10 * abs(d_alpha)
    for got, want in zip(grads.d_gammas, d_gammas):
        assert _rel(got, want) <= 1e-10
    # absolute: every BN but the last feeds a train-mode BN whose input
    # gradient sums to zero over the batch, so d_beta of layers 0..T-1 is
    # zero up to roundoff
    for got, want in zip(grads.d_betas, d_betas):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(d_betas[-1])) > 1e-3


# ------------------------------------------------------ float32 vs float64


def _as_dtype(model, dtype):
    twin = copy.deepcopy(model)
    twin.phi = twin.phi.astype(dtype)
    for layer in twin.bn_layers:
        for name in ("gamma", "beta", "running_mean", "running_var"):
            setattr(layer, name, getattr(layer, name).astype(dtype))
    return twin


def _rel_norm(got, ref):
    ref = np.asarray(ref, dtype=float)
    return np.linalg.norm(np.asarray(got, dtype=float) - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("mode", [Mode.TRAIN, Mode.INFER])
def test_float32_matches_float64_at_paper_shape(mode):
    # Training runs in float32.  On one paper-shaped batch its output,
    # running statistics and (in train mode) every gradient group stay
    # within a relative 2-norm error of 1e-4 of the float64 pass on the
    # same values.
    # Measured: at most 7e-7 here; on eight other random models of this
    # shape at most 1.3e-5 (d_alpha), with no decoder sign flipped.
    width, m, num_updates, batch = 512, 20, 9, 128
    wide = make_model(width=width, m=m, num_updates=num_updates, seed=11)
    rng = np.random.default_rng(12)
    wide.phi = rng.standard_normal((m, width)) / np.sqrt(width)
    narrow = _as_dtype(wide, np.float32)
    wide = _as_dtype(narrow, np.float64)  # the same values in both
    h = np.zeros((batch, width))
    for row in h:
        row[rng.choice(width, 6, replace=False)] = rng.uniform(0.1, 1.0, 6)

    out64, trace64 = forward(wide, h, mode)
    out32, trace32 = forward(narrow, h, mode)
    assert out32.dtype == np.float32 and out64.dtype == np.float64
    assert np.array_equal(trace32.signs, trace64.signs)
    assert _rel_norm(out32, out64) <= 1e-4
    for a, b in zip(narrow.bn_layers, wide.bn_layers):
        assert _rel_norm(a.running_mean, b.running_mean) <= 1e-4
        assert _rel_norm(a.running_var, b.running_var) <= 1e-4
    if mode is Mode.INFER:
        return  # nothing differentiates an infer-mode pass

    g32, g64 = backward(narrow, trace32), backward(wide, trace64)
    assert _rel_norm(g32.d_phi, g64.d_phi) <= 1e-4
    assert _rel_norm(np.stack(g32.d_gammas), np.stack(g64.d_gammas)) <= 1e-4
    assert _rel_norm(np.stack(g32.d_betas), np.stack(g64.d_betas)) <= 1e-4
    assert abs(g32.d_alpha - g64.d_alpha) <= 1e-4 * abs(g64.d_alpha)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_keeps_the_dtype_of_phi(dtype, rng):
    # a silent upcast anywhere in the step would cost the float32 speed
    # without failing anything else
    model = _as_dtype(make_model(width=16, m=4, num_updates=3, seed=5), dtype)
    h = rng.uniform(0.0, 1.0, (32, 16))  # float64 samples, cast by forward
    out, trace = forward(model, h, Mode.TRAIN)
    err = np.empty_like(out)
    assert np.isfinite(mse_loss(h, out, out=err))
    grads = backward(model, trace)
    training._sgd_step(model, grads, 0.01)
    arrays = {
        "output": out, "squared errors": err,
        "measurements": trace.measurements, "x_hat": trace.x_hat,
        "signs": trace.signs, "signs_proj": trace.signs_proj,
        "post_bn": trace.post_bn, "trace output": trace.output,
        "grads": trace.grads,
        "d_phi": grads.d_phi, "phi": model.phi,
    }
    for i, layer in enumerate(model.bn_layers):
        arrays.update({
            f"d_gamma[{i}]": grads.d_gammas[i], f"d_beta[{i}]": grads.d_betas[i],
            f"inv_std[{i}]": trace.inv_stds[i],
            f"gamma[{i}]": layer.gamma, f"beta[{i}]": layer.beta,
            f"running_mean[{i}]": layer.running_mean,
            f"running_var[{i}]": layer.running_var,
        })
    assert {k: v.dtype for k, v in arrays.items() if v.dtype != dtype} == {}
    assert type(grads.d_alpha) is float and type(model.alpha) is float
    # the next step refills that trace in place
    _, again = forward(model, h, Mode.TRAIN, reuse=trace)
    assert again is trace


def test_model_rejects_mixed_dtypes():
    with pytest.raises(ValueError, match="dtype"):
        UnrolledAutoencoder(
            phi=np.ones((2, 6), np.float32),
            alpha=1.0,
            num_updates=0,
            bn_layers=[BatchNormLayer.identity(6)],
        )
    model = UnrolledAutoencoder(
        phi=np.ones((2, 6), np.float32),
        alpha=1.0,
        num_updates=0,
        bn_layers=[BatchNormLayer.identity(6, dtype=np.float32)],
    )
    assert model.bn_layers[0].running_var.dtype == np.float32


def test_reuse_by_a_model_of_another_dtype_gets_new_buffers(rng):
    wide = make_model(width=16, m=4, num_updates=2, seed=1)
    narrow = _as_dtype(wide, np.float32)
    h = rng.uniform(0.0, 1.0, (8, 16))
    _, trace = forward(wide, h, Mode.INFER)
    out, again = forward(narrow, h, Mode.INFER, reuse=trace)
    assert out.dtype == np.float32
    assert again is not trace


def test_mse_loss_computes_in_the_dtype_of_the_prediction():
    # a float32 network's loss is summed in float32, as train sums it
    h = np.array([[0.1, 0.7], [0.3, 0.0]])
    pred = np.zeros((2, 2), np.float32)
    narrow = h.astype(np.float32)
    assert mse_loss(h, pred) == float(np.sum(narrow * narrow)) / 2
    assert mse_loss(h, pred) != mse_loss(h, pred.astype(np.float64))
