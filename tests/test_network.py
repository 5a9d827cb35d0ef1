import copy

import numpy as np
import pytest

from beamcs import (
    BatchNormLayer,
    Mode,
    UnrolledAutoencoder,
    backward,
    decoder_init,
    decoder_update,
    encode,
    forward,
    mse_loss,
)


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
    out, (x_hat, inv_std) = layer.forward(x, Mode.TRAIN)
    assert np.allclose(x_hat.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x_hat.var(axis=0), 1.0, atol=1e-3)  # eps shrinks it a bit
    assert np.array_equal(out, x_hat)  # identity affine params


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
        eps=1e-5,
    )
    x = rng.standard_normal((5, 2))
    out, _ = layer.forward(x, Mode.INFER)
    expected = layer.gamma * (x - layer.running_mean) / np.sqrt(
        layer.running_var + layer.eps
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
        BatchNormLayer.identity(3, eps=0.0)
    with pytest.raises(ValueError):
        BatchNormLayer.identity(3, momentum=1.0)
    with pytest.raises(ValueError):
        BatchNormLayer(
            gamma=np.ones(3),
            beta=np.zeros(3),
            running_mean=np.zeros(3),
            running_var=-np.ones(3),
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
    assert len(trace.bn_caches) == 4
    assert trace.signs.shape == (3, 5, 6)
    assert trace.signs_proj.shape == (3, 5, 2)
    assert np.array_equal(trace.measurements, encode(model, h))
    assert np.array_equal(out, np.maximum(trace.post_bn, 0.0))
    assert (out >= 0.0).all()


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
    assert len(trace.bn_caches) == 1
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


@pytest.mark.parametrize("mode", [Mode.TRAIN, Mode.INFER])
def test_backward_matches_finite_differences(mode, rng):
    # small spot check; the acceptance suite runs the full 20-config sweep
    model = make_model(width=6, m=2, num_updates=2, seed=3)
    h = rng.uniform(0.0, 1.0, (4, 6))
    h[h < 0.3] = 0.0
    frozen = copy.deepcopy(model)
    _, trace = forward(model, h, mode)
    grads = backward(model, trace, h)
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


def test_backward_rejects_wrong_batch(rng):
    model = make_model()
    h = rng.standard_normal((4, 6))
    _, trace = forward(model, h, Mode.INFER)
    with pytest.raises(ValueError, match="trace"):
        backward(model, trace, h + 1.0)


def test_backward_relu_gate(rng):
    # samples that land entirely in the dead half of the ReLU contribute
    # zero gradient through the decoder path
    model = make_model(width=4, m=2, num_updates=0, seed=2)
    model.bn_layers[0].beta[:] = -100.0  # push every output below zero
    h = np.abs(rng.standard_normal((3, 4)))
    out, trace = forward(model, h, Mode.INFER)
    assert np.array_equal(out, np.zeros_like(h))
    grads = backward(model, trace, h)
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
    # dev_loss carry it, against fresh traces on a twin model
    reused = make_model(width=16, m=4, num_updates=3, seed=7)
    fresh = copy.deepcopy(reused)
    rng = np.random.default_rng(8)
    first = trace = None
    stale = None
    for rows, mode in [
        (128, Mode.TRAIN), (64, Mode.TRAIN), (128, Mode.TRAIN),
        (128, Mode.INFER), (64, Mode.INFER), (128, Mode.TRAIN),
    ]:
        h = rng.uniform(0.0, 1.0, (rows, 16))
        want_out, want_trace = forward(fresh, h, mode)
        want = backward(fresh, want_trace, h)
        out, trace = forward(reused, h, mode, reuse=trace)
        got = backward(reused, trace, h)
        if first is None:
            first = trace
        if stale is not None:
            # the previous trace still names its own inputs, but its
            # buffers now hold this batch
            with pytest.raises(ValueError, match="overwritten"):
                backward(reused, *stale)
        stale = (trace, h)

        assert np.array_equal(out, want_out)
        for a, b in zip(reused.bn_layers, fresh.bn_layers):
            assert np.array_equal(a.running_mean, b.running_mean)
            assert np.array_equal(a.running_var, b.running_var)
        assert _grads_equal(got, want)
        # backward only reads the trace: a second call gives the same
        assert _grads_equal(backward(reused, trace, h), got)
        # every array lives in the first trace's buffers
        assert trace.buffers is first.buffers
        for array, owner in [
            (out, first.output), (trace.post_bn, first.post_bn),
            (trace.measurements, first.measurements), (trace.signs, first.signs),
            (trace.signs_proj, first.signs_proj),
        ] + [(x_hat, first.buffers.x_hat) for x_hat, _ in trace.bn_caches]:
            assert np.shares_memory(array, owner)

    # a batch larger than the buffers gets new ones and leaves the old
    h = rng.uniform(0.0, 1.0, (200, 16))
    out, _ = forward(reused, h, Mode.INFER, reuse=trace)
    assert np.array_equal(out, forward(fresh, h, Mode.INFER)[0])
    assert not np.shares_memory(out, first.buffers.output)
    assert _grads_equal(backward(reused, *stale), got)
    # a rejected input writes nothing, so the trace stays usable
    with pytest.raises(ValueError):
        forward(reused, np.ones((5, 15)), Mode.TRAIN, reuse=stale[0])
    assert _grads_equal(backward(reused, *stale), got)


# ------------------------------------------ textbook reference, paper shape
#
# forward/backward and the batch-norm layer fold their batch sums and
# build updates in place; these are the plain formulas they must match.


def _textbook_bn_forward(layer, x, mode):
    if mode is Mode.TRAIN:
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        layer.running_mean = (
            layer.momentum * layer.running_mean + (1.0 - layer.momentum) * mean
        )
        layer.running_var = (
            layer.momentum * layer.running_var + (1.0 - layer.momentum) * var
        )
    else:
        mean = layer.running_mean
        var = layer.running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    x_hat = (x - mean) * inv_std
    return layer.gamma * x_hat + layer.beta, (x_hat, inv_std)


def _textbook_bn_backward(layer, grad_out, cache, mode):
    x_hat, inv_std = cache
    grad_beta = grad_out.sum(axis=0)
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    grad_xhat = grad_out * layer.gamma
    if mode is Mode.INFER:
        return grad_xhat * inv_std, grad_gamma, grad_beta
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


def _textbook_backward(model, h, mode, y, post_bn, caches, signs, signs_proj):
    phi = model.phi
    layers = model.num_updates + 1
    d_phi = np.zeros_like(phi)
    d_alpha = 0.0
    d_gammas, d_betas = [None] * layers, [None] * layers
    g = (2.0 / h.shape[0]) * (np.maximum(post_bn[-1], 0.0) - h)
    g = g * (post_bn[-1] > 0)
    for t in range(model.num_updates, 0, -1):
        g, d_gammas[t], d_betas[t] = _textbook_bn_backward(
            model.bn_layers[t], g, caches[t], mode
        )
        s, sp = signs[t - 1], signs_proj[t - 1]
        d_alpha -= float(np.sum(g * (s - sp @ phi))) / t
        gp = g @ phi.T
        d_phi += (model.alpha / t) * (sp.T @ g + gp.T @ s)
    g, d_gammas[0], d_betas[0] = _textbook_bn_backward(
        model.bn_layers[0], g, caches[0], mode
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
    assert len(trace.bn_caches) == len(ref[2])
    for (x_hat, inv_std), (want_x_hat, want_inv_std) in zip(trace.bn_caches, ref[2]):
        assert _rel(x_hat, want_x_hat) <= 1e-12
        assert _rel(inv_std, want_inv_std) <= 1e-12
    for layer, ref_layer in zip(model.bn_layers, reference.bn_layers):
        assert _rel(layer.running_mean, ref_layer.running_mean) <= 1e-12
        assert _rel(layer.running_var, ref_layer.running_var) <= 1e-12

    grads = backward(model, trace, h)
    d_phi, d_alpha, d_gammas, d_betas = _textbook_backward(reference, h, mode, *ref)
    assert _rel(grads.d_phi, d_phi) <= 1e-10
    assert abs(grads.d_alpha - d_alpha) <= 1e-10 * abs(d_alpha)
    for got, want in zip(grads.d_gammas, d_gammas):
        assert _rel(got, want) <= 1e-10
    # absolute: in train mode every BN but the last feeds a train-mode BN
    # whose input gradient sums to zero over the batch, so d_beta of
    # layers 0..T-1 is zero up to roundoff
    for got, want in zip(grads.d_betas, d_betas):
        assert np.max(np.abs(got - want)) <= 1e-12
    if mode is Mode.TRAIN:
        assert np.max(np.abs(d_betas[-1])) > 1e-3
