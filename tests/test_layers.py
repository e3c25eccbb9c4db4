"""Layer forwards against independent oracles, plus gradient checks."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from notemort.errors import ConfigurationError, DataError
from notemort.ndcore import layers
from notemort.ndcore import (
    BiGruParams,
    Conv1dParams,
    BatchNormParams,
    DenseParams,
    GruDirectionParams,
    Tensor,
    backward,
    bigru,
    batchnorm,
    conv1d,
    conv_block_train,
    dense_sigmoid,
    fold_batchnorm,
    global_avg_pool,
    l2_penalty,
    no_grad,
    parameter,
    spatial_dropout,
)

from notemort.ndcore.layers import NoteRows
from notemort.ndcore.tensor import _sigmoid

from oracles import (
    batchnorm_eval_composed,
    batchnorm_train_composed,
    bigru_composed,
    bigru_scalar,
    conv1d_composed,
    conv1d_loops,
    conv1d_unrolled,
    conv_block_eval_composed,
    conv_block_train_composed,
    dense_sigmoid_composed,
    finite_diff_grad,
    global_avg_pool_composed,
    gru_scalar_step,
    gru_step_composed,
    l2_penalty_composed,
    max_rel_err,
    sigmoid_masked,
)

TOL = 1e-4


def make_conv(rng, k, c_in, c_out):
    return Conv1dParams(
        kernels=parameter(rng.standard_normal((k, c_in, c_out))),
        bias=parameter(rng.standard_normal(c_out)),
    )


def make_gru_dir(rng, d, h, zero=False):
    def w(shape):
        return parameter(np.zeros(shape) if zero else rng.standard_normal(shape) * 0.4)

    return GruDirectionParams(
        w_z=w((d, h)), u_z=w((h, h)), b_z=w(h),
        w_r=w((d, h)), u_r=w((h, h)), b_r=w(h),
        w_h=w((d, h)), u_h=w((h, h)), b_h=w(h),
    )


def gru_dir_arrays(p):
    return {k: t.data for k, t in p.all_tensors().items()}


# -- conv1d ---------------------------------------------------------------


def test_conv1d_hand_example():
    params = Conv1dParams(
        kernels=parameter(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)),
        bias=parameter(np.zeros(1)),
    )
    out = conv1d(Tensor(np.array([[1.0], [2.0], [3.0]])), params)
    np.testing.assert_allclose(out.data.reshape(-1), [-2.0, -2.0, 2.0])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 4))
    kernels = np.zeros((3, 4, 4))
    kernels[1] = np.eye(4)
    params = Conv1dParams(kernels=parameter(kernels), bias=parameter(np.zeros(4)))
    np.testing.assert_allclose(conv1d(Tensor(x), params).data, x)


def test_conv1d_zero_input_gives_bias():
    rng = np.random.default_rng(1)
    params = make_conv(rng, 3, 2, 5)
    out = conv1d(Tensor(np.zeros((6, 2))), params)
    np.testing.assert_allclose(out.data, np.broadcast_to(params.bias.data, (6, 5)))


@pytest.mark.parametrize("seed", range(20))
def test_conv1d_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(1, 33))
    c_in = int(rng.integers(1, 9))
    c_out = int(rng.integers(1, 9))
    x = rng.standard_normal((length, c_in))
    params = make_conv(rng, 3, c_in, c_out)
    got = conv1d(Tensor(x), params).data
    want = conv1d_loops(x, params.kernels.data, params.bias.data)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_conv1d_rejects_even_kernel_and_channel_mismatch():
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigurationError):
        conv1d(Tensor(np.zeros((4, 2))), make_conv(rng, 2, 2, 3))
    with pytest.raises(ConfigurationError):
        conv1d(Tensor(np.zeros((4, 5))), make_conv(rng, 3, 2, 3))


@pytest.mark.parametrize("seed", range(5))
def test_conv1d_gradients(seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.standard_normal((2, 6, 3)))
    params = make_conv(rng, 3, 3, 4)

    def loss():
        y = conv1d(x, params)
        return (y * y).sum()

    tensors = [x, params.kernels, params.bias]
    out = loss()
    backward(out, tensors)
    for t in tensors:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL
        t.grad = None


# (input shape, kernel size): 2-D [L, C], 3-D and 4-D leading axes, the
# 1x1 shortcut projection, K = 5, a single position, L < K, and C_in =
# C_out (4), where the input gradient is written over the output gradient
FUSED_CONV_CASES = [
    ((7, 3), 3),
    ((2, 7, 3), 3),
    ((2, 3, 7, 3), 3),
    ((2, 7, 3), 1),
    ((2, 7, 3), 5),
    ((3, 1, 3), 3),
    ((2, 2, 3), 5),
    ((2, 7, 4), 3),
    ((2, 7, 4), 1),
]


def run_with_grads(op, x_data, leaves, grad_out):
    """Forward `op(x, leaves)` and backward sum(out * grad_out); returns
    the output and the gradients of x and of every leaf."""
    x = parameter(x_data.copy())
    out = op(x, leaves)
    (out * grad_out).sum().backward()
    return out.data, [x.grad] + [t.grad for t in vars(leaves).values() if isinstance(t, Tensor)]


@pytest.mark.parametrize("one_index_per_chunk", [False, True])
@pytest.mark.parametrize("shape,k", FUSED_CONV_CASES)
def test_conv1d_fused_matches_composition(shape, k, one_index_per_chunk, monkeypatch):
    if one_index_per_chunk:
        monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    rng = np.random.default_rng(k * 100 + len(shape))
    x = rng.standard_normal(shape)
    kernels = rng.standard_normal((k, shape[-1], 4))
    bias = rng.standard_normal(4)
    grad_out = rng.standard_normal(shape[:-1] + (4,))
    results = [
        run_with_grads(
            op, x, Conv1dParams(parameter(kernels.copy()), parameter(bias.copy())), grad_out
        )
        for op in (conv1d, conv1d_composed)
    ]
    (out, grads), (want_out, want_grads) = results
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    assert len(grads) == len(want_grads) == 3
    for got, want in zip(grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def notes_per_chunk(monkeypatch, n, length, k, c_in):
    """Patch the column chunk to n leading indices of [length, C_in] at kernel size k."""
    monkeypatch.setattr(layers, "_COLS_BYTES", n * length * k * c_in * 8)


# (input shape, kernel size, leading indices per column chunk; None: the default)
UNROLLED_CONV_CASES = [
    ((2, 7, 4), 3, None),
    ((2, 3, 7, 4), 5, None),
    ((7, 4), 3, None),
    ((2, 7, 4), 1, 1),
    ((5, 7, 4), 3, 2),  # chunks of 2, 2 and 1 notes share one column buffer
    ((5, 7, 3), 3, 2),
]


@pytest.mark.parametrize("shape,k,per_chunk", UNROLLED_CONV_CASES)
def test_conv1d_bit_identical_to_unrolled_gemm(shape, k, per_chunk, monkeypatch):
    """Values and the gradients of x, kernels and bias against one plain
    GEMM per note whose backward keeps every gradient in new arrays; at
    C_in = C_out the input gradient is written over the output gradient."""
    if per_chunk is not None:
        notes_per_chunk(monkeypatch, per_chunk, shape[-2], k, shape[-1])
    rng = np.random.default_rng(len(shape) + k)
    x = rng.standard_normal(shape)
    kernels = rng.standard_normal((k, shape[-1], 4))
    bias = rng.standard_normal(4)
    grad_out = rng.standard_normal(shape[:-1] + (4,))
    (out, grads), (want_out, want_grads) = [
        run_with_grads(
            op, x, Conv1dParams(parameter(kernels.copy()), parameter(bias.copy())), grad_out
        )
        for op in (conv1d, conv1d_unrolled)
    ]
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads, strict=True):
        assert np.array_equal(got, want)


# -- spatial dropout --------------------------------------------------------


def test_spatial_dropout_identity_cases():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 6)))
    assert spatial_dropout(x, 0.0, training=True, rng=rng) is x
    assert spatial_dropout(x, 0.7, training=False) is x
    with pytest.raises(ConfigurationError):
        spatial_dropout(x, 1.0, training=True, rng=rng)


def test_spatial_dropout_preserves_expectation():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones((4, 10000)))
    out = spatial_dropout(x, 0.5, training=True, rng=rng)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_spatial_dropout_drops_whole_channels_at_rate_p():
    rng = np.random.default_rng(11)
    p = 0.3
    trials = 100_000
    x = Tensor(np.ones((1, 5, trials // 5)))
    out = spatial_dropout(x, p, training=True, rng=rng)
    per_channel = out.data[0]
    # a channel is either all zero or all scaled: spatial, not elementwise
    assert np.all((per_channel == 0.0).all(axis=0) | (per_channel > 0.0).all(axis=0))
    drop_rate = float((per_channel[0] == 0.0).mean())
    stderr = np.sqrt(p * (1 - p) / (trials // 5))
    assert abs(drop_rate - p) < 3 * stderr


def test_spatial_dropout_gradient_with_frozen_mask():
    rng = np.random.default_rng(3)
    x = parameter(rng.standard_normal((3, 4)))

    def loss():
        y = spatial_dropout(x, 0.5, training=True, rng=np.random.default_rng(42))
        return (y * y).sum()

    out = loss()
    backward(out, [x])
    assert max_rel_err(x.grad, finite_diff_grad(loss, x)) < TOL


# -- batchnorm -----------------------------------------------------------------


def make_bn(channels, gamma=1.0, beta=0.0):
    return BatchNormParams(
        gamma=parameter(np.full(channels, gamma)),
        beta=parameter(np.full(channels, beta)),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
    )


def test_batchnorm_standardizes_in_train_mode():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 9, 3)) * 3.0 + 1.5)
    out = batchnorm(x, make_bn(3), training=True).data
    mean = out.mean(axis=(0, 1))
    var = out.var(axis=(0, 1))
    assert np.max(np.abs(mean)) < 1e-10
    assert np.max(np.abs(var - 1.0)) < 1e-4


def test_batchnorm_constant_channel_maps_to_beta():
    x = Tensor(np.full((3, 5, 2), 7.0))
    out = batchnorm(x, make_bn(2, gamma=2.0, beta=3.0), training=True).data
    np.testing.assert_allclose(out, 3.0)


def test_batchnorm_running_stats_update():
    rng = np.random.default_rng(8)
    bn = make_bn(2)
    x = rng.standard_normal((6, 5, 2)) + 4.0
    batchnorm(Tensor(x), bn, training=True)
    expected_mean = 0.99 * 0.0 + 0.01 * x.mean(axis=(0, 1))
    np.testing.assert_allclose(bn.running_mean, expected_mean)
    assert np.all(bn.running_var > 0)


def test_batchnorm_degenerate_batch_rejected():
    with pytest.raises(DataError):
        batchnorm(Tensor(np.zeros((1, 1, 3))), make_bn(3), training=True)


@pytest.mark.parametrize("seed", range(5))
def test_batchnorm_gradients(seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.standard_normal((3, 4, 2)))
    bn = make_bn(2)
    bn.gamma = parameter(rng.standard_normal(2) + 1.0)
    bn.beta = parameter(rng.standard_normal(2))

    def loss():
        y = batchnorm(x, bn, training=True)
        return (y * y * y).sum()

    tensors = [x, bn.gamma, bn.beta]
    out = loss()
    backward(out, tensors)
    for t in tensors:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL
        t.grad = None


@pytest.mark.parametrize("shape", [(7, 3), (2, 7, 3), (2, 3, 7, 3), (3, 1, 3)])
def test_batchnorm_train_fused_matches_composition(shape):
    rng = np.random.default_rng(len(shape))
    batches = [rng.standard_normal(shape) * 2.0 + 0.5 for _ in range(2)]
    gamma = rng.standard_normal(3) + 1.0
    beta = rng.standard_normal(3)
    grad_out = rng.standard_normal(shape)
    fused_bn, composed_bn = make_bn(3), make_bn(3)
    for x in batches:  # two steps, so the running statistics compound
        results = []
        for op, bn in (
            (lambda t, p: batchnorm(t, p, training=True), fused_bn),
            (batchnorm_train_composed, composed_bn),
        ):
            bn.gamma, bn.beta = parameter(gamma.copy()), parameter(beta.copy())
            results.append(run_with_grads(op, x, bn, grad_out))
        (out, grads), (want_out, want_grads) = results
        np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
        assert len(grads) == len(want_grads) == 3
        for got, want in zip(grads, want_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for got, want in ((fused_bn.running_mean, composed_bn.running_mean),
                          (fused_bn.running_var, composed_bn.running_var)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_fused_conv1d_and_batchnorm_add_one_tape_node_each():
    rng = np.random.default_rng(9)
    x = parameter(rng.standard_normal((2, 5, 3)))
    conv = make_conv(rng, 3, 3, 4)
    bn = make_bn(4)
    start = Tensor(0.0)._id
    y = conv1d(x, conv)
    assert y._id == start + 1
    assert y._parents == (x, conv.kernels, conv.bias)
    start = Tensor(0.0)._id
    z = batchnorm(y, bn, training=True)
    assert z._id == start + 1
    assert z._parents == (y, bn.gamma, bn.beta)


def random_bn(rng, channels):
    """Batchnorm parameters at random gamma, beta and running statistics."""
    return BatchNormParams(
        gamma=parameter(rng.normal(1.0, 0.5, channels)),
        beta=parameter(rng.normal(0.0, 0.5, channels)),
        running_mean=rng.normal(0.0, 1.0, channels),
        running_var=rng.uniform(0.2, 3.0, channels),
    )


def forward_and_grads(build, leaves, grad_out):
    """`build()`'s output and the gradients of sum(out * grad_out) with
    respect to each leaf; the leaves' gradients are cleared afterwards."""
    out = build()
    (out * grad_out).sum().backward()
    grads = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    return out.data, grads


def test_batchnorm_eval_mode_raises():
    with pytest.raises(ConfigurationError, match="fold_batchnorm"):
        batchnorm(Tensor(np.ones((2, 4, 3))), make_bn(3), training=False)


@pytest.mark.parametrize("seed", range(4))
def test_folded_conv_matches_conv_then_eval_batchnorm(seed):
    """conv1d with the norm folded in against the unfolded chain."""
    rng = np.random.default_rng(seed)
    x = parameter(rng.standard_normal((2, 6, 3)))
    conv = make_conv(rng, 3, 3, 4)
    bn = random_bn(rng, 4)
    out = conv1d(x, fold_batchnorm(conv, bn)).data
    want = batchnorm_eval_composed(conv1d(x, conv), bn).data
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


# -- the train-mode conv block -------------------------------------------------------


def make_block(seed, c_in, c_out):
    """A block's conv, norm (random statistics) and shortcut, the 1x1
    projection when the channel counts differ; the same seed gives equal
    copies."""
    rng = np.random.default_rng(seed)
    conv = make_conv(rng, 3, c_in, c_out)
    norm = random_bn(rng, c_out)
    shortcut = None if c_in == c_out else make_conv(rng, 1, c_in, c_out)
    return conv, norm, shortcut


def block_leaves(conv, norm, shortcut):
    leaves = [conv.kernels, conv.bias, norm.gamma, norm.beta]
    return leaves if shortcut is None else leaves + [shortcut.kernels, shortcut.bias]


# (input shape, C_out, x requires grad, p): the identity shortcut
# (C_in = C_out) with and without leading axes, the projection with a
# recorded and a constant input (a model's first block), and no dropout
FUSED_BLOCK_CASES = [
    ((2, 7, 4), 4, True, 0.5),
    ((2, 3, 7, 4), 4, True, 0.5),
    ((7, 4), 4, True, 0.5),
    ((2, 7, 3), 4, True, 0.5),
    ((2, 7, 3), 4, False, 0.5),
    ((2, 7, 4), 4, True, 0.0),
]


@pytest.mark.parametrize("one_index_per_chunk", [False, True])
@pytest.mark.parametrize("shape,c_out,x_grad,p", FUSED_BLOCK_CASES)
def test_conv_block_train_bit_identical_to_composition(
    shape, c_out, x_grad, p, one_index_per_chunk, monkeypatch
):
    """Two steps of the fused block and of the separate nodes: outputs,
    the gradients of x and of every parameter, the running statistics
    and the rng state afterwards are equal bit for bit."""
    if one_index_per_chunk:
        monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    data = np.random.default_rng(len(shape) + shape[-1])
    batches = [data.standard_normal(shape) * 2.0 + 0.5 for _ in range(2)]
    grad_out = data.standard_normal(shape[:-1] + (c_out,))
    results = []
    for op in (conv_block_train, conv_block_train_composed):
        conv, norm, shortcut = make_block(7, shape[-1], c_out)
        leaves = block_leaves(conv, norm, shortcut)
        rng = np.random.default_rng(8)
        steps = []
        for x_data in batches:  # two steps, so the running statistics compound
            x = Tensor(x_data.copy(), requires_grad=x_grad)
            out = op(x, conv, norm, shortcut, p=p, rng=rng)
            (out * grad_out).sum().backward()
            arrays = [out.data, x.grad, *(t.grad for t in leaves),
                      norm.running_mean.copy(), norm.running_var.copy()]
            steps.append((arrays, rng.bit_generator.state))
            for t in leaves:
                t.grad = None
        results.append(steps)
    for (got_arrays, got_rng), (want_arrays, want_rng) in zip(*results):
        assert got_rng == want_rng
        assert (got_arrays[1] is None) == (not x_grad)
        for got, want in zip(got_arrays, want_arrays, strict=True):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)


# (input shape, 1x1 projection at C_in = C_out, consumers of the block's
# output, leading indices per column chunk; None: the default)
IN_PLACE_BLOCK_CASES = [
    ((2, 7, 4), True, 1, None),  # both GEMMs write their input gradient over their g
    ((2, 7, 4), False, 2, None),  # the output's gradient is summed, then masked in place
    ((2, 7, 4), True, 2, 1),
    ((5, 7, 4), False, 1, 2),  # chunks of 2, 2 and 1 notes share one column buffer
    ((5, 7, 4), True, 1, 2),
]


@pytest.mark.parametrize("shape,project,consumers,per_chunk", IN_PLACE_BLOCK_CASES)
def test_conv_block_train_in_place_backward_bit_identical(
    shape, project, consumers, per_chunk, monkeypatch
):
    """Two steps of the block against the chain of separate nodes with
    convolutions that keep every gradient in new arrays, with x also read
    by a node the backward reaches later: outputs, the gradients of x and
    of every parameter, the running statistics and the rng state are
    equal bit for bit."""
    c = shape[-1]
    if per_chunk is not None:
        notes_per_chunk(monkeypatch, per_chunk, shape[-2], 3, c)
    data = np.random.default_rng(len(shape) + consumers)
    batches = [data.standard_normal(shape) * 2.0 + 0.5 for _ in range(2)]
    grad_outs = [data.standard_normal(shape) for _ in range(consumers)]
    other = data.standard_normal(shape)
    results = []
    for op in (conv_block_train, partial(conv_block_train_composed, conv_op=conv1d_unrolled)):
        conv, norm, _ = make_block(7, c, c)
        shortcut = make_conv(np.random.default_rng(9), 1, c, c) if project else None
        leaves = block_leaves(conv, norm, shortcut)
        rng = np.random.default_rng(8)
        steps = []
        for x_data in batches:
            x = parameter(x_data.copy())
            earlier = (x * other).sum()
            out = op(x, conv, norm, shortcut, p=0.5, rng=rng)
            loss = earlier
            for grad_out in grad_outs:
                loss = loss + (out * grad_out).sum()
            loss.backward()
            arrays = [out.data, x.grad, *(t.grad for t in leaves),
                      norm.running_mean.copy(), norm.running_var.copy()]
            steps.append((arrays, rng.bit_generator.state))
            for t in leaves:
                t.grad = None
        results.append(steps)
    for (got_arrays, got_rng), (want_arrays, want_rng) in zip(*results):
        assert got_rng == want_rng
        for got, want in zip(got_arrays, want_arrays, strict=True):
            assert np.array_equal(got, want)


def test_conv_block_train_backward_allocates_no_conv_sized_array():
    """The identity block's backward masks its gradient in place and
    writes the input gradient over xhat, with one column buffer: its
    tracemalloc peak above the pre-backward baseline stays below one
    conv-sized array plus one column chunk. Notes are 500 long: at a
    few dozen positions numpy's buffered iterator, which can take three
    operand copies of a tap's scatter-add, is itself near conv-sized."""
    shape = (6, 500, 16)
    rng = np.random.default_rng(5)
    conv, norm, _ = make_block(16, 16, 16)
    x = parameter(rng.standard_normal(shape))
    out = conv_block_train(x, conv, norm, None, p=0.5, rng=rng)
    g = rng.standard_normal(shape)
    chunk_bytes = 3 * g.nbytes  # the columns [6, 500, 3 * 16] of all six notes
    assert layers._COLS_BYTES >= chunk_bytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak - base < g.nbytes + chunk_bytes


def test_conv_block_train_is_one_tape_node():
    rng = np.random.default_rng(11)
    x = parameter(rng.standard_normal((2, 5, 3)))
    conv, norm, shortcut = make_block(12, 3, 4)
    start = Tensor(0.0)._id
    out = conv_block_train(x, conv, norm, shortcut, p=0.5, rng=rng)
    assert out._id == start + 1
    assert out._parents == (x, *block_leaves(conv, norm, shortcut))
    out.sum().backward()
    with pytest.raises(ConfigurationError):  # its saved xhat is spent
        out.sum().backward()


@pytest.mark.parametrize("c_in", [3, 4])
def test_conv_block_train_gradients(c_in):
    """Finite differences through the projection (C_in 3) and the
    identity shortcut (C_in 4), under one frozen dropout mask."""
    rng = np.random.default_rng(c_in)
    x = parameter(rng.standard_normal((2, 5, c_in)))
    conv, norm, shortcut = make_block(13, c_in, 4)

    def loss():
        mask_rng = np.random.default_rng(42)
        y = conv_block_train(x, conv, norm, shortcut, p=0.5, rng=mask_rng)
        return (y * y).sum()

    tensors = [x] + block_leaves(conv, norm, shortcut)
    backward(loss(), tensors)
    for t in tensors:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL
        t.grad = None


@pytest.mark.parametrize("shape,p,with_rng,error", [
    ((1, 1, 4), 0.5, True, DataError),  # one value per channel
    ((2, 5, 4), 0.5, False, ConfigurationError),
    ((2, 5, 4), 1.0, True, ConfigurationError),
    ((2, 5, 4), -0.1, True, ConfigurationError),
])
def test_conv_block_train_rejects_what_the_separate_layers_reject(shape, p, with_rng, error):
    for op in (conv_block_train, conv_block_train_composed):
        conv, norm, shortcut = make_block(14, 4, 4)
        rng = np.random.default_rng(0) if with_rng else None
        with pytest.raises(error):
            op(Tensor(np.ones(shape)), conv, norm, shortcut, p=p, rng=rng)


def test_conv_block_train_identity_shortcut_needs_matching_channels():
    conv, norm, _ = make_block(15, 3, 4)
    with pytest.raises(ConfigurationError):
        conv_block_train(
            Tensor(np.ones((2, 5, 3))), conv, norm, None, p=0.5, rng=np.random.default_rng(0)
        )


# -- the compacted train-mode block: each note's padded tail once ------------------


def tailed_input(shape, seed):
    """x [N, L, C] whose notes are 0 from a random row on, the first note
    nowhere (no tail), and each note's count of leading rows that are not."""
    rng = np.random.default_rng(seed)
    n, length, _ = shape
    real = rng.integers(1, length // 2, n)
    real[0] = length
    x = rng.standard_normal(shape) * 2.0 + 0.5
    x[np.arange(length) >= real[:, None]] = 0.0
    return x, real


def uncut(a, rows, end):
    """A compacted [N, L, C] array as the uncut notes: each note's weighted
    row repeated over the rows cut out after it."""
    length = a.shape[1]
    return np.stack([
        np.concatenate([note[: r - end], np.repeat(note[r - end - 1 : r - end], length - r, 0),
                        note[r - end : r]])
        for note, r in zip(a, rows)
    ])


# one block: the tail's rows after the first 2 * reach = 2 hold one value and
# one gradient but for the last, so each note keeps 2 rows after its tail's
# first, the weighted row and its last 2 rows
BLOCK_END = 2
# |compacted - uncut| over the largest |uncut| entry, per array: at most
# 1.1e-14 over 20 seeds of the identity and projection cases below, and
# 4.1e-16 for the eval cut (`EVAL_ROWS_CASES`) under OpenBLAS's SkylakeX,
# Sandybridge, Haswell, Katmai and Nehalem kernels
COMPACT_TOL = 1e-13


def compact_rows(real, length, end=BLOCK_END):
    return np.minimum(real + 2 * end + 1, length)


def unpack(a, layout):
    """The packed rows of `layout`'s notes laid out as [N, L, C]: each
    note's rows first, 0 past them."""
    a = a.reshape(-1, a.shape[-1])
    out = np.zeros((len(layout.counts), layout.length, a.shape[-1]))
    for n, (start, stop) in enumerate(zip(layout.offsets[:-1], layout.offsets[1:])):
        out[n, : stop - start] = a[start:stop]
    return out


def assert_close_to(got, want, tol=COMPACT_TOL):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("c_in,c_out,x_grad", [(4, 4, True), (3, 4, True), (3, 4, False)])
def test_compacted_conv_block_train_matches_composition(c_in, c_out, x_grad, monkeypatch):
    """Two steps of the block over packed compacted zero-tailed notes and
    of the separate nodes over the uncut notes, under an output gradient
    that is 0 on every tail (as the masked pool's): outputs and the
    gradient of x (both laid out uncut), every parameter gradient and the
    running statistics agree within COMPACT_TOL, and the two draw the same
    masks. The compacted output and gradient of x hold each note's rows
    only."""
    monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    shape = (5, 40, c_in)
    data = np.random.default_rng(c_in)
    steps = [tailed_input(shape, seed) for seed in (1, 2)]
    # 0 on every tail, as the masked pool's gradient
    grad_outs = [data.standard_normal(shape[:-1] + (c_out,))
                 * (np.arange(shape[1]) < real[:, None])[..., None] for _, real in steps]
    results = []
    for compact in (True, False):
        conv, norm, shortcut = make_block(7, c_in, c_out)
        leaves = block_leaves(conv, norm, shortcut)
        rng = np.random.default_rng(8)
        arrays = []
        for (x_data, real), grad_out in zip(steps, grad_outs):
            if compact:
                rows = compact_rows(real, shape[1])
                layout = NoteRows(rows, shape[1], end=BLOCK_END)
                x = Tensor(layout.pack(x_data), requires_grad=x_grad)
                out = conv_block_train(x, conv, norm, shortcut, p=0.5, rng=rng, rows=layout)
                grad_out = layout.pack(grad_out)
            else:
                x = Tensor(x_data.copy(), requires_grad=x_grad)
                out = conv_block_train_composed(x, conv, norm, shortcut, p=0.5, rng=rng)
            (out * grad_out).sum().backward()
            got = [out.data] + ([x.grad] if x_grad else [])
            if compact:
                got = [unpack(a, layout) for a in got]
                past = np.arange(shape[1]) >= rows[:, None]
                assert all(np.all(a[past] == 0.0) for a in got)
                got = [uncut(a, rows, BLOCK_END) for a in got]
            arrays.append(got + [t.grad for t in leaves]
                          + [norm.running_mean.copy(), norm.running_var.copy()])
            for t in leaves:
                t.grad = None
        results.append((arrays, rng.bit_generator.state))
    (got_steps, got_rng), (want_steps, want_rng) = results
    assert got_rng == want_rng
    for got_arrays, want_arrays in zip(got_steps, want_steps):
        for got, want in zip(got_arrays, want_arrays, strict=True):
            assert_close_to(got, want)


@pytest.mark.parametrize("c_in", [3, 4])
def test_compacted_conv_block_train_gradients(c_in):
    """Finite differences through the block over compacted zero-tailed
    notes, the projection (C_in 3) and the identity shortcut (C_in 4),
    under one frozen dropout mask and a loss that reads no tail row: every
    parameter, and x on the rows before each tail."""
    length = 16
    x_data, real = tailed_input((3, length, c_in), c_in)
    rows = compact_rows(real, length)
    assert rows.min() < length
    layout = NoteRows(rows, length, end=BLOCK_END)
    head = layout.pack((np.arange(length) < real[:, None])[..., None])
    x = parameter(layout.pack(x_data))
    conv, norm, shortcut = make_block(13, c_in, 4)

    def loss():
        mask_rng = np.random.default_rng(42)
        y = conv_block_train(x, conv, norm, shortcut, p=0.5, rng=mask_rng, rows=layout)
        return (y * y * Tensor(head * 1.0)).sum()

    tensors = [x] + block_leaves(conv, norm, shortcut)
    backward(loss(), tensors)
    for t in tensors:
        numeric = finite_diff_grad(loss, t)
        if t is x:  # a tail row stands for others: only the real rows are x's
            t.grad, numeric = t.grad * head, numeric * head
        assert max_rel_err(t.grad, numeric) < TOL
        t.grad = None


def test_compacted_conv_block_train_multiplies_each_note_over_its_rows(monkeypatch):
    """Each GEMM pass of a compacted block unrolls note n over rows[n]
    rows, fewer than N * L in all, and the conv and the projection
    multiply both passes so."""
    x_data, real = tailed_input((4, 30, 3), 5)
    rows = compact_rows(real, 30)
    unrolled = []
    unroll = layers._ConvGemm._unroll

    def counting(self, part, buf, cut):
        unrolled.append(len(part) * cut)
        return unroll(self, part, buf, cut)

    monkeypatch.setattr(layers._ConvGemm, "_unroll", counting)
    conv, norm, shortcut = make_block(3, 3, 4)
    layout = NoteRows(rows, 30, end=BLOCK_END)
    out = conv_block_train(parameter(layout.pack(x_data)), conv, norm, shortcut, p=0.5,
                           rng=np.random.default_rng(0), rows=layout)
    out.sum().backward()
    # forward and kernel-gradient passes of the conv and the projection
    assert unrolled == rows.tolist() * 4
    assert sum(rows) < 4 * 30


def test_conv_block_train_with_no_cut_note_runs_the_uncut_block(monkeypatch):
    """`rows` that cut no note short of L leave the block's bits as without them."""
    monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    x_data, _ = tailed_input((3, 9, 4), 6)
    results = []
    for rows in (np.full(3, 9), None):
        conv, norm, _ = make_block(4, 4, 4)
        x = parameter(x_data.copy())
        out = conv_block_train(x, conv, norm, None, p=0.5, rng=np.random.default_rng(1),
                               rows=None if rows is None else NoteRows(rows, 9, end=BLOCK_END))
        (out * out).sum().backward()
        results.append([out.data, x.grad, *(t.grad for t in block_leaves(conv, norm, None)),
                        norm.running_mean, norm.running_var])
    for got, want in zip(*results, strict=True):
        assert np.array_equal(got, want)


# -- the eval-mode conv block: conv1d with the residual join -----------------------------


def residual_conv1d(x, conv, shortcut, rows=None):
    """The eval-mode residual conv block over folded parameters; with
    `rows`, over the packed notes of x cut to them, laid out as [N, L, C]
    (`unpack`)."""
    if rows is None:
        return conv1d(x, conv, residual=True, shortcut=shortcut)
    layout = NoteRows(rows, x.shape[-2])
    out = conv1d(Tensor(layout.pack(x.data)), conv, rows=layout, residual=True, shortcut=shortcut)
    return Tensor(unpack(out.data, layout))


# (C_in, x requires grad, parameters require grad): the identity shortcut
# (C_in = C_out = 3) with x and the parameters needing gradients, with a
# constant x (a model's first block) and with constant parameters, and
# the 1x1 projection (C_in 2)
EVAL_BLOCK_CASES = {
    "identity": (3, True, True),
    "identity-constant-x": (3, False, True),
    "identity-constant-params": (3, True, False),
    "projection": (2, True, True),
}


def eval_block_case(case):
    """x and a block for one case, whose channel 0 has no kernel and bias
    0.5 and an x or shortcut of -0.5 that put its first two sums at 0."""
    c_in, x_grad, params_grad = EVAL_BLOCK_CASES[case]
    rng = np.random.default_rng(3)
    x_data = rng.standard_normal((2, 5, c_in))
    conv, _, shortcut = make_block(4, c_in, 3)
    conv.kernels.data[..., 0] = 0.0
    conv.bias.data[0] = 0.5
    if shortcut is None:
        x_data[0, :2, 0] = -0.5
    else:
        shortcut.kernels.data[..., 0] = 0.0
        shortcut.bias.data[0] = -0.5
    for params in (conv, shortcut):
        if params is not None:
            params.kernels.requires_grad = params.bias.requires_grad = params_grad
    return Tensor(x_data, requires_grad=x_grad), conv, shortcut


@pytest.mark.parametrize("case", list(EVAL_BLOCK_CASES))
def test_residual_conv1d_bit_identical_to_composition(case):
    """Every row, as `rows` None computes it: the values equal those of
    the separate nodes bit for bit, with sums of exactly zero at the
    ReLU's kink."""
    x, conv, shortcut = eval_block_case(case)
    with no_grad():
        got = residual_conv1d(x, conv, shortcut).data
        want = conv_block_eval_composed(x, conv, shortcut).data
    assert np.all(got[0, :2, 0] == 0.0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", list(EVAL_BLOCK_CASES))
def test_residual_conv1d_refuses_to_record(case):
    """The block has no backward: where x or a parameter needs a gradient
    outside no_grad it raises, rather than leave the gradient out."""
    x, conv, shortcut = eval_block_case(case)
    with pytest.raises(ConfigurationError, match="no_grad"):
        residual_conv1d(x, conv, shortcut)


# (input shape, C_out, rows, leading indices per column chunk; None: the
# default): the identity shortcut and the projection, notes of one row
# and of every row, chunks of one, two and all notes (a cut note is its
# own chunk whatever the chunk size). At C = 200 the GEMMs of the notes
# cut to 4 and 9 rows can take the BLAS's small-matrix kernel, which sums
# in another order than the uncut GEMM of 40 rows.
EVAL_ROWS_CASES = [
    ((5, 9, 4), 4, [1, 4, 9, 2, 6], None),
    ((5, 9, 3), 4, [1, 4, 9, 2, 6], 1),
    ((5, 9, 4), 4, [3, 9, 1, 1, 5], 2),
    ((3, 40, 200), 200, [4, 9, 40], 1),
]


def eval_rows_case(shape, c_out, per_chunk, monkeypatch):
    """Input data that is not zero anywhere and a block for one case."""
    if per_chunk is not None:
        notes_per_chunk(monkeypatch, per_chunk, shape[-2], 3, shape[-1])
    rng = np.random.default_rng(shape[-1] + len(shape))
    conv, _, shortcut = make_block(shape[-2], shape[-1], c_out)
    conv.kernels.data *= 1.0 / np.sqrt(3 * shape[-1])
    return rng.standard_normal(shape), conv, shortcut


@pytest.mark.parametrize("shape,c_out,rows,per_chunk", EVAL_ROWS_CASES)
def test_residual_conv1d_rows_match_untrimmed_block(shape, c_out, rows, per_chunk, monkeypatch):
    """Each note is a sequence of its own, cut to its `rows`: below
    rows[n] the block agrees within COMPACT_TOL with the block that
    computes every row over x with the note's rows past its cut set to 0,
    and past the cut it is exactly 0."""
    x, conv, shortcut = eval_rows_case(shape, c_out, per_chunk, monkeypatch)
    rows = np.array(rows)
    kept = np.arange(shape[1]) < rows[:, None]
    cut_x = np.where(kept[..., None], x, 0.0)
    with no_grad():
        got = residual_conv1d(Tensor(x), conv, shortcut, rows).data
        want = conv_block_eval_composed(Tensor(cut_x), conv, shortcut).data
    assert_close_to(got[kept], want[kept])
    for n, cut in enumerate(rows):
        assert np.any(got[n, :cut] != 0.0), n
        assert np.all(got[n, cut:] == 0.0), n


@pytest.mark.parametrize("shape,c_out", [((2, 9, 4), 4), ((2, 40, 200), 200)])
def test_residual_conv1d_note_bits_do_not_depend_on_chunk_neighbours(shape, c_out, monkeypatch):
    """A note cut to 4 rows carries the same bits in its first 4 rows
    alone and beside a neighbour of one row or of every row, at column
    chunks that would hold both notes: a cut note is its own chunk."""
    x, conv, shortcut = eval_rows_case(shape, c_out, None, monkeypatch)
    assert layers._COLS_BYTES >= x.nbytes * 3  # both notes in one chunk
    with no_grad():
        alone = residual_conv1d(Tensor(x[:1]), conv, shortcut, np.array([4])).data[0, :4]
        for neighbour in (1, shape[-2]):
            out = residual_conv1d(Tensor(x), conv, shortcut, np.array([4, neighbour])).data
            assert np.array_equal(out[0, :4], alone), neighbour


def test_residual_conv1d_identity_shortcut_needs_matching_channels():
    conv, _, _ = make_block(15, 3, 4)
    with no_grad(), pytest.raises(ConfigurationError, match="identity shortcut"):
        residual_conv1d(Tensor(np.ones((2, 5, 3))), conv, None)


# `rows` for 2 of 3 notes, for 4, a count of 0, one past L, and not whole
MALFORMED_ROWS = {
    "short": np.array([4, 9]),
    "long": np.array([4, 9, 9, 9]),
    "zero": np.array([0, 9, 9]),
    "past-length": np.array([4, 10, 9]),
    "fractional": np.array([4.0, 9.0, 9.0]),
}


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("case", list(MALFORMED_ROWS))
def test_conv_blocks_refuse_malformed_rows(case, train, monkeypatch):
    """Both blocks refuse `rows` that does not hold one count in [1, L]
    per note of x, at one note per column chunk, where notes are cut."""
    monkeypatch.setattr(layers, "_COLS_BYTES", 1)
    x = Tensor(np.random.default_rng(9).standard_normal((3, 9, 4)))
    conv, norm, _ = make_block(5, 4, 4)
    with pytest.raises(ConfigurationError, match="rows must hold"):
        layout = NoteRows(MALFORMED_ROWS[case], 9, end=BLOCK_END if train else None)
        if train:
            conv_block_train(x, conv, norm, None, p=0.5, rng=np.random.default_rng(0),
                             rows=layout)
        else:
            with no_grad():
                conv1d(x, conv, rows=layout, residual=True)


def test_conv_block_train_rows_need_end():
    """A train-mode cut needs the weighted row that stands for the rest."""
    conv, norm, _ = make_block(5, 4, 4)
    with pytest.raises(ConfigurationError, match="end"):
        conv_block_train(Tensor(np.ones((3, 9, 4))), conv, norm, None, p=0.5,
                         rng=np.random.default_rng(0), rows=NoteRows(np.array([4, 9, 9]), 9))


@pytest.mark.parametrize("end", [None, BLOCK_END], ids=["eval", "train"])
def test_block_gemms_floor_the_conv_and_projection_alike(end):
    """The conv and the 1x1 projection of a block compute the same rows,
    as every block of a stack must: those of `rows` itself, with no row
    floor raising either GEMM's count, in eval and in train alike."""
    length, c_in, c_out = 60, 100, 200
    conv, _, shortcut = make_block(11, c_in, c_out)
    rows = np.array([5, 30, 55, 60])
    layout = NoteRows(rows, length, end=end)
    gemm, proj = layers._block_gemms(
        Tensor(np.zeros((layout.size, c_in))), conv, shortcut, layout
    )
    assert gemm.spans == proj.spans
    assert [cut for _, _, cut in gemm.spans] == rows.tolist()


def test_conv1d_rows_and_shortcut_need_residual():
    conv, _, shortcut = make_block(15, 3, 4)
    x = Tensor(np.ones((2, 5, 3)))
    with pytest.raises(ConfigurationError):
        conv1d(x, conv, shortcut=shortcut)
    with pytest.raises(ConfigurationError):
        conv1d(x, conv, rows=np.array([2, 5]))


# -- pooling ---------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3), (2, 2, 5, 3)])
def test_global_avg_pool_bit_identical_to_composition(shape):
    rng = np.random.default_rng(len(shape))
    x = parameter(rng.standard_normal(shape))
    mask = rng.random(shape[:-1]) > 0.4
    mask[..., 0] = True
    grad_out = rng.standard_normal(shape[:-2] + shape[-1:])
    out, grads = forward_and_grads(lambda: global_avg_pool(x, mask=mask), [x], grad_out)
    want, want_grads = forward_and_grads(
        lambda: global_avg_pool_composed(x, mask), [x], grad_out
    )
    assert np.array_equal(out, want)
    assert np.array_equal(grads[0], want_grads[0])


# (N, L, C) notes whose real tokens end at rows 0, 5, 12 and L - 1, with
# holes (PAD) before the end in the second and third
POOL_LASTS = [0, 5, 12, 29]


@pytest.mark.parametrize("end", [None, BLOCK_END], ids=["eval", "compacted"])
@pytest.mark.parametrize("cut", [False, True], ids=["uncut", "cut"])
def test_packed_global_avg_pool_bit_identical_to_composition(cut, end):
    """Over notes packed by `NoteRows`, cut or not: the pool carries the
    bits of the composition over the uncut notes, and its gradient those
    of the composition's on the real rows and 0 on every other packed row."""
    rng = np.random.default_rng(21)
    length, c = 30, 3
    mask = np.arange(length) <= np.array(POOL_LASTS)[:, None]
    mask[1, 2:4] = mask[2, 7] = False
    x_data = rng.standard_normal((len(POOL_LASTS), length, c))
    counts = np.full(len(POOL_LASTS), length)
    if cut:
        counts = np.minimum(np.array(POOL_LASTS) + 1 + 2 * BLOCK_END + 1, length)
    layout = NoteRows(counts, length, end=end)
    assert layout.cut == cut
    grad_out = rng.standard_normal((len(POOL_LASTS), c))
    x = parameter(layout.pack(x_data))
    out, (grad,) = forward_and_grads(
        lambda: global_avg_pool(x, mask=mask, rows=layout), [x], grad_out
    )
    x_uncut = parameter(x_data)
    want, (want_grad,) = forward_and_grads(
        lambda: global_avg_pool_composed(x_uncut, mask), [x_uncut], grad_out
    )
    assert np.array_equal(out, want)
    real = layout.pack(mask[..., None])[..., 0]
    assert np.array_equal(grad[real], layout.pack(want_grad)[real])
    assert np.all(grad[~real] == 0.0)


def test_residual_conv1d_and_masked_pool_add_one_tape_node_each():
    """The residual conv1d over packed notes makes one Tensor and records
    nothing; the masked pool over them is one tape node."""
    rng = np.random.default_rng(10)
    layout = NoteRows(np.array([2, 5]), 5)
    x = parameter(layout.pack(rng.standard_normal((2, 5, 3))))
    conv, _, shortcut = make_block(17, 3, 4)
    start = Tensor(0.0)._id
    with no_grad():
        y = conv1d(x, conv, rows=layout, residual=True, shortcut=shortcut)
    assert y._id == start + 1
    assert y._parents == () and not y.requires_grad
    y = parameter(y.data)
    start = Tensor(0.0)._id
    pooled = global_avg_pool(y, mask=np.ones((2, 5), dtype=bool), rows=layout)
    assert pooled._id == start + 1 and pooled._parents == (y,)


def test_global_avg_pool_examples():
    x = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
    np.testing.assert_allclose(global_avg_pool(x, mask=np.ones(2, dtype=bool)).data, [1.5, 3.5])
    np.testing.assert_allclose(
        global_avg_pool(x, mask=np.array([True, False])).data, [1.0, 3.0]
    )
    const = Tensor(np.full((5, 3), 2.5))
    np.testing.assert_allclose(
        global_avg_pool(const, mask=np.ones(5, dtype=bool)).data, [2.5, 2.5, 2.5]
    )


def test_global_avg_pool_all_masked_rejected():
    with pytest.raises(DataError):
        global_avg_pool(Tensor(np.zeros((3, 2))), mask=np.zeros(3, dtype=bool))


def test_global_avg_pool_gradient_with_mask():
    rng = np.random.default_rng(4)
    x = parameter(rng.standard_normal((2, 5, 3)))
    mask = rng.random((2, 5)) > 0.3
    mask[:, 0] = True

    def loss():
        y = global_avg_pool(x, mask=mask)
        return (y * y).sum()

    out = loss()
    backward(out, [x])
    assert max_rel_err(x.grad, finite_diff_grad(loss, x)) < TOL


# -- GRU ------------------------------------------------------------------------


def test_gru_step_zero_params_halves_state():
    rng = np.random.default_rng(0)
    p = make_gru_dir(rng, 2, 1, zero=True)
    h = gru_step_composed(Tensor(np.zeros(2)), Tensor(np.array([1.0])), p)
    np.testing.assert_allclose(h.data, [0.5])
    h0 = gru_step_composed(Tensor(np.zeros(2)), Tensor(np.zeros(1)), p)
    np.testing.assert_allclose(h0.data, [0.0])


def test_gru_zero_params_geometric_decay():
    rng = np.random.default_rng(0)
    p = make_gru_dir(rng, 3, 4, zero=True)
    h = Tensor(np.array([1.0, -2.0, 0.5, 4.0]))
    for _ in range(6):
        h = gru_step_composed(Tensor(np.zeros(3)), h, p)
    np.testing.assert_allclose(h.data, np.array([1.0, -2.0, 0.5, 4.0]) * 0.5**6)


@pytest.mark.parametrize("seed", range(10))
def test_gru_step_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    d, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    p = make_gru_dir(rng, d, hid)
    x = rng.standard_normal(d)
    h_prev = rng.standard_normal(hid)
    got = gru_step_composed(Tensor(x), Tensor(h_prev), p).data
    want = gru_scalar_step(x, h_prev, gru_dir_arrays(p))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_bigru_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    steps, d, hid = int(rng.integers(1, 7)), 3, 4
    params = BiGruParams(fwd=make_gru_dir(rng, d, hid), bwd=make_gru_dir(rng, d, hid))
    seq = rng.standard_normal((steps, d))
    outputs, final = bigru(Tensor(seq), params)
    want_out, want_final = bigru_scalar(
        seq, gru_dir_arrays(params.fwd), gru_dir_arrays(params.bwd)
    )
    assert np.max(np.abs(outputs.data - want_out)) < 1e-10
    assert np.max(np.abs(final.data - want_final)) < 1e-10


# (input shape, hidden): T = 1, the [T, D] form, the desk CTS layer 1
# and layer 2 shapes, and the desk temporal shape (stays x notes x filters)
FUSED_GRU_CASES = [
    ((3, 1, 5), 4),
    ((6, 5), 3),
    ((64, 24, 34), 8),
    ((64, 24, 16), 4),
    ((8, 4, 16), 8),
]


@pytest.mark.parametrize("shape,hidden", FUSED_GRU_CASES)
def test_bigru_fused_matches_composition(shape, hidden):
    rng = np.random.default_rng(sum(shape) + hidden)
    seq = rng.standard_normal(shape)
    dirs = [make_gru_dir(rng, shape[-1], hidden) for _ in range(2)]
    g_out = rng.standard_normal(shape[:-1] + (2 * hidden,))
    g_final = rng.standard_normal(shape[:-2] + (2 * hidden,))
    results = []
    for op in (bigru, bigru_composed):
        x = parameter(seq.copy())
        params = BiGruParams(
            *(GruDirectionParams(**{k: parameter(t.data.copy())
                                    for k, t in d.all_tensors().items()}) for d in dirs)
        )
        outputs, final = op(x, params)
        ((outputs * g_out).sum() + (final * g_final).sum()).backward()
        leaves = [x] + [t for d in (params.fwd, params.bwd) for t in d.all_tensors().values()]
        results.append((outputs.data, final.data, [t.grad for t in leaves]))
    (out, final, grads), (want_out, want_final, want_grads) = results
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(final, want_final, rtol=1e-12, atol=1e-12)
    assert len(grads) == len(want_grads) == 19
    for got, want in zip(grads, want_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_bigru_outputs_are_one_tape_node():
    rng = np.random.default_rng(3)
    params = BiGruParams(fwd=make_gru_dir(rng, 2, 3), bwd=make_gru_dir(rng, 2, 3))
    x = Tensor(rng.standard_normal((4, 6, 2)))
    start = Tensor(0.0)._id
    outputs, final = bigru(x, params)
    assert outputs._id == start + 1
    assert outputs._parents == (x,) + tuple(params.fwd.all_tensors().values()) + tuple(
        params.bwd.all_tensors().values()
    )
    assert [part._parents for part in final._parents] == [(outputs,), (outputs,)]


def test_bigru_single_step_final_equals_outputs():
    rng = np.random.default_rng(1)
    params = BiGruParams(fwd=make_gru_dir(rng, 2, 3), bwd=make_gru_dir(rng, 2, 3))
    outputs, final = bigru(Tensor(rng.standard_normal((1, 2))), params)
    np.testing.assert_allclose(outputs.data[0], final.data)


def test_bigru_zero_params_zero_state():
    rng = np.random.default_rng(1)
    params = BiGruParams(
        fwd=make_gru_dir(rng, 2, 3, zero=True), bwd=make_gru_dir(rng, 2, 3, zero=True)
    )
    _, final = bigru(Tensor(rng.standard_normal((5, 2))), params)
    np.testing.assert_allclose(final.data, np.zeros(6))


def test_bigru_palindrome_symmetry():
    rng = np.random.default_rng(9)
    shared = make_gru_dir(rng, 2, 3)
    params = BiGruParams(fwd=shared, bwd=shared)
    half = rng.standard_normal((3, 2))
    seq = np.concatenate([half, half[::-1]], axis=0)
    _, final = bigru(Tensor(seq), params)
    np.testing.assert_allclose(final.data[:3], final.data[3:], rtol=1e-12)


def test_bigru_rejects_empty_sequence():
    rng = np.random.default_rng(1)
    params = BiGruParams(fwd=make_gru_dir(rng, 2, 3), bwd=make_gru_dir(rng, 2, 3))
    with pytest.raises(DataError):
        bigru(Tensor(np.zeros((0, 2))), params)


def check_bigru_gradients(rng, shape):
    params = BiGruParams(fwd=make_gru_dir(rng, 2, 3), bwd=make_gru_dir(rng, 2, 3))
    seq = parameter(rng.standard_normal(shape))
    tensors = [seq] + list(params.fwd.all_tensors().values()) + list(
        params.bwd.all_tensors().values()
    )

    def loss():
        outputs, final = bigru(seq, params)
        return (outputs * outputs).sum() + (final * 2.0).sum()

    out = loss()
    backward(out, tensors)
    for t in tensors:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL
        t.grad = None


@pytest.mark.parametrize("seed", range(3))
def test_bigru_gradients(seed):
    check_bigru_gradients(np.random.default_rng(seed), (2, 4, 2))


@pytest.mark.parametrize("shape", [(3, 2), (2, 1, 2)])
def test_bigru_gradients_unbatched_and_single_step(shape):
    check_bigru_gradients(np.random.default_rng(len(shape)), shape)


# -- dense head -----------------------------------------------------------------


def test_dense_sigmoid_examples():
    zero = DenseParams(weight=parameter(np.zeros((3, 1))), bias=parameter(np.zeros(1)))
    out = dense_sigmoid(Tensor(np.array([1.0, 2.0, 3.0])), zero)
    assert out.data == pytest.approx(0.5)
    biased = DenseParams(
        weight=parameter(np.zeros((3, 1))), bias=parameter(np.array([np.log(3.0)]))
    )
    assert dense_sigmoid(Tensor(np.zeros(3)), biased).data == pytest.approx(0.75)


@pytest.mark.parametrize("seed", range(5))
def test_dense_sigmoid_strictly_inside_unit_interval(seed):
    rng = np.random.default_rng(seed)
    params = DenseParams(
        weight=parameter(rng.standard_normal((4, 1)) * 5),
        bias=parameter(rng.standard_normal(1)),
    )
    out = dense_sigmoid(Tensor(rng.standard_normal((10, 4)) * 5), params)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


@pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["unbatched", "batch"])
def test_dense_sigmoid_gradients(shape):
    """Finite differences for a batch and for one unbatched stay, whose
    `final` is [D] and whose probability is 0-d."""
    rng = np.random.default_rng(len(shape))
    x = parameter(rng.standard_normal(shape))
    params = DenseParams(
        weight=parameter(rng.standard_normal((4, 1))), bias=parameter(rng.standard_normal(1))
    )
    w = rng.standard_normal(shape[:-1])

    def loss():
        return (dense_sigmoid(x, params) * w).sum()

    leaves = [x, params.weight, params.bias]
    backward(loss(), leaves)
    for t in leaves:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL


HEAD_CASES = {
    "batch": ((6, 4), 1.0),
    "batch-of-one": ((1, 4), 1.0),
    "leading-axes": ((2, 3, 4), 1.0),
    "saturated": ((40, 4), 25.0),  # logits beyond +-37, clamped both ways
}


@pytest.mark.parametrize("shape,scale", HEAD_CASES.values(), ids=list(HEAD_CASES))
def test_dense_sigmoid_bit_identical_to_composition(shape, scale):
    rng = np.random.default_rng(14)
    arrays = [rng.standard_normal(shape), rng.standard_normal((4, 1)) * scale,
              rng.standard_normal(1)]
    logits = arrays[0] @ arrays[1] + arrays[2]
    if scale > 1.0:
        assert (logits > 37.0).any() and (logits < -37.0).any()
    w = rng.standard_normal(shape[:-1])
    results = []
    for op in (dense_sigmoid, dense_sigmoid_composed):
        x, weight, bias = (parameter(a.copy()) for a in arrays)
        out = op(x, DenseParams(weight=weight, bias=bias))
        backward((out * w).sum(), [x, weight, bias])
        results.append([out.data, x.grad, weight.grad, bias.grad])
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(got, want)


# -- l2 penalty -------------------------------------------------------------------


def test_l2_penalty_values_and_gradient():
    w = parameter(np.array([1.0, 2.0]))
    assert l2_penalty([w], 0.0).item() == 0.0
    loss = l2_penalty([w], 0.1)
    assert loss.item() == pytest.approx(0.5)
    loss.backward()
    np.testing.assert_allclose(w.grad, [0.2, 0.4])
    with pytest.raises(ConfigurationError):
        l2_penalty([w], -1.0)


@pytest.mark.parametrize("with_data_term", [False, True])
def test_l2_penalty_bit_identical_to_composition(with_data_term):
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (4, 4), (5,), (2, 3, 4)]
    arrays = [rng.standard_normal(s) for s in shapes]
    x = rng.standard_normal((3, 4))
    results = []
    for op in (l2_penalty, l2_penalty_composed):
        weights = [parameter(a.copy()) for a in arrays]
        # the data term comes first, as the forward does in training
        data = (weights[0] * x).sum() if with_data_term else None
        penalty = op(weights, 1e-3)
        loss = penalty if data is None else data + penalty
        loss.backward()
        results.append((penalty.data, [w.grad for w in weights]))
    (value, grads), (want_value, want_grads) = results
    assert value.tobytes() == np.asarray(want_value).tobytes()
    for got, want in zip(grads, want_grads):
        assert got.tobytes() == want.tobytes()


def test_sigmoid_bit_identical_to_masked_form():
    rng = np.random.default_rng(13)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310,
                        36.7, -36.7, 709.0, -709.0, 745.2, -745.2, 4000.0, -4000.0])
    grid = np.concatenate([
        special,
        rng.standard_normal(20_000) * 10.0,
        rng.uniform(-4000.0, 4000.0, 20_000),
        np.linspace(-50.0, 50.0, 20_000),
    ]).reshape(-1, 16)
    got, want = _sigmoid(grid), sigmoid_masked(grid)
    assert got.tobytes() == want.tobytes()
    nan = _sigmoid(np.array([np.nan, -np.nan]))
    assert np.isnan(nan).all()
