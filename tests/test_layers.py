"""Layer forwards against independent oracles, plus gradient checks."""

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
    dense_sigmoid,
    global_avg_pool,
    gru_step,
    l2_penalty,
    parameter,
    spatial_dropout,
)

from oracles import (
    batchnorm_train_composed,
    bigru_scalar,
    conv1d_composed,
    conv1d_loops,
    finite_diff_grad,
    gru_scalar_step,
    max_rel_err,
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
        return (conv1d(x, params) ** 2).sum()

    tensors = [x, params.kernels, params.bias]
    out = loss()
    backward(out, tensors)
    for t in tensors:
        assert max_rel_err(t.grad, finite_diff_grad(loss, t)) < TOL
        t.grad = None


# (input shape, kernel size): 2-D [L, C], 3-D and 4-D leading axes, the
# 1x1 shortcut projection, K = 5, a single position and L < K
FUSED_CONV_CASES = [
    ((7, 3), 3),
    ((2, 7, 3), 3),
    ((2, 3, 7, 3), 3),
    ((2, 7, 3), 1),
    ((2, 7, 3), 5),
    ((3, 1, 3), 3),
    ((2, 2, 3), 5),
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
        return (spatial_dropout(x, 0.5, training=True, rng=np.random.default_rng(42)) ** 2).sum()

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


def test_batchnorm_eval_identity_stats():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 3))
    out = batchnorm(Tensor(x), make_bn(3), training=False).data
    np.testing.assert_allclose(out, x / np.sqrt(1 + 1e-5), rtol=0, atol=1e-12)


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
        return (batchnorm(x, bn, training=True) ** 3).sum()

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


# -- pooling ----------------------------------------------------------------------


def test_global_avg_pool_examples():
    x = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
    np.testing.assert_allclose(global_avg_pool(x).data, [1.5, 3.5])
    np.testing.assert_allclose(
        global_avg_pool(x, mask=np.array([True, False])).data, [1.0, 3.0]
    )
    const = Tensor(np.full((5, 3), 2.5))
    np.testing.assert_allclose(global_avg_pool(const).data, [2.5, 2.5, 2.5])


def test_global_avg_pool_all_masked_rejected():
    with pytest.raises(DataError):
        global_avg_pool(Tensor(np.zeros((3, 2))), mask=np.zeros(3, dtype=bool))


def test_global_avg_pool_gradient_with_mask():
    rng = np.random.default_rng(4)
    x = parameter(rng.standard_normal((2, 5, 3)))
    mask = rng.random((2, 5)) > 0.3
    mask[:, 0] = True

    def loss():
        return (global_avg_pool(x, mask=mask) ** 2).sum()

    out = loss()
    backward(out, [x])
    assert max_rel_err(x.grad, finite_diff_grad(loss, x)) < TOL


# -- GRU ------------------------------------------------------------------------


def test_gru_step_zero_params_halves_state():
    rng = np.random.default_rng(0)
    p = make_gru_dir(rng, 2, 1, zero=True)
    h = gru_step(Tensor(np.zeros(2)), Tensor(np.array([1.0])), p)
    np.testing.assert_allclose(h.data, [0.5])
    h0 = gru_step(Tensor(np.zeros(2)), Tensor(np.zeros(1)), p)
    np.testing.assert_allclose(h0.data, [0.0])


def test_gru_zero_params_geometric_decay():
    rng = np.random.default_rng(0)
    p = make_gru_dir(rng, 3, 4, zero=True)
    h = Tensor(np.array([1.0, -2.0, 0.5, 4.0]))
    for _ in range(6):
        h = gru_step(Tensor(np.zeros(3)), h, p)
    np.testing.assert_allclose(h.data, np.array([1.0, -2.0, 0.5, 4.0]) * 0.5**6)


@pytest.mark.parametrize("seed", range(10))
def test_gru_step_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    d, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    p = make_gru_dir(rng, d, hid)
    x = rng.standard_normal(d)
    h_prev = rng.standard_normal(hid)
    got = gru_step(Tensor(x), Tensor(h_prev), p).data
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


@pytest.mark.parametrize("seed", range(3))
def test_bigru_gradients(seed):
    rng = np.random.default_rng(seed)
    params = BiGruParams(fwd=make_gru_dir(rng, 2, 3), bwd=make_gru_dir(rng, 2, 3))
    seq = parameter(rng.standard_normal((2, 4, 2)))
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
