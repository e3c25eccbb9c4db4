"""Autodiff engine: op-level gradient checks against finite differences.

Besides ndcore's own ops this checks the generic tape ops of
`oracles.py`, which the composed reference chains are written in."""

import numpy as np
import pytest

from notemort import ndcore
from notemort.errors import ConfigurationError
from notemort.ndcore import Tensor, backward, concat, no_grad, parameter
from notemort.ndcore.tensor import _make

from oracles import (
    clip, div, finite_diff_grad, log, matmul, max_rel_err, relu, sigmoid, sqrt, stack, tanh,
)

TOL = 1e-4


def check_grad(build_loss, params, seed_note=""):
    loss = build_loss()
    backward(loss, params)
    for p in params:
        numeric = finite_diff_grad(build_loss, p)
        err = max_rel_err(p.grad, numeric)
        assert err < TOL, f"gradient mismatch {err:.2e} {seed_note}"
        p.grad = None


@pytest.mark.parametrize("seed", range(10))
def test_arithmetic_grads(seed):
    rng = np.random.default_rng(seed)
    a = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal((3, 4)))

    def loss():
        return ((a * b + a - div(b, b * b + 2.0)) * (a + 1.5)).sum()

    check_grad(loss, [a, b])


@pytest.mark.parametrize("seed", range(10))
def test_matmul_broadcast_grads(seed):
    rng = np.random.default_rng(seed)
    a = parameter(rng.standard_normal((2, 5, 3)))
    w = parameter(rng.standard_normal((3, 4)))

    def loss():
        y = matmul(a, w)
        return (y * y).sum()

    check_grad(loss, [a, w])


@pytest.mark.parametrize("seed", range(10))
def test_nonlinearity_grads(seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.standard_normal(12) * 0.8)

    def loss():
        smooth = tanh(x) + sigmoid(x) * x + log(x * x + 0.5) + sqrt(x * x + 0.5)
        return (smooth + relu(x) * x + clip(x, -0.5, 0.5)).sum()

    check_grad(loss, [x])


@pytest.mark.parametrize("seed", range(5))
def test_reduction_and_shape_grads(seed):
    rng = np.random.default_rng(seed)
    x = parameter(rng.standard_normal((4, 6)))

    def loss():
        pooled = x.mean(axis=0) + x.sum(axis=1, keepdims=True).reshape(4)[:3].sum()
        return (pooled * pooled).sum()

    check_grad(loss, [x])


@pytest.mark.parametrize("seed", range(5))
def test_concat_stack_pad_grads(seed):
    rng = np.random.default_rng(seed)
    a = parameter(rng.standard_normal((3, 2)))
    b = parameter(rng.standard_normal((3, 5)))

    def loss():
        joined = concat([a, b], axis=1)
        piled = stack([joined, joined * 2.0], axis=0)
        padded = concat([Tensor(np.zeros((2, 3, 1))), piled, Tensor(np.zeros((2, 3, 2)))], axis=-1)
        return (padded * padded).sum()

    check_grad(loss, [a, b])


def test_quadratic_form_gradient():
    w = parameter([1.0, -2.0, 3.0])
    loss = (w * w).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, -4.0, 6.0])


def test_dead_branch_gets_zero_gradient():
    w = parameter([1.0, 2.0])
    unused = parameter([3.0])
    loss = (w * w).sum()
    backward(loss, [w, unused])
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_nonscalar_loss_rejected():
    w = parameter([1.0, 2.0])
    with pytest.raises(ConfigurationError):
        (w * w).backward()


def test_no_grad_builds_no_tape():
    w = parameter([1.0, 2.0])
    with no_grad():
        out = (w * w).sum()
    assert not out.requires_grad
    assert out._parents == ()
    out.backward()
    assert w.grad is None


def test_grad_accumulates_across_shared_use():
    w = parameter([2.0])
    loss = (w * w + w * 3.0).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, [7.0])


def test_getitem_gradient_scatter():
    w = parameter(np.arange(6.0).reshape(2, 3))
    loss = (w[0, :] * 2.0).sum() + (w[0, 1:] * 1.0).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, [[2.0, 3.0, 3.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "key",
    [
        (slice(None), 1, slice(None)),  # the per-timestep slice bigru takes
        (Ellipsis, slice(1, 3), None),
        1,
        (np.array([2, 0, 2, 2]),),  # fancy key repeating an index
        (slice(None), np.array([1, 1, 3])),
    ],
)
def test_getitem_grads(key):
    rng = np.random.default_rng(3)
    x = parameter(rng.standard_normal((3, 4, 2)))
    w = rng.standard_normal(x.data[key].shape)

    def loss():
        # two lookups: one backward meets an empty grad, the other adds to it
        y = x[key]
        return (y * y * w).sum() + x[key].sum()

    check_grad(loss, [x])


def test_add_does_not_share_one_gradient_between_parents():
    a = parameter([1.0, 2.0])
    b = parameter([3.0, -1.0])
    other = a * 3.0  # a second consumer of a, whose backward runs after the add's
    total = a + b
    loss = (total * total).sum() + other.sum()
    loss.backward()
    np.testing.assert_array_equal(b.grad, 2.0 * (a.data + b.data))
    np.testing.assert_array_equal(a.grad, 2.0 * (a.data + b.data) + 3.0)


def test_backward_releases_interior_gradients_only():
    """Interior nodes drop their gradient once pushed to their parents;
    the leaves keep theirs, with the values of the chain rule, and the
    root keeps its own."""
    a = parameter([1.0, -2.0])
    b = parameter([3.0, 0.5])
    prod = a * b
    total = prod + a
    loss = (total * total).sum()
    loss.backward()
    assert prod.grad is None and total.grad is None
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(a.grad, 2.0 * (a.data * b.data + a.data) * (b.data + 1.0))
    np.testing.assert_array_equal(b.grad, 2.0 * (a.data * b.data + a.data) * a.data)


def test_backward_hands_the_root_closure_its_own_gradient():
    """A closure owns the gradient it is handed and may overwrite it; the
    root still keeps ones."""
    x = parameter([2.0])

    def back(g):
        g *= 3.0
        x._accum(g, fresh=True)

    loss = _make(x.data * 3.0, (x,), "triple", back)
    loss.backward()
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(x.grad, 3.0)
    assert x.grad is not loss.grad


def test_node_ids_increase_in_forward_order():
    a = parameter([1.0])
    b = a * 2.0
    c = b + 1.0
    assert a._id < b._id < c._id


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_returns_float_for_any_size_one_shape(shape):
    t = Tensor(np.full(shape, 0.25))
    got = t.item()
    assert type(got) is float
    assert got == 0.25


def test_item_rejects_larger_tensor():
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, 2.0])).item()


def test_op_set_is_frozen():
    """ndcore exports, and Tensor defines, only what the program records.
    A generic op a test needs is built on `_make` in oracles.py; one added
    here must come with a caller in the program."""
    assert ndcore.__all__ == [
        "Tensor", "parameter", "concat", "no_grad", "backward",
        "Conv1dParams", "BatchNormParams", "GruDirectionParams", "BiGruParams", "DenseParams",
        "conv1d", "spatial_dropout", "batchnorm", "fold_batchnorm", "conv_block_train",
        "global_avg_pool", "bigru", "dense_sigmoid", "l2_penalty",
        "AmsGrad", "save_checkpoint", "load_checkpoint",
    ]
    methods = sorted(n for n, v in vars(Tensor).items() if callable(v) or isinstance(v, property))
    assert methods == [
        "__add__", "__getitem__", "__init__", "__mul__", "__neg__", "__repr__", "__rmul__",
        "__sub__", "_accum", "backward", "item", "mean", "reshape", "shape", "size", "sum",
    ]
