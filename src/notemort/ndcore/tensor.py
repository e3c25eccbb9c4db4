"""Float64 tensors recorded on a tape for reverse-mode differentiation.

Each Tensor produced by an operation remembers its parents, an op tag,
and a closure that pushes the output gradient back into the parents.
Tensors get strictly increasing ids in creation order, so the backward
sweep is just "visit reachable nodes by descending id" -- no recursion,
and parents are always visited after all of their consumers.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError

_ids = itertools.count()
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording (forward values only, e.g. evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcast to reach `grad.shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array plus its tape record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_id")

    # make `ndarray <op> Tensor` dispatch to our reflected operators
    # instead of numpy building an object array
    __array_ufunc__ = None

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "leaf",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op
        self._id = next(_ids)

    # -- construction helpers ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the element of a size-1 tensor as a float; a larger tensor raises ValueError."""
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into this tensor's gradient.

        The first gradient is stored without a zero-fill. `fresh=True`
        says that no one else holds `g` (a new array made by the
        backward closure), so it is adopted as it is; anything else --
        the output's own gradient, a view or a slice of it -- is copied,
        because later accumulations write into the stored array. A numpy
        scalar (what a full reduction returns) becomes a 0-d array.
        """
        if self.grad is None:
            self.grad = g if fresh and isinstance(g, np.ndarray) else np.array(g)
        else:
            self.grad += g

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar node.

        Every reachable grad-requiring tensor receives d(self)/d(tensor).
        """
        if self.data.size != 1:
            raise ConfigurationError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node._id in seen or not node.requires_grad:
                continue
            seen.add(node._id)
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=lambda n: n._id, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = _make(
            self.data + other.data, (self, other), "add",
            lambda g, a=self, b=other: (
                a._accum(_unbroadcast(g, a.shape)) if a.requires_grad else None,
                b._accum(_unbroadcast(g, b.shape)) if b.requires_grad else None,
            ),
        )
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _make(
            -self.data, (self,), "neg",
            lambda g, a=self: a._accum(-g, fresh=True),
        )

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = _make(
            self.data * other.data, (self, other), "mul",
            lambda g, a=self, b=other: (
                a._accum(_unbroadcast(g * b.data, a.shape), fresh=True)
                if a.requires_grad else None,
                b._accum(_unbroadcast(g * a.data, b.shape), fresh=True)
                if b.requires_grad else None,
            ),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out = _make(
            self.data / other.data, (self, other), "div",
            lambda g, a=self, b=other: (
                a._accum(_unbroadcast(g / b.data, a.shape), fresh=True)
                if a.requires_grad else None,
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), fresh=True)
                if b.requires_grad else None,
            ),
        )
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ConfigurationError("only scalar exponents are supported")
        return _make(
            self.data ** exponent, (self,), "pow",
            lambda g, a=self, e=exponent: a._accum(g * e * a.data ** (e - 1), fresh=True),
        )

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other)

        def back(g, a=self, b=other):
            if a.requires_grad:
                a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape), fresh=True)
            if b.requires_grad:
                b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape), fresh=True)

        return _make(self.data @ other.data, (self, other), "matmul", back)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        return _make(
            value, (self,), "exp", lambda g, a=self, v=value: a._accum(g * v, fresh=True)
        )

    def log(self) -> "Tensor":
        return _make(
            np.log(self.data), (self,), "log",
            lambda g, a=self: a._accum(g / a.data, fresh=True),
        )

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        return _make(
            value, (self,), "sqrt",
            lambda g, a=self, v=value: a._accum(g / (2.0 * v), fresh=True),
        )

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        return _make(
            value, (self,), "tanh",
            lambda g, a=self, v=value: a._accum(g * (1.0 - v * v), fresh=True),
        )

    def sigmoid(self) -> "Tensor":
        value = _sigmoid(self.data)
        return _make(
            value, (self,), "sigmoid",
            lambda g, a=self, v=value: a._accum(g * v * (1.0 - v), fresh=True),
        )

    def relu(self) -> "Tensor":
        value = np.maximum(self.data, 0.0)
        return _make(
            value, (self,), "relu",
            lambda g, a=self: a._accum(g * (a.data > 0.0), fresh=True),
        )

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values; gradient is zero outside [lo, hi]."""
        value = np.clip(self.data, lo, hi)
        return _make(
            value, (self,), "clip",
            lambda g, a=self: a._accum(
                g * ((a.data >= lo) & (a.data <= hi)), fresh=True
            ),
        )

    # -- reductions and shape ops ----------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def back(g, a=self):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.shape))

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", back)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _make(
            self.data.reshape(shape), (self,), "reshape",
            lambda g, a=self: a._accum(g.reshape(a.shape)),
        )

    def __getitem__(self, key) -> "Tensor":
        basic = _is_basic_key(key)

        def back(g, a=self):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            if basic:
                a.grad[key] += g
            else:
                np.add.at(a.grad, key, g)

        return _make(self.data[key], (self,), "getitem", back)


def _is_basic_key(key) -> bool:
    """True for keys of ints, slices, None and Ellipsis only.

    Such a key selects each element at most once, so its backward can add
    into the selected view; a fancy key may repeat an index (a token id
    looked up twice) and needs `np.add.at`.
    """
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _make(value, parents: tuple[Tensor, ...], op: str, back) -> Tensor:
    needs = _grad_enabled and any(p.requires_grad for p in parents)
    if not needs:
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=parents, _backward=back, _op=op)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                t._accum(g[tuple(index)])

    return _make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tuple(tensors), "concat", back,
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]

    def back(g):
        parts = np.moveaxis(g, axis, 0)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accum(part)

    return _make(
        np.stack([t.data for t in tensors], axis=axis),
        tuple(tensors), "stack", back,
    )


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> None:
    """Backward sweep that also zero-fills grads of unreachable parameters."""
    loss.backward()
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)

