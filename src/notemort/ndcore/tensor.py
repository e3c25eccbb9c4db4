"""Float64 tensors recorded on a tape for reverse-mode differentiation.

Each Tensor produced by an operation remembers its parents, an op tag,
and a closure that pushes the output gradient back into the parents.
Tensors get strictly increasing ids in creation order, so the backward
sweep is just "visit reachable nodes by descending id" -- no recursion,
and parents are always visited after all of their consumers.

The generic ops are those the program records around its fused layers
and those the tests' reference chains are written in: `+`, unary and
binary `-`, `*` (either operand an array or a number), `sum`, `mean`,
`reshape`, indexing and `concat`. Every other step is a fused op of
`layers` (or `traineval.weighted_bce`) with its own backward.
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
        says that no one else holds `g` or any of its elements: a new
        array made by the backward closure, or the closure's own
        gradient (or a view of it) once the closure is done with it. Such
        a `g` is adopted as it is. Anything another holder can still see
        -- a parameter's or input's data, a saved forward array, or the
        gradient a closure also passes to another parent -- is copied,
        because later accumulations and the consumer's own backward
        closure write into the stored array. A numpy scalar (what a full
        reduction returns) becomes a 0-d array.
        """
        if self.grad is None:
            self.grad = g if fresh and isinstance(g, np.ndarray) else np.array(g)
        else:
            self.grad += g

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar node.

        Every reachable grad-requiring leaf receives d(self)/d(leaf), and
        this node keeps its own gradient (ones). An interior node -- one
        with a backward closure -- drops its gradient (`grad` is None
        again) as its closure is handed it, so the sweep holds only the
        gradients still to be propagated.

        A closure owns the gradient it is handed: nothing reads it after
        the closure, so the closure may overwrite it, or pass it (or a
        view of it) on with `_accum(..., fresh=True)` once it is done
        with it. The root's closure gets its own array of ones.
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
                g, node.grad = node.grad, None
                node._backward(g)
        self.grad = np.ones_like(self.data)

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

    def __neg__(self) -> "Tensor":
        return _make(
            -self.data, (self,), "neg",
            lambda g, a=self: a._accum(-g, fresh=True),
        )

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

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
        def back(g, a=self):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            # add.at sums every selection of a repeated fancy index
            np.add.at(a.grad, key, g)

        return _make(self.data[key], (self,), "getitem", back)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    exp never overflows; both branches share e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _recording(parents: Iterable[Tensor]) -> bool:
    """True when an op over these parents goes on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(value, parents: tuple[Tensor, ...], op: str, back) -> Tensor:
    if not _recording(parents):
        return Tensor(value)
    return Tensor(value, requires_grad=True, _parents=parents, _backward=back, _op=op)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    """A leaf tensor that gradients reach: a learned parameter."""
    return Tensor(data, requires_grad=True)


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


def backward(loss: Tensor, params: Iterable[Tensor] = ()) -> None:
    """Backward sweep that also zero-fills grads of unreachable parameters."""
    loss.backward()
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)

