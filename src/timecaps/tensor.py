"""Dense float64 tensors with recorded reverse-mode differentiation.

Every operation builds the tape as it runs (define-by-run): the result tensor
keeps references to its inputs and a closure that routes the output gradient
back to them.  Calling ``backward()`` on a scalar result topologically sorts
the recorded graph and accumulates gradients into every grad-enabled leaf;
each interior node releases its gradient, closure and parent links as soon as
its own backward has run, so the graph is consumed as it is differentiated.

Tensor data is treated as immutable after construction; ``grad`` is the only
mutable slot and is owned by the backward pass.  Elementwise binary ops
broadcast with numpy rules, which is how a batch axis meets per-model
parameters (a bias of shape (C,) added to (B, L, C) activations).
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeError

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording (e.g. for evaluation)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        """Accumulate d(self)/d(leaf) into every grad-enabled leaf.

        The recorded graph is consumable once: a second backward from the
        same root raises, because gradients would double-accumulate.  Interior
        nodes drop their gradient, closure and parents once their backward has
        run, so only leaves hold a ``grad`` afterwards, and an intermediate the
        caller does not hold is freed as soon as it has been differentiated.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise RuntimeError("backward() already ran on this graph root")
        self._consumed = True

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # dropping the list's reference frees unheld intermediates
            if node._backward is None:
                continue  # leaf or constant
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False):
    """Add ``g`` into ``t.grad``.

    ``owned=True`` promises that ``g`` is a float64 array of ``t``'s shape
    that nothing else will read or write: freshly computed, or a view of the
    calling node's own gradient buffer, which backward() releases right after
    the call.  It then becomes the gradient buffer as is.  Otherwise
    (read-only broadcasts, the upstream gradient itself, arrays handed to
    several parents) the first write copies, so every tensor owns its buffer
    and later contributions can add into it in place.
    """
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def make_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a forward result, recording parents and the gradient closure."""
    track = grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _broadcast_axes(full: tuple[int, ...], shape: tuple[int, ...]) -> tuple[int, ...]:
    """Axes of a broadcast result of shape ``full`` along which an operand of
    ``shape`` was repeated: the ones it lacks and the unit axes it widened."""
    lead = len(full) - len(shape)
    return tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and full[lead + i] != 1)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast result's gradient back down to an operand's shape."""
    if g.shape == shape:
        return g
    return g.sum(axis=_broadcast_axes(g.shape, shape)).reshape(shape)


def _binary(a, b, fwd, da, db) -> Tensor:
    """Elementwise binary op; operand shapes broadcast with numpy rules and a
    plain number broadcasts as a scalar."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("at least one operand must be a Tensor")
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    av = a.data if a_t else float(a)
    bv = b.data if b_t else float(b)
    try:
        data = fwd(av, bv)
    except ValueError:
        raise ShapeError(f"operand shapes do not broadcast: {np.shape(av)} vs {np.shape(bv)}") from None

    def backward(gout: np.ndarray):
        for t, d in ((a, da), (b, db)):
            if isinstance(t, Tensor) and t.requires_grad:
                g = _unbroadcast(d(gout, av, bv), t.shape)
                _accumulate(t, g, owned=g is not gout)

    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))
    return make_op(data, parents, backward)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def relu(t: Tensor) -> Tensor:
    mask = t.data > 0

    def backward(gout):
        _accumulate(t, gout * mask, owned=True)

    return make_op(np.where(mask, t.data, 0.0), (t,), backward)


def sqrt(t: Tensor) -> Tensor:
    out = np.sqrt(t.data)

    def backward(gout):
        _accumulate(t, gout / (2.0 * out), owned=True)

    return make_op(out, (t,), backward)


def _normalize_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    norm = []
    for ax in axes:
        a = ax + ndim if ax < 0 else ax
        if not 0 <= a < ndim:
            raise ValueError(f"axis {ax} out of range for ndim {ndim}")
        norm.append(a)
    if len(set(norm)) != len(norm):
        raise ValueError(f"duplicate axes in {axes}")
    return tuple(sorted(norm))


def sum_over(t: Tensor, axes=None) -> Tensor:
    axes_n = _normalize_axes(axes, t.data.ndim)
    data = t.data.sum(axis=axes_n if axes_n else None)
    kept = tuple(1 if ax in axes_n else n for ax, n in enumerate(t.shape))

    def backward(gout):
        _accumulate(t, np.broadcast_to(np.reshape(gout, kept), t.shape))

    return make_op(data, (t,), backward)


def mean_over(t: Tensor, axes=None) -> Tensor:
    axes_n = _normalize_axes(axes, t.data.ndim)
    return mul(sum_over(t, axes_n), 1.0 / math.prod(t.shape[ax] for ax in axes_n))


def reshape(t: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if math.prod(new_shape) != t.size:
        raise ShapeError(f"cannot reshape {t.shape} ({t.size} elements) to {new_shape}")
    old_shape = t.shape

    def backward(gout):
        # gout is this node's own gradient buffer, released as soon as this
        # returns, so the parent may adopt a view of it
        _accumulate(t, np.asarray(gout).reshape(old_shape), owned=True)

    return make_op(t.data.reshape(new_shape), (t,), backward)


def permute(t: Tensor, order: Iterable[int]) -> Tensor:
    order = tuple(order)
    if sorted(order) != list(range(t.data.ndim)):
        raise ValueError(f"{order} is not a permutation of axes for ndim {t.data.ndim}")
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))

    def backward(gout):
        _accumulate(t, np.transpose(np.asarray(gout), inverse), owned=True)  # as in reshape

    return make_op(np.transpose(t.data, order), (t,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    axis = axis + ndim if axis < 0 else axis
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError("concat operands must share rank")
        for ax in range(ndim):
            if ax != axis and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(f"concat mismatch off-axis: {t.shape} vs {tensors[0].shape}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(gout):
        g = np.asarray(gout)
        idx: list = [slice(None)] * ndim
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx[axis] = slice(start, stop)
                _accumulate(t, g[tuple(idx)])

    return make_op(data, tuple(tensors), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The 2-D product ``a @ b`` of an (m, k) and a (k, n) operand.

    The adjoints are ``g @ bT`` and ``aT @ g`` on transposed views.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul operands do not match: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(gout):
        g = np.asarray(gout)
        if a.requires_grad:
            _accumulate(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g, owned=True)

    return make_op(data, (a, b), backward)
