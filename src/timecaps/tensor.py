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

import functools
import math
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

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

    # Arithmetic sugar; scalars are allowed on either side.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

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


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast result's gradient back down to an operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _binary(a, b, fwd, da, db) -> Tensor:
    """Elementwise binary op; operand shapes broadcast with numpy rules and a
    plain number broadcasts as a scalar."""
    if not isinstance(a, Tensor) and not isinstance(b, Tensor):
        raise TypeError("at least one operand must be a Tensor")
    a_t = isinstance(a, Tensor)
    b_t = isinstance(b, Tensor)
    av = a.data if a_t else float(a)
    bv = b.data if b_t else float(b)
    if a_t and b_t and a.shape != b.shape:
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeError(f"operand shapes do not broadcast: {a.shape} vs {b.shape}") from None
    data = fwd(av, bv)

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


def div(a, b) -> Tensor:
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def neg(a: Tensor) -> Tensor:
    return make_op(-a.data, (a,), lambda g: _accumulate(a, -g, owned=True))


def scale(t: Tensor, s) -> Tensor:
    """Multiply a tensor by a scalar, where the scalar may itself be a
    trainable single-element tensor (gradient = sum of t * gout)."""
    if isinstance(s, Tensor):
        if s.size != 1:
            raise ShapeError(f"scale factor must be a single element, got shape {s.shape}")
        sval = float(s.data.reshape(()))
        data = t.data * sval

        def backward(gout: np.ndarray):
            if t.requires_grad:
                _accumulate(t, gout * sval, owned=True)
            if s.requires_grad:
                _accumulate(s, np.sum(gout * t.data).reshape(s.shape), owned=True)

        return make_op(data, (t, s), backward)
    return mul(t, float(s))


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


def _restore_keepdims(g: np.ndarray, axes: tuple[int, ...], keepdims: bool, in_shape) -> np.ndarray:
    if keepdims:
        return g
    shape = list(in_shape)
    for ax in axes:
        shape[ax] = 1
    return g.reshape(shape)


def sum_over(t: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes_n = _normalize_axes(axes, t.data.ndim)
    data = t.data.sum(axis=axes_n if axes_n else None, keepdims=keepdims)

    def backward(gout):
        g = _restore_keepdims(np.asarray(gout), axes_n, keepdims, t.shape)
        _accumulate(t, np.broadcast_to(g, t.shape))

    return make_op(data, (t,), backward)


def mean_over(t: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes_n = _normalize_axes(axes, t.data.ndim)
    count = 1
    for ax in axes_n:
        count *= t.shape[ax]
    return scale(sum_over(t, axes_n, keepdims), 1.0 / count)


def reshape(t: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if int(np.prod(new_shape)) != t.size:
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
    inverse = tuple(np.argsort(order))

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


@functools.lru_cache(maxsize=64)
def _parse_spec(subscripts: str) -> tuple[str, str, str]:
    """Split a binary contraction spec into operand and output labels."""
    try:
        in_spec, out_spec = subscripts.replace(" ", "").split("->")
        a_spec, b_spec = in_spec.split(",")
    except ValueError:
        raise ValueError(f"contract spec must look like 'ab,bc->ac', got {subscripts!r}") from None
    for spec in (a_spec, b_spec, out_spec):
        if len(set(spec)) != len(spec):
            raise ValueError(f"repeated label in spec {spec!r}")
    if not set(a_spec) <= set(out_spec) | set(b_spec):
        raise ValueError(f"labels {set(a_spec) - set(out_spec) - set(b_spec)} summed within one operand")
    if not set(b_spec) <= set(out_spec) | set(a_spec):
        raise ValueError(f"labels {set(b_spec) - set(out_spec) - set(a_spec)} summed within one operand")
    if not set(out_spec) <= set(a_spec) | set(b_spec):
        raise ValueError(f"output labels {set(out_spec) - set(a_spec) - set(b_spec)} missing from inputs")
    return a_spec, b_spec, out_spec


class _MatmulPlan(NamedTuple):
    x_axes: tuple[int, ...]  # transpose of x into (batch..., row, inner)
    x_expand: tuple  # index adding the unit axes of labels x lacks
    y_axes: tuple[int, ...]  # transpose of y into (batch..., inner, col)
    y_expand: tuple
    sum_axes: tuple[int, ...]  # trailing batch axes of summed labels, reduced after the matmul
    squeeze: tuple[int, ...]  # unit axes standing in for a missing row or col label
    out_axes: tuple[int, ...]  # transpose of what is left into the output spec
    shared: tuple[tuple[int, int], ...]  # (x axis, y axis) of each label both carry


@functools.lru_cache(maxsize=256)
def _matmul_plan(x_spec: str, y_spec: str, out_spec: str,
                 x_strides: tuple[int, ...], y_strides: tuple[int, ...]) -> _MatmulPlan:
    """Map each label onto a batch, row, inner (summed) or column axis of one
    ``np.matmul``.

    Of each kind the label with the smallest stride becomes the matrix axis,
    so BLAS reads both operands where they lie in memory.  Every other label
    is a batch axis: a label only one operand carries is broadcast against a
    unit axis of the other, and an extra summed label is reduced after the
    matmul.  Batch axes run from the largest stride down, summed ones last.
    """
    xs = dict(zip(x_spec, map(abs, x_strides)))
    ys = dict(zip(y_spec, map(abs, y_strides)))
    shared = [l for l in x_spec if l in ys]
    summed = [l for l in shared if l not in out_spec]
    inner = min(summed, key=xs.__getitem__, default=None)
    row = min((l for l in x_spec if l not in ys), key=xs.__getitem__, default=None)
    col = min((l for l in y_spec if l not in xs), key=ys.__getitem__, default=None)
    batch = sorted((l for l in dict.fromkeys(x_spec + y_spec) if l not in (inner, row, col)),
                   key=lambda l: (l in summed, -max(xs.get(l, 0), ys.get(l, 0))))

    def operand(spec, labels):
        axes = tuple(spec.index(l) for l in labels if l is not None and l in spec)
        expand = tuple(slice(None) if l is not None and l in spec else None for l in labels)
        return axes, expand

    x_axes, x_expand = operand(x_spec, batch + [row, inner])
    y_axes, y_expand = operand(y_spec, batch + [inner, col])
    kept = [l for l in batch if l not in summed] + [row, col]
    labels = [l for l in kept if l is not None]
    return _MatmulPlan(
        x_axes, x_expand, y_axes, y_expand,
        sum_axes=tuple(i for i, l in enumerate(batch) if l in summed),
        squeeze=tuple(i for i, l in enumerate(kept) if l is None),
        out_axes=tuple(labels.index(l) for l in out_spec),
        shared=tuple((x_spec.index(l), y_spec.index(l)) for l in shared),
    )


# Floats of unsummed matmul product per chunk when a contraction sums over
# more labels than the one BLAS contracts.
_SUM_CHUNK = 1 << 16


def _matmul_sum(x: np.ndarray, y: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``np.matmul(x, y).sum(axis=axes)`` for trailing batch ``axes``, one chunk
    of the leading axis at a time, so the unsummed product stays near
    _SUM_CHUNK floats instead of growing with the summed extents."""
    shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1])
    if axes[0] == 0:
        return np.matmul(x, y).sum(axis=axes)
    out = np.empty(shape[: axes[0]] + shape[-2:])
    rows = max(1, _SUM_CHUNK * shape[0] // max(1, math.prod(shape)))
    for lo in range(0, shape[0], rows):
        sl = slice(lo, lo + rows)
        part = np.matmul(x if x.shape[0] == 1 else x[sl], y if y.shape[0] == 1 else y[sl])
        part.sum(axis=axes, out=out[sl])
    return out


def _matmul_contract(x_spec: str, y_spec: str, out_spec: str,
                     x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The einsum ``x_spec,y_spec->out_spec`` of two arrays as one batched
    matmul over views of them; the result may be a permuted view."""
    for spec, operand in ((x_spec, x), (y_spec, y)):
        if len(spec) != operand.ndim:
            raise ShapeError(f"spec {spec!r} does not match operand rank {operand.ndim}")
    plan = _matmul_plan(x_spec, y_spec, out_spec, x.strides, y.strides)
    for i, j in plan.shared:
        if x.shape[i] != y.shape[j]:
            raise ShapeError(f"label {x_spec[i]!r} has extent {x.shape[i]} in {x_spec!r} "
                             f"but {y.shape[j]} in {y_spec!r}")
    x = x.transpose(plan.x_axes)[plan.x_expand]
    y = y.transpose(plan.y_axes)[plan.y_expand]
    out = _matmul_sum(x, y, plan.sum_axes) if plan.sum_axes else np.matmul(x, y)
    if plan.squeeze:
        out = out.squeeze(axis=plan.squeeze)
    return out.transpose(plan.out_axes)


def contract(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Binary einsum with recorded gradients, e.g. contract('zna,ncab->zcnb', u, w).

    The forward and both adjoints each run as one batched ``np.matmul`` on
    views of the operands in their stored layout (see ``_matmul_plan``;
    chunked when more than one label is summed), so neither operand nor the
    incoming gradient is copied into a transposed layout; the result is the
    matmul output seen through a permuted view.
    Labels are single characters: none repeated within a spec, every operand
    label present in the output or the other operand, every output label
    present in some operand, and shared labels of equal extent.
    """
    a_spec, b_spec, out_spec = _parse_spec(subscripts)
    data = _matmul_contract(a_spec, b_spec, out_spec, a.data, b.data)

    def backward(gout):
        g = np.asarray(gout)
        if a.requires_grad:
            _accumulate(a, _matmul_contract(out_spec, b_spec, a_spec, g, b.data), owned=True)
        if b.requires_grad:
            _accumulate(b, _matmul_contract(a_spec, out_spec, b_spec, a.data, g), owned=True)

    return make_op(data, (a, b), backward)
