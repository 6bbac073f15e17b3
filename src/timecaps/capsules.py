"""Capsule arithmetic: squash, block dynamic routing, lengths, and losses.

Routing operates on vote tensors laid out as (outer, parent, block, dim):
``outer`` indexes positions routed independently, ``parent`` the receiving
capsules, ``block`` the child capsules being routed, and ``dim`` the capsule
vector dimension.  Couplings are a softmax over the block axis, so they are
nonnegative and sum to one per (outer, parent) at every iteration: each
parent normalizes its couplings over its children.  This differs from Sabour
et al. 2017, eq. 3, where each child's couplings are normalized over its
parents.  ``routing_oracle`` transcribes the same choice, and acceptance
criterion 3 (``test_criterion_03_routing_normalization``) checks it.

Squash and routing are fused: each is one tape node with a hand-written
backward (for routing, the adjoint of the update rules of Sabour et al. 2017,
"Dynamic Routing Between Capsules").  One squash step (``_squashed``) serves
``squash`` and every routing iteration, and one (``_squash_backward``) their
backwards.  Every function here accepts an optional leading batch axis.

Routing runs in one of two forms, picked by one shape rule (``_flat_form``)
on the (outer, parent) row count against the block count:

* more rows than blocks (the model's two cells: 2-8 blocks, thousands of
  rows): the votes are read as a contiguous (block, dim, rows) array, rows
  ordered (parent, outer), and every iteration is elementwise ops and
  two-operand einsums on long row vectors, with couplings (block, rows) and
  sums (dim, rows), so each reduction runs over a leading axis.  Both cells'
  vote convolutions store their votes in exactly that layout, so routing
  reads them through a view; votes laid out otherwise are copied once.  The
  output is returned as a view of the (dim, rows) storage;
* otherwise (the class stage: N blocks): each product is a batched matmul
  over the rows that reads the votes in the memory layout they arrive in,
  couplings (1, block) @ votes (block, dim) for the weighted sum and votes
  (block, dim) @ output (dim, 1) for the agreement.

Every squared norm and dot product over a trailing capsule axis (squash,
``capsule_length``, the matmul form's sums and couplings) is one einsum
contraction (``_inner``); the flat form's reductions run over a leading axis
and stay ``np.sum``.

The forward keeps each iteration's couplings, weighted sums, their squared
norms and their squash factors (``squash`` keeps its squared norms and
factors too), so the backward recomputes no softmax, no norm and no squash
factor.  The same record is the routing trace: ``dynamic_routing_trace``
runs the one routing forward and rebuilds the logits from the record, so
tracing adds no branch to routing.  The vote gradient is written, one chunk
of rows at a time, into a buffer with the votes' own strides, so a caller
that made the votes as a permuted view (both cells and the class stage do)
reads their gradient through the same view, without a transposed copy.  In
the flat form each chunk's einsum writes into one contiguous (block, dim,
chunk) block, which is then copied into the chunk's strided slice of the
(block, dim, rows) buffer; when one chunk covers every row, the einsum
writes straight into the buffer.

The class stage's votes come from ``class_votes``, which stores them
example-major, (B, N, C, a_sig) in memory, and returns the (B, C, N, a_sig)
view that routing takes: each (example, class) row of N votes lies inside
its example's region, a (N, a_sig) matrix with a row stride of C*a_sig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, _accumulate, make_op

# Keeps the norm chain differentiable at the zero vector without measurably
# perturbing any norm above ~1e-13.
_NORM_EPS = 1e-30


# Sabour et al. 2017's margin-loss bounds: a present class should have a
# capsule length of at least M_PLUS, an absent one at most M_MINUS.
M_PLUS = 0.9
M_MINUS = 0.1


@dataclass(frozen=True)
class LossParams:
    """Margin-loss absence weight (lambda)."""

    lam: float = 0.5


@dataclass
class RoutingState:
    """Per-iteration routing trace (numpy copies, for inspection and tests)."""

    logits: list[np.ndarray] = field(default_factory=list)
    couplings: list[np.ndarray] = field(default_factory=list)
    weighted_sums: list[np.ndarray] = field(default_factory=list)


def _inner(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """sum(a * b) along ``axis``, keepdims: squared norms and dot products of
    capsule vectors.

    Over the trailing axis it is one einsum contraction: ``np.sum`` would
    reduce each capsule of 4 to 16 floats with its own inner-loop call.  Over
    any other axis (the flat routing form's leading block or dim axis) it is
    ``np.sum`` of the product, whose reduction numpy already runs along the
    long trailing rows.
    """
    if axis % a.ndim == a.ndim - 1:
        return np.einsum("...i,...i->...", a, b)[..., None]
    return np.sum(a * b, axis=axis, keepdims=True)


def _squashed(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squash along ``axis``: the output f x, the squared norms s2 and the
    squash factors f = n^2/(1+n^2)/n (keepdims), which the backward reuses.

    The factor is finite (zero) at the zero vector.  Dividing in this order
    keeps every intermediate at most 1 before the division by n, so the
    factor is accurate for any finite s2.
    """
    s2 = _inner(x, x, axis)
    f = (s2 / (s2 + 1.0)) / np.sqrt(s2 + _NORM_EPS)
    return x * f, s2, f


def _squash_backward(x: np.ndarray, g: np.ndarray, axis: int, s2: np.ndarray, f: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Vector-Jacobian product of squash at ``x`` for the output gradient ``g``,
    given the forward's squared norms ``s2`` and squash factors ``f``
    (keepdims); written into ``out`` if given.

    With s = |x|^2, r = sqrt(s + eps) and f = s / ((1 + s) r), squash(x) = f x,
    so the adjoint is f g + 2 f'(s) <g, x> x, where
    f'(s) = (s + 2 eps - s^2) / (2 r^3 (1 + s)^2).  With q = 1/(1 + s) the
    second term is written as (((s q)((1 - s) q) + 2 eps q^2) / r) (<g, x>/r)
    (x/r), whose factors stay finite for every finite s, where s^2 and r^3
    alone overflow once |x| passes about 1e77.
    """
    r = np.sqrt(s2 + _NORM_EPS)
    q = 1.0 / (s2 + 1.0)
    coef = ((s2 * q) * ((1.0 - s2) * q) + 2.0 * _NORM_EPS * q * q) / r
    out = np.multiply(f, g, out=out)
    xr = x / r
    xr *= coef * (_inner(g, x, axis) / r)
    out += xr
    return out


def squash(t: Tensor, axis: int = -1) -> Tensor:
    """Shrink each vector along ``axis`` to norm n^2/(1+n^2), keeping direction.

    The zero vector maps to zero; every output norm is strictly below 1.  One
    tape node with a closed-form backward, which reuses the forward's squared
    norms and squash factors.
    """
    x = t.data
    y, s2, f = _squashed(x, axis)

    def backward(gout):
        _accumulate(t, _squash_backward(x, np.asarray(gout), axis, s2, f), owned=True)

    return make_op(y, (t,), backward)


def _capsule_major(votes: np.ndarray) -> np.ndarray:
    """The (N, B, C*a_sig) view of (B, C, N, a_sig) class votes (or of their
    gradient) stored example-major, as (B, N, C, a_sig); votes laid out
    otherwise are copied."""
    batch, classes, n_caps, a_sig = votes.shape
    return votes.transpose(0, 2, 1, 3).reshape(batch, n_caps, classes * a_sig).transpose(1, 0, 2)


def class_votes(u: Tensor, weights: Tensor) -> Tensor:
    """Every capsule's vote for every class: ([B,] N, a_s) capsules through
    their (N, a_s, C, a_sig) transforms give (B, C, N, a_sig) votes, one
    outer row per example (B = 1 without a batch axis).

    The forward is one batched matmul over the N capsules, the (N, B, a_s)
    view of the capsules times the (N, a_s, C*a_sig) weights, written
    through a transposed view into (B, N, C, a_sig) storage; the votes are a
    permuted view of it.  The backward reads the vote gradient, which
    routing writes in the votes' own layout, through the same view, and runs
    two batched matmuls over N: G @ W^T for the capsules and U^T @ G for the
    weights.  One tape node.
    """
    if (weights.data.ndim != 4 or u.data.ndim not in (2, 3)
            or u.shape[-2:] != weights.shape[:2]):
        raise ShapeError(f"class_votes needs ([B,] N, a_s) capsules and (N, a_s, C, a_sig) "
                         f"weights, got {u.shape} and {weights.shape}")
    n_caps, a_s, classes, a_sig = weights.shape
    ut = u.data.reshape(-1, n_caps, a_s).transpose(1, 0, 2)  # (N, B, a_s)
    batch = ut.shape[1]
    wf = weights.data.reshape(n_caps, a_s, classes * a_sig)
    votes = np.empty((batch, n_caps, classes, a_sig)).transpose(0, 2, 1, 3)
    np.matmul(ut, wf, out=_capsule_major(votes))

    def backward(gout):
        g = _capsule_major(np.asarray(gout))
        if u.requires_grad:
            du = np.empty((batch, n_caps, a_s))
            np.matmul(g, wf.transpose(0, 2, 1), out=du.transpose(1, 0, 2))
            _accumulate(u, du.reshape(u.shape), owned=True)
        if weights.requires_grad:
            _accumulate(weights, np.matmul(ut.transpose(0, 2, 1), g).reshape(weights.shape),
                        owned=True)

    return make_op(votes, (u, weights), backward)


def capsule_length(t: Tensor, axis: int = -1) -> Tensor:
    """Euclidean norm along ``axis`` (the capsule's existence probability).

    One tape node.  Its backward is g x / n, evaluated as h x + h x with
    h = g / (2 n) as the chain sqrt(sum(x * x)) would, and zero at the zero
    vector (a flat input row's capsules), where the norm has no derivative.
    A capsule whose squared norm overflows (entries of order 1e154 and up) is
    measured again scaled by its largest magnitude, so its norm stays finite
    wherever the exact norm is; every other capsule keeps the plain result.
    """
    x = t.data
    n = np.sqrt(_inner(x, x, axis))
    if np.isinf(n).any():
        top = np.max(np.abs(x), axis=axis, keepdims=True)
        over = np.isinf(n) & np.isfinite(top)
        top = np.where(over, top, 1.0)
        scaled = x / top
        n = np.where(over, top * np.sqrt(_inner(scaled, scaled, axis)), n)

    def backward(gout):
        h = np.divide(np.expand_dims(gout, axis), 2.0 * n, out=np.zeros_like(n), where=n > 0)
        hx = h * x
        _accumulate(t, hx + hx, owned=True)

    return make_op(n.squeeze(axis), (t,), backward)


# Floats of temporaries per chunk of outer rows in the routing backward (1 MiB).
_ROUTING_CHUNK = 1 << 17


def _couplings(logits: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax over the block axis ``axis``."""
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _flat_form(shape: tuple[int, ...]) -> bool:
    """The shape rule that picks the routing form of (P, r, s, n) votes.

    With more (outer, parent) rows than blocks, each row's products are
    tiny, so the rows become the innermost axis of long contiguous vectors
    (the flat form).  Otherwise each row's (1, s) @ (s, n) product is large
    enough for BLAS (the matmul form).
    """
    p_n, r_n, s_n, _ = shape
    return p_n * r_n > s_n


def _flat_votes(votes: np.ndarray) -> tuple[np.ndarray, bool]:
    """The (s, n, r*P) form of (P, r, s, n) votes, rows ordered (parent,
    outer), and whether it had to be copied: votes stored that way (as both
    cells' vote convolutions store them) are read through a view."""
    p_n, r_n, s_n, n_n = votes.shape
    v = votes.transpose(2, 3, 1, 0)
    copied = not v.flags.c_contiguous
    return (np.ascontiguousarray(v) if copied else v).reshape(s_n, n_n, r_n * p_n), copied


def _weighted(c: np.ndarray, v: np.ndarray, flat: bool) -> np.ndarray:
    """Coupling-weighted vote sum per row: (s, m) and (s, n, m) give (n, m)
    in the flat form; (P, r, s) and (P, r, s, n) give (P, r, n) otherwise."""
    if flat:
        return np.einsum("sm,snm->nm", c, v)
    return (c[..., None, :] @ v)[..., 0, :]


def _agreement(v: np.ndarray, y: np.ndarray, flat: bool) -> np.ndarray:
    """Dot product of each vote with its row's vector ``y``, per block."""
    if flat:
        return np.einsum("snm,nm->sm", v, y)
    return (v @ y[..., None])[..., 0]


@dataclass
class _Routed:
    """What one routing forward keeps: the votes in the form's layout (in the
    flat form, ``copied`` says whether that is a copy of the caller's votes)
    and per iteration k the couplings c_k, weighted sums w_k, their squared
    norms and their squash factors (block or dim axis leading in the flat
    form, trailing in the matmul form); the trace rebuilds the logits."""

    flat: bool
    votes: np.ndarray
    copied: bool = False
    couplings: list[np.ndarray] = field(default_factory=list)
    sums: list[np.ndarray] = field(default_factory=list)
    norms: list[np.ndarray] = field(default_factory=list)
    factors: list[np.ndarray] = field(default_factory=list)


def _route(votes: np.ndarray, iterations: int):
    """Routing forward on (P, r, s, n) votes: the squashed (P, r, n) output
    (in the flat form a view of (n, r*P) storage) and the per-iteration
    record."""
    p_n, r_n, s_n, n_n = votes.shape
    flat = _flat_form(votes.shape)
    ax = 0 if flat else -1  # the block axis of couplings, the dim axis of sums
    v, copied = _flat_votes(votes) if flat else (votes, False)
    c = np.full((s_n, p_n * r_n) if flat else (p_n, r_n, s_n), 1.0 / s_n)  # softmax of zero logits
    b = None
    rec = _Routed(flat, v, copied)
    for it in range(iterations):
        w = _weighted(c, v, flat)
        y, s2, f = _squashed(w, ax)
        rec.couplings.append(c)
        rec.sums.append(w)
        rec.norms.append(s2)
        rec.factors.append(f)
        if it + 1 < iterations:
            a = _agreement(v, y, flat)
            b = a if b is None else b + a
            c = _couplings(b, ax)
    out = y.reshape(n_n, r_n, p_n).transpose(2, 1, 0) if flat else y
    return out, rec


def _route_backward(votes: np.ndarray, rec: _Routed, gout: np.ndarray) -> np.ndarray:
    """Vote gradient of routing, from the forward's record.

    Iteration k computes c_k = softmax(b_k), w_k = sum_s c_k v, y_k =
    squash(w_k) and b_{k+1} = b_k + <y_k, v>.  Walking back from the output,
    the logit gradient gb flows unchanged through the additive updates, and
    dv = sum_k c_k (x) dw_k + gb_{k+1} (x) y_k.  The 2K-1 outer products are
    stacked and contracted once per chunk of rows into a gradient buffer with
    the memory layout of ``votes``: in the flat form one einsum into a
    contiguous block, copied into the (s, n, rows) buffer (or written
    straight into it when one chunk covers every row), in the matmul form one
    batched matmul.  The squash factors y_k / w_k come from the forward.  The
    logits b_0 are a constant, so no gradient is formed for them.
    """
    p_n, r_n, s_n, n_n = votes.shape
    flat, ax = rec.flat, (0 if rec.flat else -1)
    terms = 2 * len(rec.couplings) - 1
    # per row: the coupling and gradient stacks and about three block-sized
    # and three dim-sized temporaries
    per_row = (terms + 3) * (s_n + n_n)
    if flat:
        total = p_n * r_n
        grad = np.empty((s_n, n_n, total))
        gy_all = np.ascontiguousarray(gout.transpose(2, 1, 0)).reshape(n_n, total)
    else:
        total, per_row = p_n, per_row * r_n
        grad = np.empty_like(votes, order="K")
    rows = max(1, _ROUTING_CHUNK // per_row)
    # the flat form's contiguous chunk block; none when one chunk covers every row
    block = np.empty(s_n * n_n * rows) if flat and rows < total else None
    for lo in range(0, total, rows):
        sl = slice(lo, lo + rows)
        if flat:
            v, gy = rec.votes[:, :, sl], gy_all[:, sl]
            pick = lambda a: a[:, sl]
        else:
            v, gy = votes[sl], gout[sl]
            pick = lambda a: a[sl]
        left = np.empty((terms,) + pick(rec.couplings[0]).shape)
        right = np.empty((terms,) + pick(rec.sums[0]).shape)
        t, gb = 0, None  # gb: gradient of the logits entering the current iteration
        for k in reversed(range(len(rec.couplings))):
            c, w = pick(rec.couplings[k]), pick(rec.sums[k])
            s2, f = pick(rec.norms[k]), pick(rec.factors[k])
            if gb is not None:  # b_{k+1} = b_k + <y_k, v>
                gy = _weighted(gb, v, flat)
                left[t] = gb
                np.multiply(w, f, out=right[t])
                t += 1
            _squash_backward(w, gy, ax, s2, f, right[t])
            left[t] = c
            if k:
                gc = _agreement(v, right[t], flat)
                gc -= _inner(gc, c, ax)
                gc *= c
                gb = gc if gb is None else gb + gc
            t += 1
        if not flat:
            np.matmul(np.moveaxis(left, 0, -1), np.moveaxis(right, 0, -2), out=grad[sl])
        elif block is None:
            np.einsum("tsm,tnm->snm", left, right, out=grad)
        else:
            dst = block[: s_n * n_n * v.shape[2]].reshape(s_n, n_n, v.shape[2])
            np.einsum("tsm,tnm->snm", left, right, out=dst)
            grad[:, :, sl] = dst
    if not flat:
        return grad
    grad = grad.reshape(s_n, n_n, r_n, p_n).transpose(3, 2, 0, 1)
    if not rec.copied:
        return grad
    out = np.empty_like(votes, order="K")  # votes laid out otherwise: their own layout
    out[...] = grad
    return out


def _routing_node(votes: Tensor, iterations: int):
    """Validate, route, and record one tape node; also returns the forward's
    record."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if votes.data.ndim not in (4, 5):
        raise ValueError(
            f"votes must be (outer, parent, block, dim) or (B, outer, parent, block, dim), "
            f"got {votes.shape}")
    lead = votes.shape[:-3]
    v = votes.data.reshape((-1,) + votes.shape[-3:])
    squashed, rec = _route(v, iterations)

    def backward(gout):
        g = np.asarray(gout).reshape(squashed.shape)
        _accumulate(votes, _route_backward(v, rec, g).reshape(votes.shape), owned=True)

    out = make_op(squashed.reshape(lead + squashed.shape[1:]), (votes,), backward)
    return out, rec


def dynamic_routing(votes: Tensor, iterations: int) -> Tensor:
    """Route (outer, parent, block, dim) votes; returns squashed parent capsules.

    Each iteration: couplings = softmax(logits) over the block axis, a
    coupling-weighted vote sum per parent is squashed, and the logits grow by
    the squashed-sum/vote dot product.  A leading batch axis is routed like
    more outer rows.  The whole routing is one tape node whose backward runs
    through every iteration.
    """
    return _routing_node(votes, iterations)[0]


def dynamic_routing_trace(votes: Tensor, iterations: int) -> tuple[Tensor, RoutingState]:
    """dynamic_routing plus the per-iteration logits/couplings/sums, each laid
    out as (..., outer, parent, block or dim).  The logits are rebuilt from
    the forward's record: b_0 = 0 and b_{k+1} = b_k + <y_k, v>, with y_k the
    squashed sum w_k f_k."""
    out, rec = _routing_node(votes, iterations)
    logits = [np.zeros_like(rec.couplings[0])]
    for w, f in zip(rec.sums[:-1], rec.factors):
        logits.append(logits[-1] + _agreement(rec.votes, w * f, rec.flat))
    rows, r_n = votes.shape[:-2], votes.shape[-3]
    unflat = lambda a: (a.reshape(len(a), r_n, -1).transpose(2, 1, 0) if rec.flat else a
                        ).reshape(rows + (-1,)).copy()
    state = RoutingState(logits=[unflat(a) for a in logits],
                         couplings=[unflat(a) for a in rec.couplings],
                         weighted_sums=[unflat(a) for a in rec.sums])
    return out, state


def routing_oracle(votes: np.ndarray, iterations: int) -> np.ndarray:
    """Scalar-loop reference for dynamic_routing, used only for verification.

    Transcribes the update rules one index at a time: softmax couplings over
    the block axis, coupling-weighted vote sum, squash, dot-product logit
    update.  Intentionally unvectorized.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    v = np.asarray(votes, dtype=np.float64)
    p_n, r_n, s_n, n_n = v.shape
    b = [[[0.0] * s_n for _ in range(r_n)] for _ in range(p_n)]
    out = np.zeros((p_n, r_n, n_n))
    for it in range(iterations):
        for p in range(p_n):
            for r in range(r_n):
                exps = [math.exp(b[p][r][s]) for s in range(s_n)]
                z = sum(exps)
                k = [e / z for e in exps]
                weighted = [0.0] * n_n
                for s in range(s_n):
                    for d in range(n_n):
                        weighted[d] += k[s] * v[p, r, s, d]
                norm2 = sum(w * w for w in weighted)
                if norm2 == 0.0:
                    shat = [0.0] * n_n
                else:
                    f = (norm2 / (1.0 + norm2)) / math.sqrt(norm2)
                    shat = [f * w for w in weighted]
                out[p, r, :] = shat
                if it + 1 < iterations:
                    for s in range(s_n):
                        dot = 0.0
                        for d in range(n_n):
                            dot += shat[d] * v[p, r, s, d]
                        b[p][r][s] += dot
    return out


def _one_hot(classes, name: str, rows: tuple[int, ...], num_classes: int) -> np.ndarray:
    """The rows + (num_classes,) one-hot encoding of the class indices
    ``classes``, the argument ``name``: ShapeError unless they have the shape
    ``rows``, ValueError unless each lies in [0, num_classes)."""
    labels = np.asarray(classes)
    if labels.shape != rows:
        raise ShapeError(f"{name} of shape {labels.shape}, expected {rows}: one class index per row")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"{name} {classes} out of range for {num_classes} classes")
    return np.eye(num_classes)[labels]


def margin_loss(lengths: Tensor, true_class, params: LossParams = LossParams()) -> Tensor:
    """Two-sided hinge-squared loss over per-class capsule lengths.

    ``lengths`` (C,) with an int class gives a scalar; (B, C) with B class
    indices gives the (B,) per-example losses.
    """
    onehot = _one_hot(true_class, "true_class", lengths.shape[:-1], lengths.shape[-1])
    present = T.relu(T.sub(M_PLUS, lengths))
    absent = T.relu(T.sub(lengths, M_MINUS))
    terms = T.add(
        T.mul(Tensor(onehot), T.mul(present, present)),
        T.mul(T.mul(Tensor(1.0 - onehot), T.mul(absent, absent)), params.lam),
    )
    return T.sum_over(terms, axes=-1)


def mse_loss(reconstruction: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference between two same-shape signals, per example
    when they carry a leading batch axis."""
    if reconstruction.shape != target.shape:
        raise ShapeError(
            f"shape mismatch: reconstruction {reconstruction.shape} vs target {target.shape}")
    diff = T.sub(reconstruction, target)
    return T.mean_over(T.mul(diff, diff), axes=-1)
