"""Capsule arithmetic: squash, block dynamic routing, lengths, and losses.

Routing operates on vote tensors laid out as (outer, parent, block, dim):
``outer`` indexes positions routed independently, ``parent`` the receiving
capsules, ``block`` the child capsules being routed, and ``dim`` the capsule
vector dimension.  Couplings are a softmax over the block axis, so they are
nonnegative and sum to one per (outer, parent) at every iteration.

Squash and routing are fused: each is one tape node with a hand-written
backward (for routing, the adjoint of the update rules of Sabour et al. 2017,
"Dynamic Routing Between Capsules").  Every function here accepts an
optional leading batch axis.

Each routing product is a batched matmul over the (outer, parent) axes that
reads the votes in whatever memory layout they arrive in: the weighted sum
is couplings (1, block) @ votes (block, dim), the agreement is votes
(block, dim) @ output (dim, 1).  The vote gradient is written into a buffer
with the votes' own strides, so a caller that made the votes as a permuted
view (the class stage does) reads their gradient through the same view,
without a transposed copy.
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


@dataclass(frozen=True)
class LossParams:
    """Margin-loss constants: presence bound, absence bound, absence weight."""

    m_plus: float = 0.9
    m_minus: float = 0.1
    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.m_minus < self.m_plus <= 1.0:
            raise ValueError(f"require 0 < m_minus < m_plus <= 1, got {self}")


@dataclass
class RoutingState:
    """Per-iteration routing trace (numpy copies, for inspection and tests)."""

    logits: list[np.ndarray] = field(default_factory=list)
    couplings: list[np.ndarray] = field(default_factory=list)
    weighted_sums: list[np.ndarray] = field(default_factory=list)


def _squash_factor(s2: np.ndarray) -> np.ndarray:
    """n^2/(1+n^2)/n from the squared norm, finite (zero) at the zero vector.

    Dividing in this order keeps every intermediate at most 1 before the
    division by n, so the factor is accurate for any finite s2.
    """
    return (s2 / (s2 + 1.0)) / np.sqrt(s2 + _NORM_EPS)


def _squash(x: np.ndarray, axis: int) -> np.ndarray:
    return x * _squash_factor(np.sum(x * x, axis=axis, keepdims=True))


def _squash_backward(x: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Vector-Jacobian product of squash at ``x`` for the output gradient ``g``.

    With s = |x|^2, r = sqrt(s + eps) and f = s / ((1 + s) r), squash(x) = f x,
    so the adjoint is f g + 2 f'(s) <g, x> x, where
    f'(s) = (s + 2 eps - s^2) / (2 r^3 (1 + s)^2).  With q = 1/(1 + s) the
    second term is written as (((s q)((1 - s) q) + 2 eps q^2) / r) (<g, x>/r)
    (x/r), whose factors stay finite for every finite s, where s^2 and r^3
    alone overflow once |x| passes about 1e77.
    """
    s2 = np.sum(x * x, axis=axis, keepdims=True)
    r = np.sqrt(s2 + _NORM_EPS)
    q = 1.0 / (s2 + 1.0)
    coef = ((s2 * q) * ((1.0 - s2) * q) + 2.0 * _NORM_EPS * q * q) / r
    dot = np.sum(g * x, axis=axis, keepdims=True)
    return _squash_factor(s2) * g + (coef * (dot / r)) * (x / r)


def squash(t: Tensor, axis: int = -1) -> Tensor:
    """Shrink each vector along ``axis`` to norm n^2/(1+n^2), keeping direction.

    The zero vector maps to zero; every output norm is strictly below 1.  One
    tape node with a closed-form backward.
    """
    def backward(gout):
        _accumulate(t, _squash_backward(t.data, np.asarray(gout), axis), owned=True)

    return make_op(_squash(t.data, axis), (t,), backward)


def capsule_length(t: Tensor, axis: int = -1) -> Tensor:
    """Euclidean norm along ``axis`` (the capsule's existence probability)."""
    return T.sqrt(T.sum_over(T.mul(t, t), axes=(axis,)))


# Vote elements per chunk of outer rows in the routing backward: bounds the
# stacked coupling/gradient operands to a fraction of this many floats.
_ROUTING_CHUNK = 1 << 16


def _couplings(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the block axis."""
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def _route(votes: np.ndarray, iterations: int):
    """Routing forward on (P, r, s, n) votes.

    Returns the squashed output and, per iteration, the logits and the
    coupling-weighted sums; couplings are recomputed from the logits where
    needed, which keeps one (P, r, s) array per iteration, not two.
    """
    logits = np.zeros(votes.shape[:3])  # logits start at zero
    all_logits, all_sums = [], []
    squashed = None
    for it in range(iterations):
        weighted = (_couplings(logits)[..., None, :] @ votes)[..., 0, :]
        squashed = _squash(weighted, -1)
        all_logits.append(logits)
        all_sums.append(weighted)
        if it + 1 < iterations:
            logits = logits + (votes @ squashed[..., None])[..., 0]
    return squashed, all_logits, all_sums


def _route_backward(votes: np.ndarray, logits: list[np.ndarray], sums: list[np.ndarray],
                    gout: np.ndarray) -> np.ndarray:
    """Vote gradient of routing, from the forward's logits and sums.

    Iteration k computes c_k = softmax(b_k), w_k = sum_s c_k v, y_k =
    squash(w_k) and b_{k+1} = b_k + <y_k, v>.  Walking back from the output,
    the logit gradient gb flows unchanged through the additive updates, and
    dv = sum_k c_k (x) dw_k + gb_{k+1} (x) y_k.  The outer products of every
    iteration are stacked and contracted in one matmul per chunk of outer
    rows, written straight into the gradient buffer, which has the memory
    layout of ``votes``.
    """
    p_n, r_n, s_n, n_n = votes.shape
    iterations = len(logits)
    grad = np.empty_like(votes, order="K")
    rows = max(1, _ROUTING_CHUNK // (r_n * s_n * n_n))
    for lo in range(0, p_n, rows):
        sl = slice(lo, lo + rows)
        v = votes[sl]
        left, right = [], []  # per term: (rows, r, s) weights and (rows, r, n) vectors
        gy = gout[sl]
        gb = None  # gradient of the logits entering the current iteration
        for k in reversed(range(iterations)):
            c, w = _couplings(logits[k][sl]), sums[k][sl]
            if gb is not None:  # b_{k+1} = b_k + <y_k, v>
                gy = (gb[..., None, :] @ v)[..., 0, :]
                left.append(gb)
                right.append(_squash(w, -1))
            gw = _squash_backward(w, gy, -1)
            left.append(c)
            right.append(gw)
            gc = (v @ gw[..., None])[..., 0]
            gsoft = c * (gc - (gc * c).sum(axis=2, keepdims=True))
            gb = gsoft if gb is None else gb + gsoft
        np.matmul(np.stack(left, axis=-1), np.stack(right, axis=-2), out=grad[sl])
    return grad


def _routing_node(votes: Tensor, iterations: int):
    """Validate, route, and record one tape node; also returns the forward's
    per-iteration logits and sums."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if votes.data.ndim not in (4, 5):
        raise ValueError(
            f"votes must be (outer, parent, block, dim) or (B, outer, parent, block, dim), "
            f"got {votes.shape}")
    lead = votes.shape[:-3]
    v = votes.data.reshape((-1,) + votes.shape[-3:])
    squashed, logits, sums = _route(v, iterations)

    def backward(gout):
        g = np.asarray(gout).reshape(squashed.shape)
        _accumulate(votes, _route_backward(v, logits, sums, g).reshape(votes.shape), owned=True)

    out = make_op(squashed.reshape(lead + squashed.shape[1:]), (votes,), backward)
    return out, logits, sums


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
    """dynamic_routing plus the per-iteration logits/couplings/sums."""
    out, logits, sums = _routing_node(votes, iterations)
    unflat = lambda a: a.reshape(votes.shape[:-3] + a.shape[1:])
    state = RoutingState(logits=[unflat(a).copy() for a in logits],
                         couplings=[unflat(_couplings(a)) for a in logits],
                         weighted_sums=[unflat(a).copy() for a in sums])
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


def margin_loss(lengths: Tensor, true_class, params: LossParams = LossParams()) -> Tensor:
    """Two-sided hinge-squared loss over per-class capsule lengths.

    ``lengths`` (C,) with an int class gives a scalar; (B, C) with B class
    indices gives the (B,) per-example losses.
    """
    num_classes = lengths.shape[-1]
    labels = np.asarray(true_class)
    if labels.shape != lengths.shape[:-1]:
        raise ShapeError(f"class labels of shape {labels.shape} do not match lengths {lengths.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"true_class {true_class} out of range for {num_classes} classes")
    onehot = np.eye(num_classes)[labels]
    present = T.relu(T.sub(float(params.m_plus), lengths))
    absent = T.relu(T.sub(lengths, float(params.m_minus)))
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
