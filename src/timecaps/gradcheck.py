"""Finite-difference verification of the recorded gradients.

``grad_check`` compares the taped gradient of a scalar-valued function
against central differences, coordinate by coordinate.  ``run_suite`` does
this for every building block and for a full forward pass (both capsule
cells, routing, classification, decoder, combined loss) on the tiny config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .capsules import LossParams, capsule_length, class_votes, dynamic_routing, margin_loss, squash
from .conv import conv1d, conv2d, deconv1d
from .errors import ConfigError
from .model import ModelConfig, init_params, model_forward, param_shapes
from .tensor import Tensor
from .training import TrainConfig, total_loss

# The most coordinates (parameters plus input samples) the full-model check
# will difference.  Each costs two forwards, about 2 ms on the tiny config's
# 1,907 coordinates, and a larger model costs more per forward.
MAX_CHECKED_COORDINATES = 10_000


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max over coordinates of |analytic - central difference| / max(1, |analytic|)."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    worst = 0.0
    flat = x.data.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        f_plus = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] -= 2.0 * h
        f_minus = f(Tensor(bumped.reshape(x.shape))).item()
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


@dataclass
class ComponentCheck:
    name: str
    max_rel_error: float


def _weighted_sum(t: Tensor, coeffs: np.ndarray) -> Tensor:
    return T.sum_over(T.mul(t, Tensor(coeffs)))


def _both_operands(op: Callable[[Tensor, Tensor], Tensor], x: np.ndarray, k: np.ndarray,
                   coeffs: np.ndarray, h: float) -> float:
    """Worst error of ``op(x, k)`` weighted by ``coeffs``, over both operands."""
    xt, kt = Tensor(x), Tensor(k)
    err = grad_check(lambda t: _weighted_sum(op(t, kt), coeffs), xt, h)
    return max(err, grad_check(lambda t: _weighted_sum(op(xt, t), coeffs), kt, h))


def run_suite(cfg: ModelConfig | None = None, seed: int = 0, h: float = 1e-5) -> list[ComponentCheck]:
    """Gradient-check every component.

    Raises ConfigError, before checking anything, for a model with more
    than MAX_CHECKED_COORDINATES parameter and input coordinates."""
    cfg = cfg or ModelConfig.tiny()
    coordinates = sum(math.prod(shape) for shape in param_shapes(cfg).values()) + cfg.L
    if coordinates > MAX_CHECKED_COORDINATES:
        raise ConfigError(f"the model has {coordinates:,} parameter and input coordinates, more than "
                          f"the {MAX_CHECKED_COORDINATES:,} the full-model check differences")
    rng = np.random.default_rng(seed)
    results: list[ComponentCheck] = []

    def record(name: str, err: float):
        results.append(ComponentCheck(name, err))

    # two-operand ops: check both the input and the kernel side.
    x = rng.standard_normal((10, 3))
    k = rng.standard_normal((4, 3, 3))
    r1 = rng.standard_normal((10, 4))
    record("conv1d", _both_operands(conv1d, x, k, r1, h))

    x = rng.standard_normal((6, 8, 1))
    k = rng.standard_normal((5, 3, 4))
    r2 = rng.standard_normal((6, 2, 5))
    record("conv2d", _both_operands(conv2d, x, k, r2, h))

    x = rng.standard_normal((5, 3))
    k = rng.standard_normal((3, 4, 2))
    r3 = rng.standard_normal((2 * 4 + 4, 2))
    record("deconv1d", _both_operands(lambda a, b: deconv1d(a, b, 2), x, k, r3, h))

    x = rng.standard_normal((4, 6)) + 0.5
    r4 = rng.standard_normal((4, 6))
    record("squash", grad_check(lambda t: _weighted_sum(squash(t, -1), r4), Tensor(x), h))

    x = rng.standard_normal((2, 4, 6)) + 0.5
    r4 = rng.standard_normal((2, 4, 6))
    record("squash_batch2", grad_check(lambda t: _weighted_sum(squash(t, -1), r4), Tensor(x), h))

    votes = rng.standard_normal((2, 3, 4, 5))
    r6 = rng.standard_normal((2, 3, 5))
    record("routing", grad_check(
        lambda t: _weighted_sum(dynamic_routing(t, 3), r6), Tensor(votes), h))

    votes = rng.standard_normal((2, 2, 3, 4, 5))
    r6 = rng.standard_normal((2, 2, 3, 5))
    record("routing_batch2", grad_check(
        lambda t: _weighted_sum(dynamic_routing(t, 3), r6), Tensor(votes), h))

    lengths = rng.uniform(0.15, 0.85, size=5)
    record("margin_loss", grad_check(lambda t: margin_loss(t, 2, LossParams()), Tensor(lengths), h))

    # the tiny config's second decoder dense layer at batch 2, (rows, 8) @ (8, 16),
    # on inputs from a generator of its own; the shared stream still spends
    # 230 draws at this slot, so the entries below keep their inputs
    dense = np.random.default_rng(seed + 1)
    h_in = dense.standard_normal((2, 8))
    fc = dense.standard_normal((8, 16))
    r7 = dense.standard_normal((2, 16))
    record("matmul", _both_operands(T.matmul, h_in, fc, r7, h))
    rng.standard_normal(230)

    record("full_model", _full_model_check(cfg, seed, h))

    # more blocks than (outer, parent) rows: routing takes its matmul form
    votes = rng.standard_normal((1, 2, 12, 4))
    r8 = rng.standard_normal((1, 2, 4))
    record("routing_many_blocks", grad_check(
        lambda t: _weighted_sum(dynamic_routing(t, 3), r8), Tensor(votes), h))

    # the class stage's votes at batch 2: (B, N, a_s) capsules through
    # (N, a_s, classes, a_sig) transforms
    u = rng.standard_normal((2, 5, 3))
    w = rng.standard_normal((5, 3, 2, 4))
    r9 = rng.standard_normal((2, 2, 5, 4))
    record("class_votes", _both_operands(class_votes, u, w, r9, h))

    # capsule lengths of (B, C, a_sig) class capsules, away from the zero vector
    caps = rng.standard_normal((2, 3, 4))
    r10 = rng.standard_normal((2, 3))
    record("capsule_length", grad_check(
        lambda t: _weighted_sum(capsule_length(t, -1), r10), Tensor(caps), h))
    return results


def _full_model_check(cfg: ModelConfig, seed: int, h: float) -> float:
    """Finite differences through both cells, routing, classification, the
    decoder, and the combined margin + reconstruction loss, for every
    parameter tensor and the input signal."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=seed)
    x = rng.standard_normal(cfg.L)
    target = Tensor(x)  # the reconstruction target stays pinned to the unperturbed signal
    true_class = 0
    loss_cfg = TrainConfig()

    def loss_with(signal: Tensor, p) -> Tensor:
        fwd = model_forward(signal, p, cfg, mask_class=true_class)
        return total_loss(fwd, target, true_class, loss_cfg)

    worst = 0.0
    for name in params.names():
        original = params[name]

        def f(t: Tensor, _name=name) -> Tensor:
            return loss_with(Tensor(x), params.replace({_name: t}))

        worst = max(worst, grad_check(f, original, h))

    worst = max(worst, grad_check(lambda t: loss_with(t, params), Tensor(x), h))
    return worst
