"""Finite-difference verification of the recorded gradients.

``grad_check`` compares the taped gradient of a scalar-valued function
against central differences, coordinate by coordinate.  ``COMPONENTS`` lists
every engine op and fused op with the operands it is checked on;
``check_component`` differences one row, and ``run_suite`` every row plus a
full forward pass (both capsule cells, routing, classification, decoder,
combined loss) on the tiny config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .capsules import capsule_length, class_votes, dynamic_routing, margin_loss, mse_loss, squash
from .conv import conv1d, conv2d, deconv1d
from .errors import ConfigError
from .model import ModelConfig, ModelParams, init_params, model_forward, param_shapes
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


def _normal(*shapes, shift: float = 0.0):
    """A draw of standard-normal operands of these shapes, plus ``shift``."""
    return lambda rng: [rng.standard_normal(shape) + shift for shape in shapes]


def _clear_of_zero(rng):
    x = rng.standard_normal((4, 4))
    return [np.where(np.abs(x) < 0.05, 0.2, x)]  # relu's hinge


def _routed(votes: Tensor) -> Tensor:
    return dynamic_routing(votes, 3)


# One row per differentiable op: (name, op on the operand tensors, draw of the
# operand arrays from a generator).  Every operand is checked.
COMPONENTS: tuple[tuple[str, Callable[..., Tensor], Callable[[np.random.Generator], list]], ...] = (
    # same-shape and broadcast operands, a (1,) operand and a Python scalar
    ("add", lambda a, b, c: T.add(T.add(a, b), c), _normal((3, 4), (3, 4), (4,))),
    ("sub", lambda a, b, c: T.sub(T.sub(a, b), c), _normal((3, 4), (3, 4), (3, 1))),
    ("mul", lambda a, b, c: T.mul(T.mul(T.mul(a, b), c), 1.7), _normal((3, 4), (3, 4), (1,))),
    ("mul_self", lambda a: T.mul(a, a), _normal((3, 4, 2))),  # one tensor used twice
    ("relu", T.relu, _clear_of_zero),
    ("sum_over", lambda a: T.sum_over(a, axes=(1,)), _normal((3, 4, 2))),
    ("mean_over", lambda a: T.mean_over(a, axes=(0, 2)), _normal((3, 4, 2))),
    ("reshape", lambda a: T.reshape(a, (4, 6)), _normal((3, 4, 2))),
    ("permute", lambda a: T.permute(a, (2, 0, 1)), _normal((3, 4, 2))),
    ("concat", lambda a, b: T.concat([a, b], axis=0), _normal((2, 3), (4, 3))),
    # the tiny config's second decoder dense layer at batch 2
    ("matmul", T.matmul, _normal((2, 8), (8, 16))),
    ("conv1d", conv1d, _normal((10, 3), (4, 3, 3))),
    ("conv2d", conv2d, _normal((6, 2, 4), (5, 3, 4))),
    ("deconv1d", lambda x, k: deconv1d(x, k, 2), _normal((5, 3), (3, 4, 2))),
    ("squash", squash, _normal((4, 6), shift=0.5)),
    ("squash_batch2", squash, _normal((2, 4, 6), shift=0.5)),
    ("routing", _routed, _normal((2, 3, 4, 5))),
    ("routing_batch2", _routed, _normal((2, 2, 3, 4, 5))),
    # more blocks than (outer, parent) rows: routing takes its matmul form
    ("routing_many_blocks", _routed, _normal((1, 2, 12, 4))),
    # the class stage's votes at batch 2: (B, N, a_s) capsules through
    # (N, a_s, classes, a_sig) transforms
    ("class_votes", class_votes, _normal((2, 5, 3), (5, 3, 2, 4))),
    # (B, C, a_sig) class capsules, away from the zero vector
    ("capsule_length", capsule_length, _normal((2, 3, 4))),
    ("margin_loss", lambda t: margin_loss(t, 2), lambda rng: [rng.uniform(0.15, 0.85, 5)]),
    ("mse_loss", mse_loss, _normal((6,), (6,))),
)


def check_component(name: str, seed: int = 0, h: float = 1e-5) -> float:
    """Worst ``grad_check`` error of the ``COMPONENTS`` row ``name``, its
    output weighted by random coefficients, against each operand in turn.

    The operands and coefficients come from a generator seeded by the seed
    and the name alone, so a row's inputs do not depend on the other rows."""
    op, draw = {row[0]: row[1:] for row in COMPONENTS}[name]
    rng = np.random.default_rng([seed, *name.encode()])
    operands = [Tensor(a) for a in draw(rng)]
    coeffs = Tensor(rng.standard_normal(op(*operands).shape))
    worst = 0.0
    for i, operand in enumerate(operands):
        def f(t: Tensor, i=i) -> Tensor:
            return T.sum_over(T.mul(op(*operands[:i], t, *operands[i + 1:]), coeffs))

        worst = max(worst, grad_check(f, operand, h))
    return worst


def run_suite(cfg: ModelConfig | None = None, seed: int = 0, h: float = 1e-5) -> list[ComponentCheck]:
    """Gradient-check every ``COMPONENTS`` row, then the full model.

    Raises ConfigError, before checking anything, for a model with more
    than MAX_CHECKED_COORDINATES parameter and input coordinates."""
    cfg = cfg or ModelConfig.tiny()
    coordinates = sum(math.prod(shape) for shape in param_shapes(cfg).values()) + cfg.L
    if coordinates > MAX_CHECKED_COORDINATES:
        raise ConfigError(f"the model has {coordinates:,} parameter and input coordinates, more than "
                          f"the {MAX_CHECKED_COORDINATES:,} the full-model check differences")
    results = [ComponentCheck(name, check_component(name, seed, h)) for name, _, _ in COMPONENTS]
    results.append(ComponentCheck("full_model", _full_model_check(cfg, seed, h)))
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
            return loss_with(Tensor(x), ModelParams(cfg, {**params.tensors(), _name: t}))

        worst = max(worst, grad_check(f, original, h))

    worst = max(worst, grad_check(lambda t: loss_with(t, params), Tensor(x), h))
    return worst
