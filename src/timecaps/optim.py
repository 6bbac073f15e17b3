"""Adam optimizer over a named collection of parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


# Kingma & Ba 2015's moment decay rates and denominator floor; every run uses them.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


# Floats per block of the Adam update (128 KiB), small enough that a block's
# operands stay in cache across the update's passes.
_ADAM_BLOCK = 1 << 14


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 0.001
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float = 0.001) -> "AdamState":
        state = cls(lr=lr)
        state.first_moment = {name: np.zeros(p.shape) for name, p in params.items()}
        state.second_moment = {name: np.zeros(p.shape) for name, p in params.items()}
        return state


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update; returns fresh parameter tensors.

    The moments are updated in place and each new parameter is written into
    a fresh array, one block of ``_ADAM_BLOCK`` floats at a time through two
    temporaries allocated once per call, so a block's operands stay in cache
    across its passes.  Each pass is the textbook expression's next
    elementwise operation, in the same order, so results are bit-identical
    to ``p - lr * (m / c1) / (sqrt(v / c2) + eps)`` with fresh moments.
    """
    t = state.step_count + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    scratch = np.empty((2, _ADAM_BLOCK))
    updated: dict[str, Tensor] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        new = np.empty(p.shape)
        # flat views of the moments (C-contiguous, from for_params) and of the
        # new parameter; flat copies of a non-contiguous gradient or parameter
        ms, vs = state.first_moment[name].reshape(-1), state.second_moment[name].reshape(-1)
        gs, ps, steps = g.reshape(-1), p.data.reshape(-1), new.reshape(-1)
        for lo in range(0, new.size, _ADAM_BLOCK):
            sl = slice(lo, lo + _ADAM_BLOCK)
            m, v, gb, step = ms[sl], vs[sl], gs[sl], steps[sl]
            a, b = scratch[:, : step.size]
            m *= BETA1
            np.multiply(gb, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(gb, gb, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(m, c1, out=step)
            step *= state.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += EPSILON
            step /= b
            np.subtract(ps[sl], step, out=step)
        updated[name] = Tensor(new, requires_grad=p.requires_grad)
    state.step_count = t
    return updated, state
