"""Adam optimizer over a named collection of parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float = 0.001,
                   beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        state.first_moment = {name: np.zeros_like(p.data) for name, p in params.items()}
        state.second_moment = {name: np.zeros_like(p.data) for name, p in params.items()}
        return state


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected Adam update; returns fresh parameter tensors.

    The moments are updated in place and each new parameter is written into
    its step buffer, so a step allocates one parameter-sized array per
    tensor plus short-lived temporaries.  The arithmetic is the textbook
    expression evaluated in the same order, so results are bit-identical to
    ``p - lr * (m / c1) / (sqrt(v / c2) + eps)`` with fresh moments.
    """
    t = state.step_count + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    updated: dict[str, Tensor] = {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        m = state.first_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v = state.second_moment[name]
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        step = m / c1
        step *= state.lr
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += state.epsilon
        step /= denom
        np.subtract(p.data, step, out=step)
        updated[name] = Tensor(step, requires_grad=p.requires_grad)
    state.step_count = t
    return updated, state
