"""Finite-difference checks of every row of ``gradcheck.COMPONENTS`` (20
seeds each), a guard that those rows cover every op a training step records,
and the Adam update rules against hand-evaluated values."""

import numpy as np
import pytest

from timecaps import gradcheck, optim
from timecaps.errors import ShapeError
from timecaps.gradcheck import COMPONENTS, check_component, run_suite
from timecaps.model import init_params, model_forward
from timecaps.optim import AdamState, adam_step
from timecaps.tensor import Tensor
from timecaps.training import TrainConfig, total_loss

TOL = 1e-4
NAMES = [name for name, _, _ in COMPONENTS]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("name", NAMES)
def test_component(name, seed):
    assert check_component(name, seed) < TOL


def backward_kinds(root: Tensor) -> set[str]:
    """The ``__qualname__`` of every backward closure on the tape under ``root``."""
    kinds, seen, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                kinds.add(node._backward.__qualname__)
            stack.extend(node._parents)
    return kinds


def test_rows_cover_every_op_of_a_training_step(tiny_cfg, rng):
    labels = np.array([0, 1, 1])
    x = Tensor(rng.standard_normal((len(labels), tiny_cfg.L)))
    fwd = model_forward(x, init_params(tiny_cfg, seed=0), tiny_cfg, mask_class=labels)
    recorded = backward_kinds(total_loss(fwd, x, labels, TrainConfig()))
    covered = set()
    for _, op, draw in COMPONENTS:
        operands = [Tensor(a, requires_grad=True) for a in draw(rng)]
        covered |= backward_kinds(op(*operands))
    assert recorded - covered == set()


def test_row_inputs_do_not_depend_on_other_rows(monkeypatch):
    # the full-model check draws from a generator of its own; skip its cost
    monkeypatch.setattr(gradcheck, "_full_model_check", lambda cfg, seed, h: 0.0)
    full = {r.name: r.max_rel_error for r in run_suite(seed=3)}
    monkeypatch.setattr(gradcheck, "COMPONENTS", COMPONENTS[1:])
    fewer = {r.name: r.max_rel_error for r in run_suite(seed=3)}
    assert fewer == {name: err for name, err in full.items() if name != NAMES[0]}


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        state = AdamState.for_params(p)
        newp, state = adam_step(p, {"w": np.zeros(2)}, state)
        assert np.array_equal(newp["w"].data, p["w"].data)
        assert state.step_count == 1

    def test_single_step_hand_value(self):
        # fresh state, g=1: m_hat=1, v_hat=1, update = -lr / (1 + eps)
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState.for_params(p, lr=0.001)
        newp, _ = adam_step(p, {"w": np.array([1.0])}, state)
        expected = -0.001 / (1.0 + 1e-8)
        assert newp["w"].data[0] == pytest.approx(expected, abs=1e-15)

    def test_constant_gradient_update_approaches_lr(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState.for_params(p, lr=0.001)
        prev = p["w"].data[0]
        for _ in range(500):
            p, state = adam_step(p, {"w": np.array([0.5])}, state)
        last_step = prev - p["w"].data[0]
        # after many identical gradients, m_hat/sqrt(v_hat) -> 1
        steps = []
        for _ in range(5):
            before = p["w"].data[0]
            p, state = adam_step(p, {"w": np.array([0.5])}, state)
            steps.append(before - p["w"].data[0])
        assert np.allclose(steps, 0.001, rtol=1e-3)

    def test_shape_mismatch(self):
        p = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = AdamState.for_params(p)
        with pytest.raises(ShapeError):
            adam_step(p, {"w": np.zeros(4)}, state)

    def test_blocked_step_is_the_textbook_update_bit_for_bit(self, rng):
        # 3 blocks plus a partial one of 17 floats, and a one-float tensor
        size = 3 * optim._ADAM_BLOCK + 17
        p = {"w": Tensor(rng.standard_normal((size,)), requires_grad=True),
             "a": Tensor(np.array([0.3]), requires_grad=True)}
        state = AdamState.for_params(p, lr=0.01)
        want = {name: t.data.copy() for name, t in p.items()}
        m = {name: np.zeros(t.shape) for name, t in p.items()}
        v = {name: np.zeros(t.shape) for name, t in p.items()}
        for t in range(1, 31):
            grads = {name: rng.standard_normal(x.shape) for name, x in want.items()}
            p, state = adam_step(p, grads, state)
            c1, c2 = 1.0 - optim.BETA1 ** t, 1.0 - optim.BETA2 ** t
            for name, g in grads.items():
                m[name] = optim.BETA1 * m[name] + (1.0 - optim.BETA1) * g
                v[name] = optim.BETA2 * v[name] + (1.0 - optim.BETA2) * (g * g)
                want[name] = want[name] - 0.01 * (m[name] / c1) / (np.sqrt(v[name] / c2) + optim.EPSILON)
            for name, x in want.items():
                assert p[name].data.tobytes() == x.tobytes(), (name, t)
                assert state.first_moment[name].tobytes() == m[name].tobytes(), (name, t)
                assert state.second_moment[name].tobytes() == v[name].tobytes(), (name, t)

    def test_moments_zero_initialized(self):
        p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamState.for_params(p)
        assert np.all(state.first_moment["w"] == 0.0)
        assert np.all(state.second_moment["w"] == 0.0)
        assert state.step_count == 0
