"""Finite-difference checks for every differentiable operation (20 seeds
each) and the Adam update rules against hand-evaluated values."""

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.capsules import LossParams, dynamic_routing, margin_loss, mse_loss, squash
from timecaps.conv import conv1d, conv2d, deconv1d
from timecaps.errors import ShapeError
from timecaps.gradcheck import grad_check
from timecaps.optim import AdamState, adam_step
from timecaps.tensor import Tensor

TOL = 1e-4
SEEDS = range(20)


def wsum(t, coeffs):
    return T.sum_over(T.mul(t, Tensor(coeffs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    r = rng.standard_normal((3, 4))
    yt = Tensor(y)
    for f in (
        lambda t: wsum(T.add(t, yt), r),
        lambda t: wsum(T.sub(t, yt), r),
        lambda t: wsum(T.mul(t, yt), r),
        lambda t: wsum(T.mul(t, 1.7), r),
        lambda t: wsum(T.mul(t, Tensor([1.7])), r),
    ):
        assert grad_check(f, Tensor(x)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_relu_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4))
    x = np.where(np.abs(x) < 0.05, 0.2, x)  # keep clear of the hinge
    r = rng.standard_normal((4, 4))
    assert grad_check(lambda t: wsum(T.relu(t), r), Tensor(x)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_sqrt_positive_inputs(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 3.0, size=(3, 3))
    r = rng.standard_normal((3, 3))
    assert grad_check(lambda t: wsum(T.sqrt(t), r), Tensor(x)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_reductions_and_shape_ops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4, 2))
    assert grad_check(lambda t: T.sum_over(T.mul(t, t)), Tensor(x)) < TOL
    r = rng.standard_normal((3, 2))
    assert grad_check(lambda t: wsum(T.sum_over(t, axes=(1,)), r), Tensor(x)) < TOL
    r2 = rng.standard_normal((4, 6))
    assert grad_check(lambda t: wsum(T.reshape(t, (4, 6)), r2), Tensor(x)) < TOL
    r3 = rng.standard_normal((2, 3, 4))
    assert grad_check(lambda t: wsum(T.permute(t, (2, 0, 1)), r3), Tensor(x)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_repeat_concat_softmax_contract(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 3))
    other = Tensor(rng.standard_normal((4, 3)))
    rc = rng.standard_normal((6, 3))
    assert grad_check(lambda t: wsum(T.concat([t, other], axis=0), rc), Tensor(a)) < TOL

    # a decoder dense layer
    h = rng.standard_normal((3, 6))
    fc = rng.standard_normal((6, 2))
    rf = rng.standard_normal((3, 2))
    fct, ht = Tensor(fc), Tensor(h)
    assert grad_check(lambda t: wsum(T.matmul(t, fct), rf), Tensor(h)) < TOL
    assert grad_check(lambda t: wsum(T.matmul(ht, t), rf), Tensor(fc)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_conv_ops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, 2))
    k = rng.standard_normal((3, 3, 2))
    r = rng.standard_normal((8, 3))
    kt, xt = Tensor(k), Tensor(x)
    assert grad_check(lambda t: wsum(conv1d(t, kt, 1, "same"), r), Tensor(x)) < TOL
    assert grad_check(lambda t: wsum(conv1d(xt, t, 1, "same"), r), Tensor(k)) < TOL

    rv = rng.standard_normal((3, 3))
    assert grad_check(lambda t: wsum(conv1d(t, kt, 2, "valid"), rv), Tensor(x)) < TOL

    x2 = rng.standard_normal((4, 6, 1))
    k2 = rng.standard_normal((2, 3, 3))
    r2 = rng.standard_normal((4, 2, 2))
    k2t, x2t = Tensor(k2), Tensor(x2)
    assert grad_check(lambda t: wsum(conv2d(t, k2t), r2), Tensor(x2)) < TOL
    assert grad_check(lambda t: wsum(conv2d(x2t, t), r2), Tensor(k2)) < TOL

    xd = rng.standard_normal((3, 2))
    kd = rng.standard_normal((2, 2, 3))
    rd = rng.standard_normal((2 * 2 + 2, 3))
    kdt, xdt = Tensor(kd), Tensor(xd)
    assert grad_check(lambda t: wsum(deconv1d(t, kdt, 2), rd), Tensor(xd)) < TOL
    assert grad_check(lambda t: wsum(deconv1d(xdt, t, 2), rd), Tensor(kd)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_capsule_ops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5)) + 0.3
    r = rng.standard_normal((3, 5))
    assert grad_check(lambda t: wsum(squash(t, -1), r), Tensor(x)) < TOL

    votes = rng.standard_normal((2, 2, 3, 4))
    rv = rng.standard_normal((2, 2, 4))
    assert grad_check(lambda t: wsum(dynamic_routing(t, 3), rv), Tensor(votes)) < TOL

    lengths = rng.uniform(0.15, 0.85, size=4)
    assert grad_check(lambda t: margin_loss(t, 1, LossParams()), Tensor(lengths)) < TOL

    a = rng.standard_normal(6)
    target = Tensor(rng.standard_normal(6))
    assert grad_check(lambda t: mse_loss(t, target), Tensor(a)) < TOL


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

    def test_moments_zero_initialized(self):
        p = {"w": Tensor(np.ones((2, 2)), requires_grad=True)}
        state = AdamState.for_params(p)
        assert np.all(state.first_moment["w"] == 0.0)
        assert np.all(state.second_moment["w"] == 0.0)
        assert state.step_count == 0
