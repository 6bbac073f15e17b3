"""Squash law, routing vs the scalar oracle, and loss values.

Closed-form expectations: squash multiplies a vector of norm n by
n/(1+n^2), so a unit vector halves and (3,4) maps to (25/26)*(0.6, 0.8).
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.capsules import (
    _NORM_EPS,
    LossParams,
    capsule_length,
    dynamic_routing,
    dynamic_routing_trace,
    margin_loss,
    mse_loss,
    routing_oracle,
    squash,
)
from timecaps.errors import ShapeError
from timecaps.tensor import Tensor


def squash_norm(n):
    return n * n / (1.0 + n * n)


class TestSquash:
    def test_zero_maps_to_zero(self):
        out = squash(Tensor(np.zeros((3, 4))), axis=-1)
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_unit_vector_halves(self):
        v = np.array([[0.6, 0.8]])
        out = squash(Tensor(v), axis=-1)
        assert np.allclose(out.data, 0.5 * v, atol=1e-12)

    def test_three_four_closed_form(self):
        out = squash(Tensor(np.array([[3.0, 4.0]])), axis=-1).data[0]
        assert abs(out[0] - (25.0 / 26.0) * 0.6) < 1e-12
        assert abs(out[1] - (25.0 / 26.0) * 0.8) < 1e-12
        assert abs(np.linalg.norm(out) - 25.0 / 26.0) < 1e-12

    def test_norm_law_and_bound(self, rng):
        for dim in (1, 2, 8, 16):
            vecs = rng.standard_normal((500, dim))
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            targets = rng.uniform(0.0, 100.0, size=(500, 1))
            vecs = vecs / norms * targets
            out = squash(Tensor(vecs), axis=-1).data
            out_norms = np.linalg.norm(out, axis=1)
            assert np.all(np.abs(out_norms - squash_norm(targets[:, 0])) < 1e-9)
            assert np.all(out_norms < 1.0)

    def test_direction_preserving(self, rng):
        v = rng.standard_normal((50, 6))
        out = squash(Tensor(v), axis=-1).data
        ratios = out / v
        for row in ratios:
            assert np.all(row >= 0.0)
            assert np.ptp(row) < 1e-9  # a single nonnegative multiple per vector

    def test_monotone_in_norm(self):
        norms = np.linspace(0.01, 50.0, 200)
        vals = squash_norm(norms)
        v = norms[:, None] * np.array([[1.0, 0.0]])
        out = np.linalg.norm(squash(Tensor(v), axis=-1).data, axis=1)
        assert np.all(np.diff(out) > 0)
        assert np.allclose(out, vals, atol=1e-12)

    def test_arbitrary_axis(self, rng):
        v = rng.standard_normal((4, 3, 5))
        out0 = squash(Tensor(v), axis=1).data
        moved = np.moveaxis(squash(Tensor(np.moveaxis(v, 1, -1)), axis=-1).data, -1, 1)
        assert np.allclose(out0, moved, atol=1e-12)


    @pytest.mark.parametrize("norm", [1e-20, 1.0, 1e80, 1e100, 1e120, 1e150])
    def test_output_and_gradient_match_exact_reference(self, rng, norm):
        # decimal arithmetic has no overflow: the float64 squash and its
        # backward must stay finite and accurate wherever the forward is,
        # including squared norms far past where s^2 and r^3 overflow
        x = rng.standard_normal(4)
        x *= norm / np.linalg.norm(x)
        g = rng.standard_normal(4)
        xt = Tensor(x, requires_grad=True)
        out = squash(xt, axis=-1)
        T.sum_over(T.mul(out, Tensor(g))).backward()

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            xd, gd = [Decimal(v) for v in x], [Decimal(v) for v in g]
            eps = Decimal(_NORM_EPS)
            s = sum(v * v for v in xd)
            r = (s + eps).sqrt()
            f = s / ((1 + s) * r)
            fprime = (s + 2 * eps - s * s) / (2 * r ** 3 * (1 + s) ** 2)
            dot = sum(a * b for a, b in zip(gd, xd))
            want_out = np.array([float(f * v) for v in xd])
            want_grad = np.array([float(f * a + 2 * fprime * dot * b) for a, b in zip(gd, xd)])
        assert np.all(np.isfinite(xt.grad))
        assert np.max(np.abs(out.data - want_out)) <= 1e-13 * np.max(np.abs(want_out))
        assert np.max(np.abs(xt.grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))

class TestCapsuleLength:
    def test_three_four_five(self):
        assert capsule_length(Tensor(np.array([[3.0, 4.0]])), axis=-1).data[0] == 5.0

    def test_zero(self):
        assert capsule_length(Tensor(np.zeros((1, 4))), axis=-1).data[0] == 0.0

    def test_composition_with_squash(self, rng):
        v = rng.standard_normal((20, 8))
        lengths = capsule_length(squash(Tensor(v), -1), -1).data
        expected = squash_norm(np.linalg.norm(v, axis=1))
        assert np.allclose(lengths, expected, atol=1e-9)


class TestRouting:
    def test_single_block_is_squash(self, rng):
        votes = rng.standard_normal((2, 3, 1, 4))
        out = dynamic_routing(Tensor(votes), 3).data
        expected = squash(Tensor(votes[:, :, 0, :]), axis=-1).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_first_iteration_uniform_couplings(self, rng):
        votes = rng.standard_normal((1, 2, 5, 3))
        _, state = dynamic_routing_trace(Tensor(votes), 1)
        assert np.allclose(state.couplings[0], 0.2, atol=1e-15)
        out = dynamic_routing(Tensor(votes), 1).data
        expected = squash(Tensor(votes.mean(axis=2)), axis=-1).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_oracle(self, rng):
        for trial in range(30):
            shape = tuple(rng.integers(1, 5, size=4))
            iters = int(rng.choice([1, 2, 3, 5]))
            votes = rng.standard_normal(shape)
            got = dynamic_routing(Tensor(votes), iters).data
            want = routing_oracle(votes, iters)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_couplings_normalized_every_iteration(self, rng):
        votes = rng.standard_normal((2, 3, 6, 4))
        _, state = dynamic_routing_trace(Tensor(votes), 4)
        assert len(state.couplings) == 4
        for k in state.couplings:
            assert np.all(k >= 0.0)
            assert np.all(np.abs(k.sum(axis=2) - 1.0) < 1e-9)

    def test_zero_votes_give_zero_output(self):
        out = dynamic_routing(Tensor(np.zeros((1, 2, 3, 4))), 3).data
        assert np.array_equal(out, np.zeros((1, 2, 4)))

    def test_oracle_zero_votes(self):
        out = routing_oracle(np.zeros((1, 1, 2, 3)), 2)
        assert np.array_equal(out, np.zeros((1, 1, 3)))

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            dynamic_routing(Tensor(np.zeros((1, 1, 1, 1))), 0)
        with pytest.raises(ValueError):
            routing_oracle(np.zeros((1, 1, 1, 1)), 0)

    def test_vote_gradient_keeps_the_votes_layout(self, rng):
        # votes stored as (block, parent, outer, dim) and routed through a
        # transposed view: same output and gradient as the contiguous copy,
        # and the gradient has the view's strides, so no transposed copy
        stored = rng.standard_normal((7, 3, 4, 5))
        view = stored.transpose(2, 1, 0, 3)
        assert not view.flags.c_contiguous
        coeffs = Tensor(rng.standard_normal((4, 3, 5)))
        results = []
        for votes in (view, np.ascontiguousarray(view)):
            leaf = Tensor(votes, requires_grad=True)
            out = dynamic_routing(leaf, 3)
            T.sum_over(T.mul(out, coeffs)).backward()
            assert leaf.grad.strides == votes.strides
            results.append((out.data, leaf.grad))
        (out_v, grad_v), (out_c, grad_c) = results
        assert np.max(np.abs(out_v - out_c)) < 1e-12
        assert np.max(np.abs(grad_v - grad_c)) < 1e-12

    def test_logits_start_at_zero(self, rng):
        votes = rng.standard_normal((1, 2, 3, 4))
        _, state = dynamic_routing_trace(Tensor(votes), 2)
        assert np.array_equal(state.logits[0], np.zeros((1, 2, 3)))


class TestMarginLoss:
    def test_zero_when_margins_satisfied(self):
        lengths = Tensor(np.array([0.95, 0.05, 0.05]))
        assert margin_loss(lengths, 0).item() == 0.0

    def test_true_class_hinge(self):
        assert margin_loss(Tensor(np.array([0.4])), 0).item() == pytest.approx(0.25, abs=1e-12)

    def test_wrong_class_hinge(self):
        # class 0 true with length 0.9 exactly; class 1 wrong at 0.6
        loss = margin_loss(Tensor(np.array([0.9, 0.6])), 0).item()
        assert loss == pytest.approx(0.125, abs=1e-12)

    def test_nonnegative_and_zero_iff_margins(self, rng):
        for _ in range(200):
            lengths = rng.uniform(0.0, 1.0, size=4)
            true = int(rng.integers(0, 4))
            loss = margin_loss(Tensor(lengths), true).item()
            assert loss >= 0.0
            satisfied = lengths[true] >= 0.9 and all(
                lengths[j] <= 0.1 for j in range(4) if j != true)
            assert (loss == 0.0) == satisfied

    def test_bad_class_index(self):
        with pytest.raises(ValueError):
            margin_loss(Tensor(np.array([0.5, 0.5])), 2)

    def test_loss_params_validation(self):
        with pytest.raises(ValueError):
            LossParams(m_plus=0.1, m_minus=0.9)


class TestMseLoss:
    def test_identical_signals(self, rng):
        x = rng.standard_normal(16)
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_unit_difference(self):
        assert mse_loss(Tensor(np.array([1.0, 1.0])), Tensor(np.zeros(2))).item() == 1.0

    def test_mean_of_squares(self):
        assert mse_loss(Tensor(np.array([2.0, 0.0])), Tensor(np.zeros(2))).item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
