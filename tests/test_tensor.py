"""Elementwise, reduction and shape behavior of the tensor engine, and the
softmax behind the routing couplings."""

import math

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.capsules import _couplings
from timecaps.errors import ShapeError
from timecaps.tensor import Tensor


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_scalar_operand(self):
        out = T.mul(Tensor([1.0, 2.0]), 3.0)
        assert np.array_equal(out.data, [3.0, 6.0])

    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_broadcast_bias_gradient_sums_over_batch(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        out = T.add(x, b)
        assert np.array_equal(out.data, x.data + b.data)
        T.sum_over(T.mul(out, out)).backward()
        assert np.allclose(b.grad, (2.0 * out.data).sum(axis=(0, 1)))
        assert np.allclose(x.grad, 2.0 * out.data)

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.standard_normal((5, 4)) * 100)
        for op in (T.relu, lambda t: T.mul(t, t), lambda t: T.sub(0.0, t)):
            assert np.all(np.isfinite(op(x).data))


class TestScale:
    """alpha and beta scale whole capsule sets as single-element tensors
    broadcast by ``mul``."""

    def test_scale_by_tensor_scalar(self):
        s = Tensor([2.0], requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.mul(x, s)
        assert np.array_equal(out.data, 2.0 * x.data)
        T.sum_over(out).backward()
        assert s.grad.shape == (1,) and s.grad[0] == pytest.approx(x.data.sum())
        assert np.allclose(x.grad, 2.0)

    def test_scale_rejects_vector(self):
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.ones((2, 3))), Tensor([1.0, 2.0]))


class TestReduce:
    def test_sum_all(self):
        assert T.sum_over(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_sum_axis(self):
        out = T.sum_over(Tensor([[1.0, 2.0], [3.0, 4.0]]), axes=(1,))
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            T.sum_over(Tensor([1.0]), axes=(3,))


class TestShapeOps:
    def test_reshape_row_major(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = T.reshape(x, (3, 2))
        assert np.array_equal(out.data.reshape(-1), np.arange(6.0))

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_permute_roundtrip(self, rng):
        x = rng.standard_normal((2, 3, 4))
        out = T.permute(T.permute(Tensor(x), (2, 0, 1)), (1, 2, 0))
        assert np.array_equal(out.data, x)

    def test_permute_invalid(self):
        with pytest.raises(ValueError):
            T.permute(Tensor(np.ones((2, 3))), (0, 0))

    def test_concat_and_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        out = T.concat([a, b], axis=0)
        assert out.shape == (3, 3)
        T.sum_over(out).backward()
        assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)


def strided_operand(rng, shape, transposed):
    """A random array of ``shape``; when ``transposed``, a non-contiguous view
    whose memory runs its axes in a random order."""
    if not transposed:
        return rng.standard_normal(shape)
    order = rng.permutation(len(shape))
    stored = rng.standard_normal(tuple(shape[i] for i in order))
    return stored.transpose(np.argsort(order))


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


# (a shape, b shape): the decoder's (rows, k) @ (k, n) products
MATMUL_SHAPES = [
    ((3, 4), (4, 5)),
    ((1, 4), (4, 2)),
]


class TestMatmul:
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_np_matmul(self, rng, transposed):
        for sa, sb in MATMUL_SHAPES:
            a, b = strided_operand(rng, sa, transposed), strided_operand(rng, sb, transposed)
            out = T.matmul(Tensor(a), Tensor(b))
            assert np.array_equal(out.data, np.matmul(a, b))

    def test_adjoints_match_einsum(self, rng):
        for sa, sb in MATMUL_SHAPES:
            for transposed in (False, True):
                a, b = strided_operand(rng, sa, transposed), strided_operand(rng, sb, transposed)
                at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
                out = T.matmul(at, bt)
                g = strided_operand(rng, out.shape, transposed)
                T.sum_over(T.mul(out, Tensor(g))).backward()
                assert_close(at.grad, np.einsum("ik,jk->ij", g, b))
                assert_close(bt.grad, np.einsum("ki,kj->ij", a, g))

    @pytest.mark.parametrize("sa,sb", [
        ((2, 3), (2, 2)),  # inner extents differ
        ((4, 2, 3), (3, 3, 2)),  # batched operands
        ((3,), (3, 2)),  # a vector operand
        ((2, 3), (3,)),
        ((2, 3, 4), (4, 5)),  # a 3-D operand whose trailing axes would match
    ])
    def test_rejects_mismatched_operands(self, sa, sb):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones(sa)), Tensor(np.ones(sb)))


class TestSoftmax:
    """The engine has no softmax op; routing's couplings are the one softmax,
    taken over the block axis: axis 0 of (block, rows) logits in routing's
    flat form, the last axis of (outer, parent, block) logits in its matmul
    form.  Each case runs on both."""

    @staticmethod
    def blocks_at(x, axis):
        """``x`` with its last (block) axis moved to ``axis``."""
        return np.moveaxis(x, -1, axis)

    def test_uniform_on_zero_logits(self):
        for axis in (0, -1):
            out = _couplings(self.blocks_at(np.zeros((1, 1, 4)), axis), axis)
            assert np.allclose(out, 0.25, atol=1e-15)

    def test_closed_form(self):
        for axis in (0, -1):
            out = _couplings(self.blocks_at(np.array([[[0.0, math.log(3.0)]]]), axis), axis)
            assert np.allclose(np.moveaxis(out, axis, -1), [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self, rng):
        for axis in (0, -1):
            out = _couplings(self.blocks_at(rng.standard_normal((5, 6, 7)) * 10, axis), axis)
            assert out.shape == self.blocks_at(np.empty((5, 6, 7)), axis).shape
            assert np.all(np.abs(out.sum(axis=axis) - 1.0) < 1e-12)
            assert np.all(out > 0)

    def test_shift_invariance(self, rng):
        for axis in (0, -1):
            x = self.blocks_at(rng.standard_normal((3, 1, 8)), axis)
            assert np.all(np.abs(_couplings(x, axis) - _couplings(x + 123.456, axis)) < 1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.sum_over(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self, rng):
        data = rng.standard_normal(5)
        x = Tensor(data, requires_grad=True)
        T.sum_over(T.mul(x, x)).backward()
        assert np.allclose(x.grad, 2.0 * data)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        out = T.add(T.mul(x, x), x)  # x^2 + x -> 2x + 1 = 7
        out_sum = T.sum_over(out)
        out_sum.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            T.add(x, x).backward()

    def test_graph_consumable_once(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.sum_over(T.mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            out = T.mul(x, x)
        assert out.requires_grad is False and out._parents == ()

    def test_interior_nodes_release_grad_after_backward(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = T.relu(T.mul(x, x))
        s = T.sum_over(T.add(h, x))
        s.backward()
        assert x.grad is not None
        for node in (h, s):
            assert node.grad is None and node._backward is None and node._parents == ()

    def test_shared_gradient_buffers_not_aliased(self):
        # add hands the same upstream gradient to both parents; each must own
        # its accumulation buffer
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        s = T.add(x, y)
        loss = T.sum_over(T.add(T.mul(s, s), T.mul(x, x)))
        loss.backward()
        assert np.allclose(x.grad, 2 * (x.data + y.data) + 2 * x.data)
        assert np.allclose(y.grad, 2 * (x.data + y.data))
