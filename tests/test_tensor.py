"""Elementwise, reduction and shape behavior of the tensor engine, and the
softmax behind the routing couplings."""

import math

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.capsules import _couplings, dynamic_routing
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

    def test_div(self):
        out = T.div(Tensor([4.0, 9.0]), Tensor([2.0, 3.0]))
        assert np.array_equal(out.data, [2.0, 3.0])

    def test_operator_sugar(self):
        a = Tensor([2.0])
        out = (a * 3.0 + 1.0 - a) / 2.0
        assert out.data[0] == pytest.approx(2.5)

    def test_finite_outputs_on_finite_inputs(self, rng):
        x = Tensor(rng.standard_normal((5, 4)) * 100)
        for op in (T.relu, lambda t: T.mul(t, t), T.neg):
            assert np.all(np.isfinite(op(x).data))


class TestScale:
    def test_scale_by_tensor_scalar(self):
        s = Tensor([2.0], requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.scale(x, s)
        assert np.array_equal(out.data, 2.0 * x.data)
        T.sum_over(out).backward()
        assert s.grad[0] == pytest.approx(x.data.sum())
        assert np.allclose(x.grad, 2.0)

    def test_scale_rejects_vector(self):
        with pytest.raises(ShapeError):
            T.scale(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))


class TestReduce:
    def test_sum_all(self):
        assert T.sum_over(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_sum_axis(self):
        out = T.sum_over(Tensor([[1.0, 2.0], [3.0, 4.0]]), axes=(1,))
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_keepdims(self):
        out = T.sum_over(Tensor(np.ones((2, 3))), axes=(1,), keepdims=True)
        assert out.shape == (2, 1)

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


def random_spec(rng):
    """A binary spec whose labels are batch (both operands and the output),
    summed (both operands only), or carried by one operand and the output."""
    labels = "abcdefgh"[: int(rng.integers(1, 7))]
    roles = rng.integers(0, 4, size=len(labels))  # batch, summed, x-only, y-only
    x = [l for l, r in zip(labels, roles) if r in (0, 1, 2)]
    y = [l for l, r in zip(labels, roles) if r in (0, 1, 3)]
    out = [l for l, r in zip(labels, roles) if r != 1]
    x, y, out = ("".join(rng.permutation(s)) if s else "" for s in (x, y, out))
    return f"{x},{y}->{out}"


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


class TestContract:
    def test_matches_einsum(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        out = T.contract("ij,jk->ik", Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)

    @pytest.mark.parametrize("spec", [
        "zna,ncab->zcnb",  # class votes: batch n, summed a, z only in x, c and b only in y
        "zcnb,ncab->zna",  # their capsule adjoint: two summed labels
        "zna,zcnb->ncab",  # their weight adjoint
        "na,ncab->cnb",
        "ij,ij->",  # scalar-like output
        "i,o->io",  # outer product: nothing summed
        "ijk,jkl->il",
        "bij,bjk->bki",
    ])
    def test_named_specs_match_einsum(self, rng, spec):
        ins, _ = spec.split("->")
        extents = {l: int(rng.integers(1, 6)) for l in set(ins.replace(",", ""))}
        for transposed in (False, True):
            a, b = (strided_operand(rng, tuple(extents[l] for l in s), transposed)
                    for s in ins.split(","))
            assert_close(T.contract(spec, Tensor(a), Tensor(b)).data, np.einsum(spec, a, b))

    @pytest.mark.parametrize("sum_chunk", [None, 3])
    def test_random_specs_and_adjoints_match_einsum(self, rng, monkeypatch, sum_chunk):
        if sum_chunk is not None:  # several chunks whenever more than one label is summed
            monkeypatch.setattr(T, "_SUM_CHUNK", sum_chunk)
        for _ in range(200):
            spec = random_spec(rng)
            (x_spec, y_spec), out_spec = spec.split("->")[0].split(","), spec.split("->")[1]
            extents = {l: int(rng.integers(1, 5)) for l in x_spec + y_spec}
            transposed = bool(rng.integers(2))
            a, b = (strided_operand(rng, tuple(extents[l] for l in s), transposed)
                    for s in (x_spec, y_spec))
            at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
            out = T.contract(spec, at, bt)
            assert_close(out.data, np.einsum(spec, a, b))
            g = strided_operand(rng, out.shape, transposed)
            T.sum_over(T.mul(out, Tensor(g))).backward()
            assert_close(at.grad, np.einsum(f"{out_spec},{y_spec}->{x_spec}", g, b))
            assert_close(bt.grad, np.einsum(f"{x_spec},{out_spec}->{y_spec}", a, g))

    def test_class_votes_keep_the_weight_layout(self, rng):
        # as in the class stage: the votes are a permuted view of an
        # (n, c, z, b) array, routing hands back their gradient in that
        # layout, and the weight gradient comes back in the weights' own
        u = Tensor(rng.standard_normal((4, 6, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 5, 3, 2)), requires_grad=True)
        votes = T.contract("zna,ncab->zcnb", u, w)
        assert votes.data.transpose(2, 1, 0, 3).flags.c_contiguous
        T.sum_over(dynamic_routing(votes, 3)).backward()
        assert w.grad.flags.c_contiguous

    def test_rejects_extent_mismatch(self):
        with pytest.raises(ShapeError):
            T.contract("ij,jk->ik", Tensor(np.ones((2, 3))), Tensor(np.ones((1, 2))))
        with pytest.raises(ShapeError):
            T.contract("bij,bjk->bik", Tensor(np.ones((1, 2, 3))), Tensor(np.ones((4, 3, 2))))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ShapeError):
            T.contract("ij,jk->ik", Tensor(np.ones((2, 3, 1))), Tensor(np.ones((3, 2))))

    def test_rejects_internal_sum(self):
        with pytest.raises(ValueError):
            T.contract("ij,k->k", Tensor(np.ones((2, 2))), Tensor(np.ones(3)))

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            T.contract("ii,ij->j", Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


class TestSoftmax:
    """The engine has no softmax op; routing's couplings are the one softmax,
    taken over the block axis (axis 2) of (outer, parent, block) logits."""

    def test_uniform_on_zero_logits(self):
        assert np.allclose(_couplings(np.zeros((1, 1, 4))), 0.25, atol=1e-15)

    def test_closed_form(self):
        out = _couplings(np.array([[[0.0, math.log(3.0)]]]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one(self, rng):
        out = _couplings(rng.standard_normal((5, 6, 7)) * 10)
        assert np.all(np.abs(out.sum(axis=2) - 1.0) < 1e-12)
        assert np.all(out > 0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 1, 8))
        assert np.all(np.abs(_couplings(x) - _couplings(x + 123.456)) < 1e-12)


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
