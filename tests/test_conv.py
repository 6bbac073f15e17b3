"""Convolution and transposed-convolution contracts.

Expected values for the sliding-window cases were computed with the
brute-force loop oracles below, which stay deliberately independent of the
vectorized implementations.
"""

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.conv import conv1d, conv2d, deconv1d
from timecaps.errors import ShapeError
from timecaps.tensor import Tensor


def conv1d_oracle(x, k, pad, stride=1):
    """Nested-loop reference: x (L, Cin), k (Cout, g, Cin).  pad "same"
    keeps length L at stride 1; "valid" is the unpadded correlation that
    deconv1d is the adjoint of, (L - g) // stride + 1 rows."""
    length, cin = x.shape
    cout, g, _ = k.shape
    if pad == "same":
        assert stride == 1, "same padding is stride 1"
        left = (g - 1) // 2
        xp = np.zeros((length + g - 1, cin))
        xp[left : left + length] = x
        lout = length
    else:
        xp = x
        lout = (length - g) // stride + 1
    out = np.zeros((lout, cout))
    for j in range(lout):
        for o in range(cout):
            acc = 0.0
            for t in range(g):
                for c in range(cin):
                    acc += xp[j * stride + t, c] * k[o, t, c]
            out[j, o] = acc
    return out


def placed(y, length, g, stride):
    """The (length, C) cotangent that puts row j of ``y`` at row left +
    stride*j: against it, same-padded conv1d sums exactly the products of
    the valid correlation at that stride (row left + s*j of the same conv
    is the window starting at s*j)."""
    out = np.zeros((length, y.shape[1]))
    left = (g - 1) // 2
    out[left : left + stride * len(y) : stride] = y
    return out


def deconv1d_oracle(x, k, stride):
    """Nested-loop scatter: x (Lin, Cin), k (Cin, g, Cout)."""
    lin, cin = x.shape
    _, g, cout = k.shape
    out = np.zeros((stride * (lin - 1) + g, cout))
    for i in range(lin):
        for t in range(g):
            for c in range(cin):
                for o in range(cout):
                    out[stride * i + t, o] += x[i, c] * k[c, t, o]
    return out


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        k = Tensor(np.array([[[1.0]]]))  # one kernel, width 1
        out = conv1d(x, k)
        assert np.array_equal(out.data[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_sliding_window_sums(self):
        # width 2: no left pad, one zero on the right
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        k = Tensor(np.ones((1, 2, 1)))
        out = conv1d(x, k)
        assert np.array_equal(out.data[:, 0], [3.0, 5.0, 7.0, 4.0])

    def test_same_shape(self, rng):
        x = Tensor(rng.standard_normal((6, 3)))
        k = Tensor(rng.standard_normal((5, 3, 3)))
        assert conv1d(x, k).shape == (6, 5)

    def test_matches_oracle(self, rng):
        for _ in range(10):
            x = rng.standard_normal((9, 3))
            k = rng.standard_normal((4, 3, 3))
            got = conv1d(Tensor(x), Tensor(k)).data
            assert np.allclose(got, conv1d_oracle(x, k, "same"), atol=1e-12)

    def test_rows_left_plus_sj_are_the_valid_correlation(self, rng):
        # what the deconv1d adjoint tests rely on: row left + s*j of the
        # same-padded output is window s*j of the unpadded input
        for g in (2, 3, 4):
            left = (g - 1) // 2
            for stride in (1, 2):
                x = rng.standard_normal((9, 3))
                k = rng.standard_normal((4, g, 3))
                valid = conv1d_oracle(x, k, "valid", stride)
                got = conv1d(Tensor(x), Tensor(k)).data[left : left + stride * len(valid) : stride]
                assert np.allclose(got, valid, atol=1e-12)

    def test_even_kernel_pads_extra_right(self):
        # width-2 same conv at stride 1: no left pad, one zero on the right
        x = Tensor(np.array([[1.0], [1.0], [1.0]]))
        k = Tensor(np.ones((1, 2, 1)))
        out = conv1d(x, k)
        assert np.array_equal(out.data[:, 0], [2.0, 2.0, 1.0])

    def test_kernel_wider_than_input_keeps_length(self, rng):
        x = rng.standard_normal((3, 1))
        k = rng.standard_normal((2, 5, 1))
        got = conv1d(Tensor(x), Tensor(k)).data
        assert got.shape == (3, 2)
        assert np.allclose(got, conv1d_oracle(x, k, "same"), atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.ones((4, 2))), Tensor(np.ones((1, 2, 3))))


class TestConv2d:
    def test_channel_sweep_count(self, rng):
        # 4 blocks of width 8 -> 4 positions
        x = Tensor(rng.standard_normal((6, 4, 8)))
        k = Tensor(rng.standard_normal((10, 3, 8)))
        out = conv2d(x, k)
        assert out.shape == (6, 32 // 8, 10)
        assert out.shape[1] == 4

    def test_one_by_one_identity(self):
        x = Tensor(np.array([[[3.5]]]))
        k = Tensor(np.ones((1, 1, 1)))
        out = conv2d(x, k)
        assert out.data[0, 0, 0] == 3.5

    def test_shape_arithmetic(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4)))
        k = Tensor(rng.standard_normal((6, 3, 4)))
        assert conv2d(x, k).shape == (8, 3, 6)

    def test_inexact_sweep_rejected(self):
        k = Tensor(np.ones((2, 3, 4)))
        for width in (5, 3):  # blocks wider or narrower than the kernel
            with pytest.raises(ShapeError, match=f"kernel channel dim 4 != input channels {width}"):
                conv2d(Tensor(np.ones((4, 2, width))), k)

    def test_matches_windowed_oracle(self, rng):
        x = rng.standard_normal((5, 2, 4))
        k = rng.standard_normal((3, 3, 4))
        out = conv2d(Tensor(x), Tensor(k)).data
        xp = np.pad(x.reshape(5, 8), ((1, 1), (0, 0)))  # gh=3 same padding
        for h in range(5):
            for w in range(2):
                for o in range(3):
                    acc = 0.0
                    for u in range(3):
                        for v in range(4):
                            acc += xp[h + u, 4 * w + v] * k[o, u, v]
                    assert out[h, w, o] == pytest.approx(acc, abs=1e-12)


    @pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
    def test_equals_conv1d_per_width_block(self, rng, lead):
        # conv2d is conv1d (same padding) applied to each width block, with
        # the block's gw columns as input channels; gradients included
        x = rng.standard_normal(lead + (7, 3, 4))
        k = rng.standard_normal((5, 3, 4))
        cot = rng.standard_normal(lead + (7, 3, 5))
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        out = conv2d(xt, kt)
        T.sum_over(T.mul(out, Tensor(cot))).backward()
        kb = Tensor(k, requires_grad=True)
        for m in range(3):
            xm = Tensor(x[..., m, :], requires_grad=True)
            om = conv1d(xm, kb)
            assert np.allclose(out.data[..., m, :], om.data, rtol=1e-13, atol=1e-13)
            T.sum_over(T.mul(om, Tensor(cot[..., m, :]))).backward()
            assert np.allclose(xt.grad[..., m, :], xm.grad, rtol=1e-13, atol=1e-13)
        assert np.allclose(kt.grad, kb.grad, rtol=1e-13, atol=1e-13)

class TestDeconv1d:
    def test_single_site_scatter(self):
        x = Tensor(np.array([[1.0]]))
        k = Tensor(np.array([[[0.3], [0.5], [0.7]]]).reshape(1, 3, 1))
        out = deconv1d(x, k, stride=1)
        assert np.allclose(out.data[:, 0], [0.3, 0.5, 0.7])

    def test_length_formula(self, rng):
        x = Tensor(rng.standard_normal((2, 3)))
        k = Tensor(rng.standard_normal((3, 2, 4)))
        out = deconv1d(x, k, stride=2)
        assert out.shape == (2 * 1 + 2, 4)

    def test_matches_oracle(self, rng):
        for stride in (1, 2, 3):
            x = rng.standard_normal((4, 2))
            k = rng.standard_normal((2, 3, 5))
            got = deconv1d(Tensor(x), Tensor(k), stride).data
            assert np.allclose(got, deconv1d_oracle(x, k, stride), atol=1e-12)

    def test_adjoint_identity(self, rng):
        # <valid(x; K, s), y> == <x, deconv(y; K, s)> with the same kernel
        # tensor, the valid correlation read off same-padded conv1d
        for stride in (1, 2):
            for _ in range(10):
                cin, cout, g = 3, 4, 3
                lout = 5
                length = stride * (lout - 1) + g
                x = rng.standard_normal((length, cin))
                k = rng.standard_normal((cout, g, cin))
                y = rng.standard_normal((lout, cout))
                lhs = float(np.sum(conv1d(Tensor(x), Tensor(k)).data * placed(y, length, g, stride)))
                rhs = float(np.sum(x * deconv1d(Tensor(y), Tensor(k), stride).data))
                assert abs(lhs - rhs) < 1e-10

    def test_adjoint_matches_conv_input_gradient(self, rng):
        # deconv forward == gradient map of the valid correlation: the loop
        # oracle's at stride 1, and same-padded conv1d's against a placed
        # cotangent at strides 1 and 2
        k = rng.standard_normal((3, 3, 2))
        y = rng.standard_normal((5, 3))
        # the map is linear, so coordinate i of its gradient is its value at e_i
        basis = np.eye(14).reshape(14, 7, 2)
        oracle_grad = np.array([np.sum(conv1d_oracle(e, k, "valid") * y) for e in basis])
        scattered = deconv1d(Tensor(y), Tensor(k), stride=1).data
        assert np.allclose(scattered, oracle_grad.reshape(7, 2), atol=1e-12)
        for stride in (1, 2):
            length = stride * (len(y) - 1) + 3
            xt = Tensor(rng.standard_normal((length, 2)), requires_grad=True)
            out = conv1d(xt, Tensor(k))
            T.sum_over(T.mul(out, Tensor(placed(y, length, 3, stride)))).backward()
            scattered = deconv1d(Tensor(y), Tensor(k), stride=stride).data
            assert np.allclose(xt.grad, scattered, atol=1e-12)

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            deconv1d(Tensor(np.ones((2, 1))), Tensor(np.ones((1, 2, 1))), 0)
