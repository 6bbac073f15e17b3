"""1D convolution, block convolution and 1D transposed convolution with
recorded gradients.

Layout conventions (each input may carry an optional leading batch axis B,
which the output then carries too):
  conv1d    input (L, Cin),   kernels (Cout, g, Cin)      -> (Lout, Cout)
  conv2d    input (H, W, 1),  kernels (Cout, gh, gw)      -> (H, W/gw, Cout)
  deconv1d  input (Lin, Cin), kernels (Cin, g, Cout)      -> (Lout, Cout)

conv1d and conv2d share one core, a block convolution: a (B, L, M, C) input
holds M independent blocks, each correlated along L with the same (Cout, g, C)
kernels.  conv1d is the case of one block; conv2d cuts its width axis into
W/gw non-overlapping blocks of gw, so it is a 2D correlation with height
stride 1 and width stride gw.  The core is one matmul of the padded windows
against the kernels; its input gradient adds one shifted slice per kernel
tap.  The windows are not kept on the tape: backward rebuilds them from the
input.

deconv1d is the exact adjoint of valid conv1d: with a shared kernel tensor K,
<conv1d(x, K, valid), y> == <x, deconv1d(y, K)>.  Its forward is the tap
scatter and its backward the window view.  Same-padding splits the pad
symmetrically with the extra sample on the right when the total is odd.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError
from .tensor import Tensor, _accumulate, make_op


def _pad_axis1(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad axis 1 (np.pad costs tens of microseconds on arrays this small)."""
    out = np.zeros((x.shape[0], x.shape[1] + before + after) + x.shape[2:])
    out[:, before : before + x.shape[1]] = x
    return out


def _windows(a: np.ndarray, count: int, width: int, stride: int) -> np.ndarray:
    """Read-only (B, count, M, width, C) view of ``count`` windows along axis 1
    of a (B, L, M, C) array (sliding_window_view's checks cost more than the op)."""
    batch, _, blocks, channels = a.shape
    sb, sl, sm, sc = a.strides
    return as_strided(a, (batch, count, blocks, width, channels),
                      (sb, stride * sl, sm, sl, sc), writeable=False)


def _scatter_taps(taps: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Adjoint of ``_windows``: a (B, length, M, C) sum in which tap u of
    window i, ``taps[u, :, i]`` of the (width, B, count, M, C) array, lands
    on row stride*i + u."""
    # in a tap-major C-contiguous array each tap is one contiguous run, and
    # adding it costs far less than adding a strided slice of C-float rows
    taps = np.ascontiguousarray(taps)
    width, batch, count, blocks, channels = taps.shape
    out = np.zeros((batch, length, blocks, channels))
    for tap in range(width):
        out[:, tap : tap + stride * count : stride] += taps[tap]
    return out


def _block_conv(x: Tensor, xb: np.ndarray, kernels: Tensor, stride: int, pad: str,
                out_shape: Callable[[int], tuple[int, ...]]) -> Tensor:
    """Correlate every block of the (B, L, M, C) view ``xb`` of ``x`` along L
    with the (Cout, g, C) kernels, giving (B, Lout, M, Cout) reshaped to
    ``out_shape(Lout)``."""
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    batch, length, blocks, channels = xb.shape
    cout, g, cink = kernels.shape
    if cink != channels:
        raise ShapeError(f"kernel channel dim {cink} != input channels {channels}")
    if pad == "same":
        total = max(0, (math.ceil(length / stride) - 1) * stride + g - length)
        left, right = total // 2, total - total // 2
    elif pad == "valid":
        left = right = 0
        if g > length:
            raise ShapeError(f"kernel width {g} exceeds input length {length}")
    else:
        raise ValueError(f"pad must be 'same' or 'valid', got {pad!r}")
    lout = (length + left + right - g) // stride + 1
    rows = batch * lout * blocks
    kf = kernels.data.reshape(cout, g * channels)

    def im2col() -> np.ndarray:  # (rows, g*C) copy of the padded input's windows
        view = _windows(_pad_axis1(xb, left, right), lout, g, stride)
        return np.ascontiguousarray(view).reshape(rows, g * channels)

    # a contiguous (g*C, Cout) copy of the small kernel matrix: BLAS runs the
    # skinny products of few output channels up to twice as fast on it as on kf.T
    out = (im2col() @ np.ascontiguousarray(kf.T)).reshape(out_shape(lout))

    def backward(gout):
        g_arr = np.asarray(gout).reshape(rows, cout)
        if kernels.requires_grad:
            _accumulate(kernels, (g_arr.T @ im2col()).reshape(kernels.shape), owned=True)
        if x.requires_grad:
            t = (g_arr @ kf).reshape(batch, lout, blocks, g, channels)
            dxp = _scatter_taps(np.moveaxis(t, 3, 0), length + left + right, stride)
            _accumulate(x, dxp[:, left : left + length].reshape(x.shape))

    return make_op(out, (x, kernels), backward)


def _batched(x: Tensor, ndim: int, layout: str, name: str) -> np.ndarray:
    """The input data with an explicit batch axis (length 1 when absent)."""
    if x.data.ndim == ndim:
        return x.data[None]
    if x.data.ndim == ndim + 1:
        return x.data
    raise ShapeError(f"{name} input must be {layout} or (B, {layout[1:]}, got {x.shape}")


def conv1d(x: Tensor, kernels: Tensor, stride: int = 1, pad: str = "same") -> Tensor:
    """Correlate (L, Cin) against (Cout, g, Cin) kernels along the length axis."""
    xb = _batched(x, 2, "(L, Cin)", "conv1d")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d kernels must be (Cout, g, Cin), got {kernels.shape}")
    cout = kernels.shape[0]
    return _block_conv(x, xb[:, :, None], kernels, stride, pad,
                       lambda lout: x.shape[:-2] + (lout, cout))


def conv2d(x: Tensor, kernels: Tensor) -> Tensor:
    """Block convolution of an (H, W, 1) map: each of the W/gw non-overlapping
    width-gw column blocks is correlated along H (same-padded, stride 1) with
    the (Cout, gh, gw) kernels.  W must be a multiple of gw."""
    xb = _batched(x, 3, "(H, W, 1)", "conv2d")
    if xb.shape[3] != 1:
        raise ShapeError(f"conv2d input must be (H, W, 1), got {x.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv2d kernels must be (Cout, gh, gw), got {kernels.shape}")
    batch, h, w, _ = xb.shape
    cout, _, gw = kernels.shape
    if w % gw:
        raise ShapeError(f"input width {w} is not a multiple of kernel width {gw}")
    return _block_conv(x, xb.reshape(batch, h, w // gw, gw), kernels, 1, "same",
                       lambda lout: x.shape[:-3] + (lout, w // gw, cout))


def deconv1d(x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
    """Transposed convolution: each input site scatters a kernel-wide stencil.

    Output length is stride*(Lin-1) + g with no cropping.  Kernel axis 0 pairs
    with the input channels, axis 2 with the output channels, so the same
    tensor drives a conv1d one way and its adjoint the other.
    """
    xb = _batched(x, 2, "(Lin, Cin)", "deconv1d")
    if kernels.data.ndim != 3:
        raise ShapeError(f"deconv1d kernels must be (Cin, g, Cout), got {kernels.shape}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    batch, lin, cin = xb.shape
    cink, g, cout = kernels.shape
    if cink != cin:
        raise ShapeError(f"kernel channel dim {cink} != input channels {cin}")
    lout = stride * (lin - 1) + g

    taps = np.matmul(xb.reshape(batch * lin, cin), kernels.data.transpose(1, 0, 2))
    out = _scatter_taps(taps.reshape(g, batch, lin, 1, cout), lout, stride)
    out = out.reshape(x.shape[:-2] + (lout, cout))
    kf = kernels.data.reshape(cin, g * cout)

    def backward(gout):
        g_arr = np.asarray(gout).reshape(batch, lout, 1, cout)
        wf = np.ascontiguousarray(_windows(g_arr, lin, g, stride)).reshape(batch * lin, g * cout)
        if x.requires_grad:
            _accumulate(x, (wf @ kf.T).reshape(x.shape), owned=True)
        if kernels.requires_grad:
            dk = (xb.reshape(batch * lin, cin).T @ wf).reshape(cin, g, cout)
            _accumulate(kernels, dk, owned=True)

    return make_op(out, (x, kernels), backward)
