"""1D/2D convolution and 1D transposed convolution with recorded gradients.

Layout conventions (each input may carry an optional leading batch axis B,
which the output then carries too):
  conv1d    input (L, Cin),   kernels (Cout, g, Cin)      -> (Lout, Cout)
  conv2d    input (H, W, 1),  kernels (Cout, gh, gw)      -> (Hout, Wout, Cout)
  deconv1d  input (Lin, Cin), kernels (Cin, g, Cout)      -> (Lout, Cout)

deconv1d is the exact adjoint of valid conv1d: with a shared kernel tensor K,
<conv1d(x, K, valid), y> == <x, deconv1d(y, K)>.  Same-padding splits the pad
symmetrically with the extra sample on the right when the total is odd.

Internally each op is an im2col matmul over every example of the batch at
once; the input-gradient scatter adds one shifted slice per kernel tap.  The
im2col copy is not kept on the tape: backward rebuilds the window view from
the input.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError
from .tensor import Tensor, _accumulate, make_op


def _same_pad(length: int, width: int, stride: int) -> tuple[int, int]:
    total = max(0, (math.ceil(length / stride) - 1) * stride + width - length)
    left = total // 2
    return left, total - left


def _pad_axis1(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad axis 1 (np.pad costs tens of microseconds on arrays this small)."""
    out = np.zeros((x.shape[0], x.shape[1] + before + after) + x.shape[2:])
    out[:, before : before + x.shape[1]] = x
    return out


def _windows(a: np.ndarray, count: int, width: int, stride: int) -> np.ndarray:
    """Read-only (B, count, C, width) view of ``count`` windows along axis 1 of
    a (B, L, C) array (sliding_window_view's checks cost more than the op)."""
    sb, sl, sc = a.strides
    return as_strided(a, (a.shape[0], count, a.shape[2], width), (sb, stride * sl, sc, sl),
                      writeable=False)


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
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if pad not in ("same", "valid"):
        raise ValueError(f"pad must be 'same' or 'valid', got {pad!r}")
    batch, length, cin = xb.shape
    cout, g, cink = kernels.shape
    if cink != cin:
        raise ShapeError(f"kernel channel dim {cink} != input channels {cin}")
    if pad == "same":
        left, right = _same_pad(length, g, stride)
    else:
        left = right = 0
        if g > length:
            raise ShapeError(f"kernel width {g} exceeds input length {length}")

    lout = (length + left + right - g) // stride + 1

    def windows() -> np.ndarray:  # (B, Lout, Cin, g) view of the padded input
        return _windows(_pad_axis1(xb, left, right), lout, g, stride)

    wv = windows()
    kf = kernels.data.transpose(2, 1, 0).reshape(cin * g, cout)
    out = np.ascontiguousarray(wv).reshape(batch * lout, cin * g) @ kf
    out = out.reshape(x.shape[:-2] + (lout, cout))

    def backward(gout):
        g_arr = np.asarray(gout).reshape(batch * lout, cout)
        if kernels.requires_grad:
            wf = np.ascontiguousarray(windows()).reshape(batch * lout, cin * g)
            dk = (wf.T @ g_arr).reshape(cin, g, cout).transpose(2, 1, 0)
            _accumulate(kernels, dk)
        if x.requires_grad:
            t = (g_arr @ kf.T).reshape(batch, lout, cin, g)
            dxp = np.zeros((batch, length + left + right, cin))
            for tap in range(g):
                dxp[:, tap : tap + stride * lout : stride] += t[:, :, :, tap]
            _accumulate(x, dxp[:, left : left + length].reshape(x.shape))

    return make_op(out, (x, kernels), backward)


def conv2d(
    x: Tensor,
    kernels: Tensor,
    stride_h: int = 1,
    stride_w: int = 1,
) -> Tensor:
    """2D correlation of an (H, W, 1) map: same-padded along H, valid along W.

    The width sweep must tile exactly: (W - gw) % stride_w == 0.
    """
    xb = _batched(x, 3, "(H, W, 1)", "conv2d")
    if xb.shape[3] != 1:
        raise ShapeError(f"conv2d input must be (H, W, 1), got {x.shape}")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv2d kernels must be (Cout, gh, gw), got {kernels.shape}")
    if stride_h < 1 or stride_w < 1:
        raise ValueError(f"strides must be positive, got ({stride_h}, {stride_w})")
    batch, h, w, _ = xb.shape
    cout, gh, gw = kernels.shape
    if gw > w:
        raise ShapeError(f"kernel width {gw} exceeds input width {w}")
    if (w - gw) % stride_w != 0:
        raise ShapeError(f"width sweep not exact: (W={w} - gw={gw}) % stride_w={stride_w} != 0")
    top, bottom = _same_pad(h, gh, stride_h)

    hn = (h + top + bottom - gh) // stride_h + 1
    wn = (w - gw) // stride_w + 1

    def windows() -> np.ndarray:  # (B, Hout, Wout, gh, gw) read-only view of the padded map
        xp = _pad_axis1(xb[..., 0], top, bottom)
        sb, sh, sw = xp.strides
        return as_strided(xp, (batch, hn, wn, gh, gw),
                          (sb, stride_h * sh, stride_w * sw, sh, sw), writeable=False)

    wv = windows()
    rows = batch * hn * wn
    kf = kernels.data.reshape(cout, gh * gw).T
    out = np.ascontiguousarray(wv).reshape(rows, gh * gw) @ kf
    out = out.reshape(x.shape[:-3] + (hn, wn, cout))

    def backward(gout):
        g_arr = np.asarray(gout).reshape(rows, cout)
        if kernels.requires_grad:
            wf = np.ascontiguousarray(windows()).reshape(rows, gh * gw)
            _accumulate(kernels, (g_arr.T @ wf).reshape(cout, gh, gw), owned=True)
        if x.requires_grad:
            t = (g_arr @ kf.T).reshape(batch, hn, wn, gh, gw)
            dxp = np.zeros((batch, h + top + bottom, w))
            if stride_w == gw and wn * gw == w:
                # non-overlapping width sweep tiles the row exactly
                tw = t.transpose(0, 1, 3, 2, 4).reshape(batch, hn, gh, w)
                for u in range(gh):
                    dxp[:, u : u + stride_h * hn : stride_h, :] += tw[:, :, u, :]
            else:
                for u in range(gh):
                    for v in range(gw):
                        dxp[:, u : u + stride_h * hn : stride_h,
                            v : v + stride_w * wn : stride_w] += t[:, :, :, u, v]
            _accumulate(x, dxp[:, top : top + h].reshape(x.shape))

    return make_op(out, (x, kernels), backward)


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

    kf = kernels.data.reshape(cin, g * cout)
    t = (xb @ kf).reshape(batch, lin, g, cout)
    out = np.zeros((batch, lout, cout))
    for tap in range(g):
        out[:, tap : tap + stride * lin : stride] += t[:, :, tap, :]
    out = out.reshape(x.shape[:-2] + (lout, cout))

    def backward(gout):
        g_arr = np.asarray(gout).reshape(batch, lout, cout)
        windows = _windows(g_arr, lin, g, stride)  # (B, Lin, Cout, g)
        wf = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(batch * lin, g * cout)
        if x.requires_grad:
            _accumulate(x, (wf @ kf.T).reshape(x.shape), owned=True)
        if kernels.requires_grad:
            dk = (xb.reshape(batch * lin, cin).T @ wf).reshape(cin, g, cout)
            _accumulate(kernels, dk, owned=True)

    return make_op(out, (x, kernels), backward)
