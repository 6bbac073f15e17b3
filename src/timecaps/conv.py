"""1D convolution, block convolution and 1D transposed convolution with
recorded gradients.

Layout conventions (each input may carry an optional leading batch axis B,
which the output then carries too):
  conv1d    input (L, Cin),   kernels (Cout, g, Cin)      -> (L, Cout)
  conv2d    input (H, W, 1),  kernels (Cout, gh, gw)      -> (H, W/gw, Cout)
  deconv1d  input (Lin, Cin), kernels (Cin, g, Cout)      -> (Lout, Cout)

conv1d and conv2d share one core, a block convolution: a (B, L, M, C) input
holds M independent blocks, each correlated along L with the same (Cout, g, C)
kernels at stride 1, same-padded so that the output keeps length L, as the
paper pads every convolution.  The pad of g - 1 samples is split
symmetrically, with the extra sample on the right when g is even.  conv1d is
the case of one block; conv2d cuts its width axis into W/gw non-overlapping
blocks of gw, so it is a 2D correlation with height stride 1 and width
stride gw.  The forward is one batched matmul of each block's padded windows
(the window matrix, im2col) against the kernels.  conv1d stores its result
(B, L, Cout).  conv2d stores it block-leading, (M, Cout, B*H) in memory, and
returns a (B, H, M, Cout) view of that: the capsule cells route its output
in that layout without a copy.

The backward reads the output gradient as (M, Cout, B*L) through a view,
so a gradient in the output's own layout is not copied, and it never
rebuilds the window matrix: the forward keeps it on the tape, and the kernel
gradient is one batched matmul of the output gradient against it.  The
input gradient is one batched matmul per kernel tap, written tap-major so
that each tap is one contiguous run, and the taps are added into one
zero-padded buffer.

deconv1d is the exact adjoint of the valid (unpadded) strided correlation:
with a shared kernel tensor K, <valid(x, K, s), y> == <x, deconv1d(y, K, s)>,
where valid(x, K, s) is conv1d(x, K) read at rows left + s*j.  Its forward is
the tap scatter and its backward the window view.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _accumulate, make_op


def _pad_axis1(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad axis 1 (np.pad costs tens of microseconds on arrays this small)."""
    out = np.zeros((x.shape[0], x.shape[1] + before + after) + x.shape[2:])
    out[:, before : before + x.shape[1]] = x
    return out


def _windows(a: np.ndarray, count: int, width: int, stride: int) -> np.ndarray:
    """Read-only (M, B, count, width, C) view of ``count`` windows along axis 1
    of a C-contiguous (B, L, M, C) array, block axis first (as_strided and
    sliding_window_view cost several times more than the op on arrays this
    small)."""
    batch, _, blocks, channels = a.shape
    sb, sl, sm, sc = a.strides
    view = np.ndarray((blocks, batch, count, width, channels), a.dtype, a, 0,
                      (sm, sb, stride * sl, sl, sc))
    view.flags.writeable = False
    return view


def _scatter_taps(taps: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Adjoint of ``_windows``: a (B, length, M, C) sum in which tap u of
    window i, ``taps[u, :, i]`` of the tap-major (width, B, count, M, C)
    array, lands on row stride*i + u.  In a C-contiguous tap-major array each
    tap is one contiguous run, and adding it costs far less than adding a
    strided slice of C-float rows."""
    width, batch, count, blocks, channels = taps.shape
    out = np.zeros((batch, length, blocks, channels))
    for tap in range(width):
        out[:, tap : tap + stride * count : stride] += taps[tap]
    return out


def _block_conv(x: Tensor, xb: np.ndarray, kernels: Tensor, out_shape: tuple[int, ...],
                block_leading: bool) -> Tensor:
    """Correlate every block of the (B, L, M, C) view ``xb`` of ``x`` along L
    with the (Cout, g, C) kernels, same-padded at stride 1, giving
    (B, L, M, Cout) reshaped to ``out_shape``.  With ``block_leading`` the
    result is stored (M, Cout, B*L) and returned as a view of that storage;
    otherwise (one block, as in conv1d) it is stored (B, L, Cout)."""
    batch, length, blocks, channels = xb.shape
    cout, g, cink = kernels.shape
    if cink != channels:
        raise ShapeError(f"kernel channel dim {cink} != input channels {channels}")
    left, right = (g - 1) // 2, g // 2
    rows = batch * length
    kf = kernels.data.reshape(cout, g * channels)

    # the (M, B*L, g*C) window matrix: one row per output position of a block
    cols = np.ascontiguousarray(_windows(_pad_axis1(xb, left, right), length, g, 1))
    cols = cols.reshape(blocks, rows, g * channels)
    # a contiguous (g*C, Cout) copy of the small kernel matrix: BLAS runs the
    # skinny products of few output channels up to twice as fast on it as on kf.T
    kt = np.ascontiguousarray(kf.T)
    if block_leading:
        store = np.empty((blocks, cout, rows))
        np.matmul(cols, kt, out=store.transpose(0, 2, 1))
        out = store.reshape(blocks, cout, batch, length).transpose(2, 3, 0, 1).reshape(out_shape)
    else:  # one block
        out = (cols @ kt).reshape(out_shape)

    def backward(gout):
        # (M, Cout, B*L) view of the output gradient: no copy when it has
        # the output's own layout
        g_arr = np.asarray(gout).reshape(batch, length, blocks, cout).transpose(2, 3, 0, 1)
        g_arr = g_arr.reshape(blocks, cout, rows)
        if kernels.requires_grad:
            dk = np.matmul(g_arr, cols).sum(axis=0).reshape(kernels.shape)
            _accumulate(kernels, dk, owned=True)
        if x.requires_grad:
            # tap u of every window is the output gradient times kernel tap u,
            # written tap-major: (g, B*L, M, C)
            taps = np.empty((g, rows, blocks, channels))
            np.matmul(g_arr.transpose(0, 2, 1)[None], kernels.data.transpose(1, 0, 2)[:, None],
                      out=taps.transpose(0, 2, 1, 3))
            dxp = _scatter_taps(taps.reshape(g, batch, length, blocks, channels), length + g - 1, 1)
            _accumulate(x, dxp[:, left : left + length].reshape(x.shape), owned=True)

    return make_op(out, (x, kernels), backward)


def _batched(x: Tensor, ndim: int, layout: str, name: str) -> np.ndarray:
    """The input data with an explicit batch axis (length 1 when absent)."""
    if x.data.ndim == ndim:
        return x.data[None]
    if x.data.ndim == ndim + 1:
        return x.data
    raise ShapeError(f"{name} input must be {layout} or (B, {layout[1:]}, got {x.shape}")


def conv1d(x: Tensor, kernels: Tensor) -> Tensor:
    """Correlate (L, Cin) against (Cout, g, Cin) kernels along the length
    axis, same-padded at stride 1, so the output is (L, Cout)."""
    xb = _batched(x, 2, "(L, Cin)", "conv1d")
    if kernels.data.ndim != 3:
        raise ShapeError(f"conv1d kernels must be (Cout, g, Cin), got {kernels.shape}")
    return _block_conv(x, xb[:, :, None], kernels, x.shape[:-1] + (kernels.shape[0],),
                       block_leading=False)


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
    return _block_conv(x, xb.reshape(batch, h, w // gw, gw), kernels,
                       x.shape[:-2] + (w // gw, cout), block_leading=True)


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
        g_arr = np.ascontiguousarray(gout).reshape(batch, lout, 1, cout)
        wf = np.ascontiguousarray(_windows(g_arr, lin, g, stride)).reshape(batch * lin, g * cout)
        if x.requires_grad:
            _accumulate(x, (wf @ kf.T).reshape(x.shape), owned=True)
        if kernels.requires_grad:
            dk = (xb.reshape(batch * lin, cin).T @ wf).reshape(cin, g, cout)
            _accumulate(kernels, dk, owned=True)

    return make_op(out, (x, kernels), backward)
