"""Network layers on top of the tensor primitives.

Only the handful of layers the four representation methods and the policy
network need: fully-connected, strided 2-D convolution with "same" zero
padding, and the spatial-softmax coordinate readout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import ShapeError, Tensor, _record, add, matmul


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (N, in) @ w (in, out) + b (out,) broadcast over rows."""
    return add(matmul(x, w), b)


def _same_pad(size: int, kernel: int, stride: int) -> tuple:
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + kernel - size, 0)
    return out, total // 2, total - total // 2


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Patch columns (C, kh, kw, N, OH, OW) of the zero-bordered input xp (N, C, ., .).

    One copy of a strided view: column (c, i, j, n, y, x) reads
    xp[n, c, i + stride * y, j + stride * x].
    """
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    view = np.ndarray((c, kh, kw, n, oh, ow), dtype=xp.dtype, buffer=xp,
                      strides=(sc, sh, sw, sn, stride * sh, stride * sw))
    return view.copy()


class ConvPlan:
    """One zero-padded "same" convolution over (N, C, H, W) inputs, prepared
    once: the kernel as its (F, K) contraction view, the bias as an
    (F, 1, 1, 1) view and the padding geometry. It holds views, never
    copies, so an in-place edit of the weights shows in the next call.

    A call returns the output (N, F, OH, OW) and the patch columns
    (K, N*OH*OW) that ``conv2d``'s backward reuses. Each output channel is
    its own row of one einsum, so a kernel holding a subset of the filters
    gives those channels' bits.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, h: int, wd: int, stride: int = 1):
        f, c, kh, kw = w.shape
        self.oh, pt, pb = _same_pad(h, kh, stride)
        self.ow, pl, pr = _same_pad(wd, kw, stride)
        self.wf = w.reshape(f, c * kh * kw)
        self.b = b.reshape(f, 1, 1, 1)
        self.kernel = (kh, kw, stride)
        self.padded = (c, pt + h + pb, pl + wd + pr)
        self.inner = (slice(None), slice(None), slice(pt, pt + h), slice(pl, pl + wd))

    def __call__(self, x: np.ndarray) -> tuple:
        n, oh, ow = x.shape[0], self.oh, self.ow
        # zero-bordered copy: cheaper than np.pad, which dominates one-frame encodes
        xp = np.zeros((n, *self.padded), dtype=x.dtype)
        xp[self.inner] = x
        cols = _im2col(xp, *self.kernel, oh, ow).reshape(self.wf.shape[1], n * oh * ow)
        out = np.einsum("fk,kq->fq", self.wf, cols).reshape(-1, n, oh, ow)
        out += self.b
        # (F, N, ., .) -> (N, F, ., .): a copy only when N > 1
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """Zero-padded "same" convolution: x (N,C,H,W), w (F,C,kh,kw), b (F,).

    The columns are laid out (K, Q) with K = C*kh*kw and Q = N*OH*OW, so the
    forward and input-gradient contractions, which einsum sums in index
    order, each run one inner loop over all of Q rather than one per frame;
    their bits match the per-frame (N, K, OH*OW) form.  The weight gradient
    sums over frames and pixels in memory order, so it keeps a C-contiguous
    (N, K, OH*OW) operand: another layout changes its bits.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input/kernel, got {x.shape}, {w.shape}")
    n, c, h, wd = x.shape
    f, ck, kh, kw = w.shape
    if ck != c:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    plan = ConvPlan(w.data, b.data, h, wd, stride)
    out_data, cols = plan(x.data)
    out = Tensor(out_data)
    need_gx = x.requires_grad
    oh, ow, wf = plan.oh, plan.ow, plan.wf
    k, p = c * kh * kw, oh * ow

    def bwd(g):
        gf = g.reshape(n, f, p)
        cols_nkp = np.ascontiguousarray(cols.reshape(k, n, p).transpose(1, 0, 2))
        gw = np.einsum("nfp,nkp->fk", gf, cols_nkp).reshape(w.shape)
        gb = g.sum(axis=(0, 2, 3))
        gx = None
        if need_gx:
            _, pt, pb = _same_pad(h, kh, stride)
            _, pl, pr = _same_pad(wd, kw, stride)
            gq = gf.transpose(1, 0, 2).reshape(f, n * p)
            gcols = np.einsum("fk,fq->kq", wf, gq).reshape(c, kh, kw, n, oh, ow)
            gxp = np.zeros((n, c, pt + h + pb, pl + wd + pr),
                           dtype=x.data.dtype).transpose(1, 0, 2, 3)   # (C, N, ., .) view
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += gcols[:, i, j]
            gx = gxp.transpose(1, 0, 2, 3)[:, :, pt:pt + h, pl:pl + wd]
            gx = gx.astype(x.data.dtype, copy=False)
        return gx, gw.astype(w.data.dtype, copy=False), gb.astype(b.data.dtype, copy=False)

    return _record(out, (x, w, b), bwd, "conv2d")


def _axis_coords(n: int) -> np.ndarray:
    # normalized pixel coordinates in [-1, 1]; a single pixel sits at the center
    if n == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, n)


@lru_cache(maxsize=32)
def coord_grids(h: int, w: int) -> tuple:
    """Read-only float64 (x, y) pixel-coordinate grids, flattened row-major."""
    grid_x = np.broadcast_to(_axis_coords(w), (h, w)).reshape(h * w)
    grid_y = np.broadcast_to(_axis_coords(h)[:, None], (h, w)).reshape(h * w)
    grid_x.setflags(write=False)
    grid_y.setflags(write=False)
    return grid_x, grid_y


def softmax_probs(a: np.ndarray, temperature: float) -> np.ndarray:
    """Float64 softmax over the pixels of each (N, C, H, W) feature map:
    (N, C, H*W), every reduction row by row, so a channel's row keeps its
    bits whichever other channels are computed beside it."""
    n, c, h, w = a.shape
    flat = (a.reshape(n, c, h * w) / temperature).astype(np.float64)
    flat -= np.maximum.reduce(flat, axis=2, keepdims=True)
    p = np.exp(flat, out=flat)
    p /= np.add.reduce(p, axis=2, keepdims=True)
    return p


def expected_coords(p: np.ndarray, h: int, w: int, dtype) -> tuple:
    """Readout of ``softmax_probs`` rows over an H x W grid: the (N, 2C)
    interleaved coordinates (x_0, y_0, x_1, y_1, ...) as ``dtype``, with the
    float64 (N, C) expectations ex and ey.

    The float64 products' bits depend on the number of rows C, so a caller
    that reads a channel subset still passes all C rows, with zeros in the
    rows it does not read.
    """
    return grid_readout(p, *coord_grids(h, w), dtype)


def grid_readout(p: np.ndarray, grid_x: np.ndarray, grid_y: np.ndarray, dtype) -> tuple:
    """``expected_coords`` over grids a caller looked up once."""
    ex = p @ grid_x
    ey = p @ grid_y
    coords = np.empty((p.shape[0], 2 * p.shape[1]), dtype=dtype)
    coords[:, 0::2] = ex
    coords[:, 1::2] = ey
    return coords, ex, ey


def spatial_softmax(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Per-channel softmax over pixels, then expected (x, y) coordinates.

    Input (N, C, H, W) or (C, H, W); output (N, 2C) or (2C,), interleaved
    (x_0, y_0, x_1, y_1, ...) with both axes normalized to [-1, 1].
    """
    if not temperature > 0:
        raise ValueError(f"spatial_softmax: temperature must be > 0, got {temperature}")
    squeeze = x.data.ndim == 3
    data = x.data[None] if squeeze else x.data
    if data.ndim != 4:
        raise ShapeError(f"spatial_softmax: need (C,H,W) or (N,C,H,W), got {x.shape}")
    n, c, h, w = data.shape
    p = softmax_probs(data, temperature)                  # (N,C,HW) float64
    out_data, ex, ey = expected_coords(p, h, w, x.data.dtype)
    out = Tensor(out_data[0] if squeeze else out_data)

    def bwd(g):
        gm = g[None] if squeeze else g                    # (N,2C)
        gx = gm[:, 0::2].astype(np.float64)
        gy = gm[:, 1::2].astype(np.float64)
        grid_x, grid_y = coord_grids(h, w)
        # d ex / d a = p * (grid_x - ex) / T  (softmax expectation rule)
        dev_x = grid_x[None, None, :] - ex[:, :, None]
        dev_y = grid_y[None, None, :] - ey[:, :, None]
        ga = p * (gx[:, :, None] * dev_x + gy[:, :, None] * dev_y) / temperature
        ga = ga.reshape(n, c, h, w).astype(x.data.dtype, copy=False)
        return (ga[0] if squeeze else ga,)

    return _record(out, (x,), bwd, "spatial_softmax")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def he_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    limit = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
