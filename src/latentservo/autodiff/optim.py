"""Parameter update rules: adaptive-moment (Adam) and plain SGD.

Updates are in-place on the parameter tensors and fully deterministic:
identical parameters, gradients, and state produce bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from .tensor import ShapeError, Tensor


def _checked_grads(params: Mapping[str, Tensor],
                   grads: Mapping[str, np.ndarray]) -> List[np.ndarray]:
    """Each parameter's gradient, all checked before any parameter or state moves."""
    out = []
    for name, p in params.items():
        if name not in grads:
            raise ShapeError(f"optimizer: no gradient for parameter '{name}'")
        g = np.asarray(grads[name], dtype=p.data.dtype)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"optimizer: gradient shape {g.shape} != parameter "
                f"'{name}' shape {p.data.shape}")
        out.append(g)
    return out


# Elements per slice of one Adam pass: the slices of p, g, m, v and the two
# scratch buffers stay in cache across the update's 14 passes.
_BLOCK = 1 << 16
# Share of live rows below which gathering them beats updating every row: on
# a (1024, 256) float32 parameter the two cost the same at about 42% live
# (numpy 2.4, one core of a 2-vCPU x86-64 VM).
_GATHER_SHARE = 0.4


class Adam:
    """Adaptive-moment estimation with bias correction.

    Keeps per-parameter first/second moment accumulators keyed by
    parameter name; accumulators always match their parameter's shape.
    The update runs in place in the operation order of Kingma & Ba (2015),
    Algorithm 1; another order changes the low bits of trained weights.
    Every op is element-wise, so an element's new bits depend only on its
    own p, g, m and v, never on which array it sits in or where.  The
    update therefore runs over cache-sized slices of flat arrays, through
    one shared pair of slice-sized scratch buffers, and groups parameters
    freely:

    - Every parameter smaller than one slice (``_BLOCK`` elements) is
      updated whole, in one pass per dtype: their values and gradients
      are gathered into two flat arrays, updated together against one
      flat m and v arena (``self.m[name]`` is a view of it) and copied
      back.  That is one pass over every parameter of the SAE, and over
      all but the two widest of a dense encoder's.
    - A parameter of a block or more, with two or more axes, has its rows
      (indices along axis 0) tracked.  A row is *live* from the first step
      whose gradient has a non-zero entry in it, and stays live.  Rows
      that are not live may be skipped: such a row has m = v = +0 and a
      gradient of +0 or -0, so the update leaves m and v at +0 and
      subtracts (0 / bc1) * lr / (sqrt(0) + eps) = +0 from p, which leaves
      every p, -0.0 included, as it was (this needs lr > 0 and eps > 0).
      Skipping or updating such a row gives the same bits, so the choice
      is by cost alone: while fewer than 40% of the rows are live, only
      those rows are gathered, updated and scattered back; from then on
      the whole flat view is updated and the rows are no longer tracked.
      The rows of an image encoder's first layer that belong to pixels no
      frame ever lights stay skipped.  A small parameter's dead rows are
      updated with the rest: tracking them would cost more than it saves.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if not (lr > 0 and eps > 0):
            raise ValueError(f"Adam: lr and eps must be positive, got {lr}, {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        # live-row masks of the parameters whose rows are still tracked
        self._live: Dict[str, np.ndarray] = {}
        self._scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}
        self._arenas: Dict[np.dtype, _Arena] = {}

    def step(self, params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray]) -> None:
        checked = _checked_grads(params, grads)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        small: Dict[np.dtype, List[Tuple[str, Tensor, np.ndarray]]] = {}
        big: List[Tuple[str, Tensor, np.ndarray]] = []
        for (name, p), g in zip(params.items(), checked):
            if p.data.size < _BLOCK:
                small.setdefault(p.data.dtype, []).append((name, p, g))
            else:
                big.append((name, p, g))
        # small ones first: their flat copies are freed before the row gathers
        # of the big ones, which then reuse the memory (a lower peak RSS)
        for dtype, group in small.items():
            self._step_small(dtype, group, bc1, bc2)
        for name, p, g in big:
            m = self.m.get(name)
            if m is None:
                # C order whatever p's layout is: _update writes through flat views
                m = self.m[name] = np.zeros(p.data.shape, dtype=p.data.dtype)
                self.v[name] = np.zeros(p.data.shape, dtype=p.data.dtype)
                if p.data.ndim >= 2:
                    self._live[name] = np.zeros(p.data.shape[0], dtype=bool)
            v = self.v[name]
            live = self._live.get(name)
            if live is not None:
                live |= (g != 0).any(axis=tuple(range(1, g.ndim)))
                rows = np.flatnonzero(live)
                if rows.size < _GATHER_SHARE * live.size:
                    pr = np.ascontiguousarray(p.data[rows])
                    mr, vr = m[rows], v[rows]
                    self._update(pr.reshape(-1), g[rows].reshape(-1),
                                 mr.reshape(-1), vr.reshape(-1), bc1, bc2)
                    p.data[rows], m[rows], v[rows] = pr, mr, vr
                    continue
                del self._live[name]
            flat = p.data.reshape(-1)            # a copy only if p is not C-contiguous
            self._update(flat, g.reshape(-1), m.reshape(-1), v.reshape(-1), bc1, bc2)
            if not p.data.flags.c_contiguous:
                p.data[...] = flat.reshape(p.data.shape)

    def _step_small(self, dtype: np.dtype, group: List[Tuple[str, Tensor, np.ndarray]],
                    bc1: float, bc2: float) -> None:
        """One pass over ``group``, the parameters of one dtype below one block."""
        layout = tuple((name, p.data.shape) for name, p, _ in group)
        arena = self._arenas.get(dtype)
        if arena is None or arena.layout != layout:
            arena = self._arenas[dtype] = _Arena(layout, dtype, (self.m, self.v))
        flat = np.concatenate([p.data for _, p, _ in group], axis=None)
        self._update(flat, np.concatenate([g for _, _, g in group], axis=None),
                     arena.m, arena.v, bc1, bc2)
        for (_, p, _), (cut, shape) in zip(group, arena.cuts):
            p.data[...] = flat[cut].reshape(shape)

    def _update(self, p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                bc1: float, bc2: float) -> None:
        """One Adam update of the flat arrays p, m and v in place, slice by slice."""
        size = min(p.size, _BLOCK)
        scratch = self._scratch.get(p.dtype)
        if scratch is None or scratch[0].size < size:
            scratch = self._scratch[p.dtype] = (np.empty(size, dtype=p.dtype),
                                                np.empty(size, dtype=p.dtype))
        for lo in range(0, p.size, _BLOCK):
            hi = lo + _BLOCK
            pb, gb, mb, vb = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s, u = scratch[0][:pb.size], scratch[1][:pb.size]
            mb *= self.beta1
            np.multiply(gb, 1.0 - self.beta1, out=s)
            mb += s
            vb *= self.beta2
            np.multiply(gb, 1.0 - self.beta2, out=s)
            s *= gb
            vb += s
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(vb, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(mb, bc1, out=u)
            u *= self.lr
            u /= s
            pb -= u


class _Arena:
    """One flat m and v for one dtype's small parameters, in ``layout`` order.

    Takes over each parameter's m and v from ``moments``, the optimizer's
    two dicts, which then hold views of the arena; ``cuts`` holds each
    parameter's (slice, shape).
    """

    def __init__(self, layout: Tuple[Tuple[str, tuple], ...], dtype: np.dtype,
                 moments: Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]):
        sizes = [int(np.prod(shape)) for _, shape in layout]
        self.layout = layout
        self.m = np.zeros(sum(sizes), dtype=dtype)
        self.v = np.zeros(sum(sizes), dtype=dtype)
        self.cuts: List[Tuple[slice, tuple]] = []
        lo = 0
        for (name, shape), size in zip(layout, sizes):
            cut = slice(lo, lo + size)
            lo += size
            for state, flat in zip(moments, (self.m, self.v)):
                old = state.get(name)
                if old is not None and old.shape == shape:
                    flat[cut] = old.reshape(-1)
                state[name] = flat[cut].reshape(shape)
            self.cuts.append((cut, shape))


class SGD:
    """Plain gradient descent; the REINFORCE policy update."""

    def __init__(self, lr: float = 1e-2):
        self.lr = lr

    def step(self, params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray]) -> None:
        for p, g in zip(params.values(), _checked_grads(params, grads)):
            p.data -= self.lr * g
