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


class Adam:
    """Adaptive-moment estimation with bias correction.

    Keeps per-parameter first/second moment accumulators keyed by
    parameter name; accumulators always match their parameter's shape.
    The update runs in place through two scratch arrays per parameter, in
    the operation order of Kingma & Ba (2015), Algorithm 1; another order
    changes the low bits of trained weights.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        self._scratch: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray]) -> None:
        checked = _checked_grads(params, grads)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for (name, p), g in zip(params.items(), checked):
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
                self._scratch[name] = (np.empty_like(p.data), np.empty_like(p.data))
            v = self.v[name]
            s, u = self._scratch[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=u)
            u *= self.lr
            u /= s
            p.data -= u


class SGD:
    """Plain gradient descent; the REINFORCE policy update."""

    def __init__(self, lr: float = 1e-2):
        self.lr = lr

    def step(self, params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray]) -> None:
        for p, g in zip(params.values(), _checked_grads(params, grads)):
            p.data -= self.lr * g
