"""Central-difference verification of reverse-mode gradients.

The check temporarily promotes every parameter to float64 so the finite
differences are not drowned by single-precision rounding; ops propagate
the wider dtype automatically.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .tensor import Tape, Tensor, backward


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor],
                      epsilon: float = 1e-3) -> float:
    """Max over parameter entries of |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|).

    ``loss_fn`` must re-run the forward pass from scratch on each call and
    return the scalar loss; it is evaluated under a fresh tape for the
    reverse-mode gradient and tape-free for the finite differences.
    """
    if not epsilon > 0:
        raise ValueError(f"finite_diff_check: epsilon must be > 0, got {epsilon}")
    saved = {name: p.data for name, p in params.items()}
    try:
        for p in params.values():
            p.data = p.data.astype(np.float64)
        with Tape():
            loss = loss_fn()
            grads = backward(loss, dict(params))
        worst = 0.0
        for name, p in params.items():
            g_ad = grads[name]
            flat = p.data.reshape(-1)
            g_fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                up = loss_fn().item()
                flat[i] = orig - epsilon
                down = loss_fn().item()
                flat[i] = orig
                g_fd[i] = (up - down) / (2.0 * epsilon)
            g_fd = g_fd.reshape(p.data.shape)
            denom = np.maximum(1e-8, np.abs(g_ad) + np.abs(g_fd))
            rel = np.abs(g_ad - g_fd) / denom
            worst = max(worst, float(rel.max()) if rel.size else 0.0)
        return worst
    finally:
        for name, p in params.items():
            p.data = saved[name]
