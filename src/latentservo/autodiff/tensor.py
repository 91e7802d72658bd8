"""Reverse-mode automatic differentiation over dense numpy tensors.

A ``Tape`` records every differentiable operation in creation order (which
is already a topological order), and ``Tape.backward`` walks the record
once in reverse.  Storage and compute are float32; reductions accumulate
in float64 and ops promote to float64 when any input is float64, which is
what the gradient checker relies on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32


class _TapeStack(threading.local):
    """Each thread's stack of active tapes, made empty on the thread's first use."""

    def __init__(self):
        self.tapes = []


_state = _TapeStack()


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class GraphError(RuntimeError):
    """Backward-pass contract violation (non-scalar loss, reused tape...)."""


def _coerce(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


class Tensor:
    """Dense tensor: row-major float data plus a gradient-tracking flag."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


@dataclass
class Tape:
    """Ordered computation record: one ``(inputs, output, backward, name)``
    entry per op, after the entries that made its inputs. ``backward`` maps
    the output gradient to one gradient per input (``None`` for an input
    that needs none)."""

    nodes: list = field(default_factory=list)
    _used: bool = False

    def __enter__(self) -> "Tape":
        _state.tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _state.tapes.pop()

    def backward(self, loss: Tensor) -> dict:
        """Accumulate d(loss)/d(tensor) for every tensor on the tape.

        Returns a map keyed by ``id(tensor)``.  Each entry is visited exactly
        once.  Tensors with no path to the loss simply never appear in the
        map (their total derivative is zero).
        """
        if self._used:
            raise GraphError("tape already consumed by a backward pass")
        if loss.data.size != 1:
            raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._used = True

        grads: dict = {id(loss): np.ones_like(loss.data)}
        for inputs, output, bwd, name in reversed(self.nodes):
            g_out = grads.get(id(output))
            if g_out is None:
                continue
            for inp, g in zip(inputs, bwd(g_out)):
                if g is None:
                    continue
                if not np.isfinite(g).all():
                    raise GraphError(f"non-finite gradient out of op '{name}'")
                key = id(inp)
                grads[key] = grads[key] + g if key in grads else g
        return grads


def _record(output: Tensor, inputs: tuple, backward, name: str) -> Tensor:
    stack = _state.tapes
    if stack and any(i.requires_grad for i in inputs):
        output.requires_grad = True
        stack[-1].nodes.append((inputs, output, backward, name))
    return output


def backward(loss: Tensor, params: dict) -> dict:
    """Run the active tape's backward pass from ``loss``.

    Returns name -> gradient for ``params`` (name -> Tensor), with zeros
    for parameters that did not influence the loss.
    """
    if not _state.tapes:
        raise GraphError("backward called with no active Tape")
    grads = _state.tapes[-1].backward(loss)
    out = {}
    for name, p in params.items():
        g = grads.get(id(p))
        out[name] = np.zeros_like(p.data) if g is None else g.astype(p.data.dtype, copy=False)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcasting(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a.data, b.data)``, with numpy's broadcast failure as a ShapeError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------- primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcasting("add", np.add, a, b))
    need_ga, need_gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if need_ga else None,
                _unbroadcast(g, b.shape) if need_gb else None)

    return _record(out, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcasting("sub", np.subtract, a, b))
    need_ga, need_gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a.shape) if need_ga else None,
                _unbroadcast(-g, b.shape) if need_gb else None)

    return _record(out, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcasting("mul", np.multiply, a, b))
    need_ga, need_gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if need_ga else None,
                _unbroadcast(g * a.data, b.shape) if need_gb else None)

    return _record(out, (a, b), bwd, "mul")


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,), "scale")


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,), "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,), "log")


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    return _record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),), "tanh")


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))
    return _record(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def sigmoid(a: Tensor) -> Tensor:
    # numerically safe two-sided form without boolean masks: e = exp(-|x|)
    # is exp(-x) where x >= 0 (-0.0 included) and exp(x) where x < 0
    x = a.data
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = Tensor(np.where(x >= 0, 1.0 / d, e / d))
    return _record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),), "sigmoid")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    need_ga, need_gb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (g @ b.data.T if need_ga else None,
                a.data.T @ g if need_gb else None)

    return _record(out, (a, b), bwd, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),), "reshape")


def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum(dtype=np.float64), dtype=a.data.dtype))
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype),), "sum")


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.asarray(a.data.mean(dtype=np.float64), dtype=a.data.dtype))

    def bwd(g):
        return (np.broadcast_to(g, a.shape) / n).astype(a.data.dtype),

    return _record(out, (a,), bwd, "mean")


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    out = Tensor(np.asarray(np.mean(diff.astype(np.float64) ** 2), dtype=diff.dtype))
    need_ga, need_gb = a.requires_grad, b.requires_grad

    def bwd(g):
        scale_g = g * (2.0 / n)
        return (scale_g * diff if need_ga else None,
                -scale_g * diff if need_gb else None)

    return _record(out, (a, b), bwd, "mse")


def gaussian_kl(mu: Tensor, sigma: Tensor) -> Tensor:
    """KL( N(mu, diag sigma^2) || N(0, I) ) = 0.5 * sum(mu^2 + sigma^2 - ln sigma^2 - 1)."""
    if mu.shape != sigma.shape:
        raise ShapeError(f"gaussian_kl: shapes differ, {mu.shape} vs {sigma.shape}")
    if np.any(sigma.data <= 0):
        raise ValueError("gaussian_kl: sigma must be strictly positive")
    m = mu.data.astype(np.float64)
    s = sigma.data.astype(np.float64)
    val = 0.5 * np.sum(m * m + s * s - np.log(s * s) - 1.0)
    out = Tensor(np.asarray(val, dtype=mu.data.dtype))

    def bwd(g):
        return g * mu.data, g * (sigma.data - 1.0 / sigma.data)

    return _record(out, (mu, sigma), bwd, "gaussian_kl")
