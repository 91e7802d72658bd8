"""Machine speed, measured by a fixed computation run between pieces of the
program's work.

The benchmark runs on a few cores of a shared host. Other guests change how
much work a CPU second buys, over seconds and over minutes, by tens of
percent, and CPU time books that loss as the program's own cost. Inside
``Gauge.timing`` a CPU-time timer (``ITIMER_PROF``) interrupts the program
every ``EVERY_S`` CPU seconds, and the signal handler runs a short fixed
computation, the reference, and keeps its CPU time apart from the
program's. A child process that runs program work runs a gauge of its own
and hands its account to the parent's (``Gauge.absorb``). The reference does the kinds of work the program does:
frame-sized convolution and softmax driven from a Python loop, as in
sensing, a batch-sized matrix product and gathers from a table larger than
the cache, as in training, and bare interpreter work. The figures
divide the program's CPU time by the slowdown, the reference's mean CPU
time in the same stretch of the run over its nominal time ``REFERENCE_S``;
a spell in which the machine runs slow then slows both alike and leaves
the figure where it was.

The reference is the benchmark's own code and never calls latentservo, so a
change to the program moves the figures and never the reference. The
signal handler runs between two bytecodes of the main thread; it changes
no state of the program.

While a process-wide CPU timer is armed, Linux reads the process CPU clock
only at scheduler ticks (every 4 ms at ``HZ=250``); the thread CPU clock
stays exact. The benchmark pins the program to one thread, so it times the
main thread (``tracing.clock``) plus any child processes that ended.
"""

from __future__ import annotations

import contextlib
import resource
import signal
from typing import Iterator, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tracing import clock

# Nominal CPU seconds of one reference run: about its median between
# pieces of program work on a 2-vCPU KVM guest of a Xeon (Sapphire Rapids)
# host, numpy with OpenBLAS on one thread. Figures are CPU seconds
# rescaled to a machine that runs the reference this fast.
REFERENCE_S = 3.0e-3
# CPU seconds between two reference runs.
EVERY_S = 0.03

Mark = Tuple[float, float, int]


def cpu_time() -> float:
    """CPU seconds of this process and of its child processes that ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return clock() + children.ru_utime + children.ru_stime


def _add(a: int, b: int) -> int:
    return a + b


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._frame = rng.random((32, 32), dtype=np.float32)
        self._kernels = rng.standard_normal((8, 3, 3), dtype=np.float32)
        self._fc = rng.standard_normal((16, 8), dtype=np.float32)
        self._batch = rng.standard_normal((16, 1024), dtype=np.float32)
        self._weights = rng.standard_normal((1024, 256), dtype=np.float32) * 0.03
        # 8 MB, about the BVAE's parameters with their Adam moments.
        self._table = rng.random(1 << 21, dtype=np.float32)
        self._picks = rng.integers(0, 1 << 21, 30000)
        self._busy = False
        self.samples: List[float] = []  # CPU seconds of each reference run
        self.spent = 0.0                # CPU seconds spent in reference runs

    def reference(self) -> float:
        """Three parts, each of which tracked the program's speed on one
        workload better than the others: small array work driven from
        Python with a batch-sized matrix product, gathers from a table
        larger than the cache, and bare interpreter work."""
        total = 0.0
        for k in range(3):
            patches = sliding_window_view(self._frame + 0.01 * k, (3, 3))
            maps = np.maximum(np.tensordot(self._kernels, patches, axes=([1, 2], [2, 3])), 0)
            flat = maps.reshape(8, -1)
            soft = np.exp(flat - flat.max(axis=1, keepdims=True))
            soft /= soft.sum(axis=1, keepdims=True)
            grid = soft.reshape(maps.shape)
            coords = np.concatenate([grid.sum(axis=1) @ np.linspace(-1, 1, 30),
                                     grid.sum(axis=2) @ np.linspace(-1, 1, 30)])
            z = np.tanh(coords.astype(np.float32) @ self._fc)
            record = {"k": k, "z": [float(v) for v in z]}
            total += sum(record["z"])
        hidden = np.maximum(self._batch @ self._weights, 0)
        grad = self._batch.T @ hidden
        total += float(grad[0, 0]) + float(self._table[self._picks].sum())
        count, seen = 0, {}
        for i in range(1500):
            count = _add(count, i & 7)
            seen[i & 63] = count
        return total + count + len(seen)

    @contextlib.contextmanager
    def timing(self) -> Iterator[None]:
        """Inside the block a CPU-time timer interrupts the program every
        ``EVERY_S`` CPU seconds to run the reference."""
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._run()

    def _run(self) -> None:
        self._busy = True
        t0 = clock()
        self.reference()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def absorb(self, spent: float, samples: List[float]) -> None:
        """Take over the account of a child process's gauge: ``spent`` CPU
        seconds that were not the program's, its gauge's set-up included,
        and the reference times it measured."""
        self.spent += spent
        self.samples.extend(samples)

    def mark(self) -> Mark:
        self._busy = True
        mark = cpu_time(), self.spent, len(self.samples)
        self._busy = False
        return mark

    def cpu_since(self, mark: Mark) -> float:
        """The program's CPU seconds since ``mark``, child processes that
        ended included and reference runs left out."""
        self._busy = True
        cpu_s = cpu_time() - mark[0] - (self.spent - mark[1])
        self._busy = False
        return cpu_s

    def slowdown_since(self, mark: Mark) -> float:
        """Mean reference time since ``mark`` over ``REFERENCE_S``: above 1
        while the machine ran slow. Runs the reference once if it never
        ran since ``mark``."""
        if len(self.samples) == mark[2]:
            self._run()
        samples = self.samples[mark[2]:]
        return sum(samples) / len(samples) / REFERENCE_S
