"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` swaps each traced function for a wrapper in every
latentservo module that holds a binding to it (``from x import f`` copies
the binding, so patching only the defining module would miss callers),
and swaps traced methods on their classes. ``Tracer.uninstall`` puts the
originals back, so untraced rounds run the program unmodified.

Spans are timed with the CPU clock of the main thread, like every figure
of the benchmark: the benchmark pins the program to one thread
(``LATENTSERVO_THREADS=1``, BLAS threads 1). They are kept in memory and
written out when the run ends. The span stack is a single list.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, List, Optional

from .helpers import Span

clock = time.thread_time


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self.run_id = -1
        self._stack: List[int] = []
        self._undo: list = []

    # ------------------------------------------------------------ recording

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` traced as ``name``; ``count(args, kwargs)`` adds to
        ``counts[name]`` and ``after(result)`` inspects the return value."""
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] += count(args, kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` to ``replacement`` in every latentservo module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("latentservo"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original))
        self._undo.append((cls, attr, original))

    def install(self, run_id: int) -> None:
        """Start a traced round: patch every layer boundary."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        self.active = True
        for original, replacement in _function_patches(self):
            self.patch_function(original, replacement)
        for cls, attr, name in _method_patches():
            self.patch_method(cls, attr, name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.active = False


class CountingSensor:
    """Sensor wrapper that counts the states it senses.

    A state is a ``WorldState`` (one state) or a stack of positions (one
    state per row), so a batched sensor contract keeps the same unit.
    While a tracer is active, each reading is also a ``control.sensor`` span.
    """

    def __init__(self, base: Callable, tracer: Optional[Tracer] = None):
        self.base = base
        self.tracer = tracer
        self.states = 0

    def __call__(self, state):
        n = 1 if hasattr(state, "position") else len(state)
        self.states += n
        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.counts["control.sensor"] += n
            return tracer.call("control.sensor", self.base, state)
        return self.base(state)


def _frames(args, kwargs) -> int:
    images = args[1] if len(args) > 1 else kwargs["images"]
    return 1 if images.ndim == 2 else images.shape[0]


def _cells(args, kwargs) -> int:
    grid_n = args[2] if len(args) > 2 else kwargs["grid_n"]
    return grid_n * grid_n


def _function_patches(tracer: Tracer):
    # The packages re-export functions under their modules' names
    # (``representations.train`` is the function), so look modules up
    # by their full names.
    (embodiment, factors, fieldmap, taskmap, loop, reinforce, sensors, models,
     train, task) = (importlib.import_module(f"latentservo.{name}") for name in (
        "analysis.embodiment", "analysis.factors", "analysis.fieldmap",
        "analysis.taskmap", "control.loop", "control.reinforce",
        "control.sensors", "representations.models", "representations.train",
        "toyenv.task"))
    fit_fn = train.train

    def fit(spec, *args, **kwargs):
        return tracer.call(f"representations.fit.{spec.method.value}",
                           fit_fn, spec, *args, **kwargs)

    def episode_done(result) -> None:
        if result.aborted:
            tracer.counts["control.aborted"] += 1

    def counted_sensor(make):
        def build(*args, **kwargs):
            return CountingSensor(make(*args, **kwargs), tracer)
        return build

    w = tracer.wrap
    return [
        (models.loss, w("representations.loss", models.loss)),
        (models.encode_batch, w("representations.encode", models.encode_batch,
                                count=_frames)),
        (fit_fn, fit),
        (task.render, w("toyenv.render", task.render)),
        (task.step, w("toyenv.step", task.step)),
        (fieldmap.build_field_map, w("analysis.field_map", fieldmap.build_field_map,
                                     count=_cells)),
        (factors.extract_time_varying, w("analysis.factors",
                                         factors.extract_time_varying)),
        (factors.select_control_factors, w("analysis.factors",
                                           factors.select_control_factors)),
        (factors.alpha_score, w("analysis.alpha_sweep", factors.alpha_score)),
        (taskmap.build_task_map, w("analysis.task_map", taskmap.build_task_map)),
        (embodiment.embodiment_compare, w("analysis.embodiment",
                                          embodiment.embodiment_compare)),
        (loop.evaluate_success, w("control.evaluate", loop.evaluate_success)),
        (loop.control_loop, w("control.episode", loop.control_loop,
                              after=episode_done)),
        (reinforce.train_policy, w("control.train_policy", reinforce.train_policy)),
        (reinforce.rollout, w("control.rollout", reinforce.rollout)),
        (reinforce.reinforce_update, w("control.reinforce_update",
                                       reinforce.reinforce_update)),
        (reinforce.sample_action, w("control.act", reinforce.sample_action)),
        (sensors.model_sensor, counted_sensor(sensors.model_sensor)),
        (sensors.oracle_sensor, counted_sensor(sensors.oracle_sensor)),
    ]


def _method_patches():
    from latentservo.autodiff.optim import Adam
    from latentservo.autodiff.tensor import Tape
    from latentservo.control.reinforce import GuidedReinforceController
    from latentservo.control.uvs import UVSController

    return [
        (Tape, "backward", "autodiff.backward"),
        (Adam, "step", "autodiff.adam_step"),
        (UVSController, "act", "control.act"),
        (UVSController, "observe", "control.observe"),
        (GuidedReinforceController, "act", "control.act"),
        (GuidedReinforceController, "observe", "control.observe"),
    ]
