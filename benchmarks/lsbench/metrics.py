"""Metric names and units, and the per-layer figures of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the names and units that
``BENCHMARK.json`` declares; a test keeps the two in step.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence

from .helpers import Span, layer_of, layer_self_times, percentile

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
}

STAGES = ["demo-gen", "train", "taskmap", "factors", "alpha-sweep", "fieldmap",
          "embodiment", "servo", "reinforce", "evaluate", "report"]
PHASES = ["cold", "warm", "reinforce_edit"]
LAYERS = ["autodiff", "representations", "toyenv", "analysis", "control", "cli"]


def _per_layer() -> Dict[str, str]:
    names = {}
    for span in ("autodiff.backward", "autodiff.adam_step", "representations.loss",
                 "representations.encode", "toyenv.render", "toyenv.step",
                 "control.sensor", "control.act", "control.observe",
                 "control.reinforce_update"):
        names[f"{span}.s"] = "s"
        names[f"{span}.calls"] = "count"
    names.update({
        "representations.encode.frames": "count",
        "representations.encode.frames_per_call": "frames/call",
        "representations.fit.bvae.s": "s",
        "representations.fit.sae.s": "s",
        "control.sensor.states": "count",
        "control.sensor.us_p50": "us",
        "control.sensor.us_p99": "us",
        "control.sensor.samples": "count",
        "control.episodes": "count",
        "control.env_steps": "count",
        "control.aborted": "count",
        "analysis.field_map.s": "s",
        "analysis.field_map.cells": "count",
        "analysis.factors.s": "s",
        "analysis.alpha_sweep.s": "s",
    })
    for layer in LAYERS:
        names[f"{layer}.self_s"] = "s"
    for phase in PHASES:
        for stage in STAGES:
            names[f"cli.{phase}.stage.{stage}.s"] = "s"
        names[f"cli.{phase}.stages_run"] = "count"
        names[f"cli.{phase}.stages_skipped"] = "count"
        names[f"cli.{phase}.cache_hit_ratio"] = "ratio"
        names[f"cli.{phase}.bytes_written"] = "B"
        names[f"cli.{phase}.files_written"] = "count"
    names["trace.overhead_pct"] = "%"
    names["trace.spans"] = "count"
    return names


PER_LAYER = _per_layer()


def _has_control_ancestor(spans: Sequence[Span], i: int) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if layer_of(spans[parent][0]) == "control":
            return True
        parent = spans[parent][3]
    return False


def per_layer(spans: Sequence[Span], counts: Dict[str, int], rounds: int,
              phases: Sequence[Dict[str, dict]], overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric, per traced round; 0 where a layer did no work.

    ``phases`` holds the pipeline phase records of the traced rounds.
    """
    out = {name: 0.0 for name in PER_LAYER}
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, start, end, parent, run in spans:
        total[name] += end - start
        calls[name] += 1
    for name in list(out):
        base, _, kind = name.rpartition(".")
        if kind == "s" and base in total:
            out[name] = total[base] / rounds
        elif kind == "calls" and base in calls:
            out[name] = calls[base] / rounds
    for layer, own in layer_self_times(spans).items():
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] = own / rounds

    frames = counts.get("representations.encode", 0)
    out["representations.encode.frames"] = frames / rounds
    if calls["representations.encode"]:
        out["representations.encode.frames_per_call"] = (
            frames / calls["representations.encode"])
    out["analysis.field_map.cells"] = counts.get("analysis.field_map", 0) / rounds
    out["control.sensor.states"] = counts.get("control.sensor", 0) / rounds
    sensor_us = [(end - start) * 1e6 for name, start, end, _, _ in spans
                 if name == "control.sensor"]
    if sensor_us:
        out["control.sensor.us_p50"] = percentile(sensor_us, 50)[0]
        out["control.sensor.us_p99"], out["control.sensor.samples"] = \
            percentile(sensor_us, 99)
    out["control.episodes"] = (calls["control.episode"] + calls["control.rollout"]) / rounds
    out["control.env_steps"] = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "toyenv.step" and _has_control_ancestor(spans, i)) / rounds
    out["control.aborted"] = counts.get("control.aborted", 0) / rounds

    for phase in PHASES:
        records = [p[phase] for p in phases if phase in p]
        if not records:
            continue
        n = len(records)
        for stage in STAGES:
            out[f"cli.{phase}.stage.{stage}.s"] = sum(
                r["stage_s"][stage] for r in records) / n
        run = sum(r["run"] for r in records) / n
        skipped = sum(r["skipped"] for r in records) / n
        out[f"cli.{phase}.stages_run"] = run
        out[f"cli.{phase}.stages_skipped"] = skipped
        # Every stage invocation logs a run or a skip, or the round fails.
        out[f"cli.{phase}.cache_hit_ratio"] = skipped / max(run + skipped, 1)
        out[f"cli.{phase}.bytes_written"] = sum(r["bytes_written"] for r in records) / n
        out[f"cli.{phase}.files_written"] = sum(r["files_written"] for r in records) / n

    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans"] = len(spans) / rounds
    return out
