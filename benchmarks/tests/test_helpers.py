"""Tests of the benchmark's own helpers; run with ``pytest benchmarks/tests``."""

import configparser
import json
from pathlib import Path

import numpy as np
import pytest

from lsbench.helpers import (DEMO_MARGIN, MIN_AXIS_TRAVEL, MIN_TARGET_DIST, TARGET,
                             demo_starts, layer_self_times, make_ini,
                             percentile, rescaled, self_times)
from lsbench.metrics import END_TO_END, PER_LAYER

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("q", [0, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_and_counts_samples(q):
    values = list(np.random.default_rng(0).exponential(size=137))
    value, n = percentile(values, q)
    assert n == 137
    assert value == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_children():
    spans = [
        ("cli.stage.train", 0.0, 10.0, -1, 0),
        ("representations.fit.sae", 1.0, 6.0, 0, 0),
        ("autodiff.backward", 2.0, 3.0, 1, 0),
        ("autodiff.adam_step", 3.5, 4.0, 1, 0),
        ("toyenv.render", 7.0, 8.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.5, 1.0, 0.5, 1.0])
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 4.0, "representations": 3.5, "autodiff": 1.5, "toyenv": 1.0})


def test_rescaled_scales_rates_and_times_and_leaves_the_rest():
    figures = {"train.sae.samples_per_s": 100.0, "pipeline.cold_s": 3.0,
               "train.sae.final_loss": 0.5, "control.uvs.success_rate": 0.9}
    assert rescaled(figures, 1.5) == pytest.approx(
        {"train.sae.samples_per_s": 150.0, "pipeline.cold_s": 2.0,
         "train.sae.final_loss": 0.5, "control.uvs.success_rate": 0.9})


def _busy(cpu_s):
    from lsbench.speed import cpu_time

    t0, x = cpu_time(), 0
    while cpu_time() - t0 < cpu_s:
        x += sum(range(1000))


def test_gauge_keeps_reference_runs_out_of_the_program_time():
    from lsbench.speed import EVERY_S, REFERENCE_S, Gauge, cpu_time

    gauge = Gauge()
    mark = gauge.mark()
    with gauge.timing():
        _busy(10 * EVERY_S)
    total = cpu_time() - mark[0]
    program = gauge.cpu_since(mark)
    assert gauge.samples and gauge.spent >= sum(gauge.samples)
    assert program == pytest.approx(total - gauge.spent, abs=1e-3)
    slowdown = gauge.slowdown_since(mark)
    assert slowdown == pytest.approx(
        sum(gauge.samples) / len(gauge.samples) / REFERENCE_S)
    runs = len(gauge.samples)
    _busy(5 * EVERY_S)
    assert len(gauge.samples) == runs       # no timer outside ``timing``
    # A child's account: its reference time leaves the program's CPU time.
    mark = gauge.mark()
    gauge.absorb(0.5, [2 * REFERENCE_S] * 4)
    assert gauge.cpu_since(mark) == pytest.approx(-0.5, abs=1e-3)
    assert gauge.slowdown_since(mark) == pytest.approx(2.0)


def _sections(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {s: set(parser[s]) for s in parser.sections()}


def test_ini_is_seeded_and_has_the_shape_of_tiny():
    ini = make_ini(5, "scratch/run")
    assert ini == make_ini(5, "scratch/run")
    assert ini != make_ini(6, "scratch/run")
    tiny = (REPO / "tests" / "data" / "tiny.ini").read_text()
    assert _sections(ini) == _sections(tiny)


def test_ini_loads_and_the_edit_changes_only_the_reinforce_learning_rate(tmp_path):
    from latentservo.cli.config import load_config

    path = tmp_path / "a.ini"
    path.write_text(make_ini(3, str(tmp_path / "run")))
    base = load_config(path)
    assert base.out_dir == tmp_path / "run"
    assert [tuple(s) for s in base.demos.starts] == demo_starts(3, 2)
    path.write_text(make_ini(3, str(tmp_path / "run"), reinforce_lr=2e-4))
    edited = load_config(path)
    assert edited.reinforce.learning_rate == 2e-4
    edited.reinforce.learning_rate = base.reinforce.learning_rate
    assert edited.digest() == base.digest()


def test_demo_starts_keep_clear_of_the_target():
    for seed in range(20):
        for x, y in demo_starts(seed, 3):
            assert DEMO_MARGIN <= x <= 1 - DEMO_MARGIN
            assert DEMO_MARGIN <= y <= 1 - DEMO_MARGIN
            dx, dy = abs(x - TARGET[0]), abs(y - TARGET[1])
            assert np.hypot(dx, dy) >= MIN_TARGET_DIST
            assert min(dx, dy) >= MIN_AXIS_TRAVEL


def test_tracer_rebinds_callers_and_restores_them():
    import latentservo.control.sensors as sensors
    from latentservo.toyenv import TaskSpec, WorldState, render
    from lsbench.tracing import Tracer

    tracer = Tracer()
    tracer.install(run_id=7)
    try:
        assert sensors.render is not render
        sensors.render(WorldState(), TaskSpec())
    finally:
        tracer.uninstall()
    assert sensors.render is render
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("toyenv.render", -1, 7)]


def test_benchmark_json_declares_the_metrics_the_code_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
