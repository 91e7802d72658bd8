#!/usr/bin/env python3
"""latentservo benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload {train,control,pipeline} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
End-to-end times and rates are the program's CPU time rescaled by the
slowdown that a fixed reference computation measured in the same stretch
of the run (``lsbench/speed.py``); the unscaled CPU figures are kept in
the detail line. The lines before it record the machine and libraries and the workload's
detailed figures; the same record, and the spans of a traced run, are
written under ``benchmarks/out/``. Exit code 0 means every correctness
check passed; 1 means a check failed; 2 means the program could not be
found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# BLAS and field-map threads of the benchmark's own process: one thread
# keeps the figures steady and stays within any machine's core count.
THREADS = 1
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "LATENTSERVO_THREADS"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "control", "pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall-clock seconds of timed rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    import latentservo

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREADS,
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
        "latentservo": latentservo.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    from lsbench.helpers import median, rescaled
    from lsbench.metrics import END_TO_END, PER_LAYER, per_layer
    from lsbench.speed import Gauge
    from lsbench.tracing import Tracer
    from lsbench.workloads import WORKLOADS

    tracer, gauge = Tracer(), Gauge()
    cls = WORKLOADS[args.workload]
    if args.workload == "pipeline":
        workload = cls(args.seed, tracer, gauge, OUT_DIR)
    else:
        workload = cls(args.seed, tracer, gauge)

    setups = []

    def setup() -> None:
        mark = gauge.mark()
        with gauge.timing():
            workload.setup()
        cpu_s = gauge.cpu_since(mark)
        setups.append((cpu_s, gauge.slowdown_since(mark)))

    try:
        setup()
        # A traced round alternates with untraced ones, so the run measures
        # its own tracing overhead.
        min_rounds = max(workload.min_rounds, 2 if args.trace else 1)
        rounds, traced, slowdowns = [], [], []
        wall0 = last = time.perf_counter()
        longest = 0.0
        # Start another round only if one as long as the longest so far
        # still ends within --seconds.
        while len(rounds) < min_rounds or last - wall0 + longest <= args.seconds:
            # Further set-ups are spread evenly over the run, so that they
            # meet the same contention from other guests as the rounds.
            while (len(setups) < workload.setup_repeats and last - wall0
                   >= len(setups) * args.seconds / workload.setup_repeats):
                setup()
            trace_this = bool(args.trace) and len(rounds) % 2 == 1
            if args.trace:
                # No reference runs in a traced run: spans hold the program's
                # work alone, and the untraced rounds it compares them with
                # meet the same caches.
                if trace_this:
                    tracer.install(run_id=len(rounds))
                try:
                    rounds.append(workload.round())
                finally:
                    tracer.uninstall()
                slowdowns.append(1.0)
            else:
                mark = gauge.mark()
                with gauge.timing():
                    rounds.append(workload.round())
                slowdowns.append(gauge.slowdown_since(mark))
            traced.append(trace_this)
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
        wall_s = last - wall0
        problems = [p for r in rounds for p in r.problems]
        problems += workload.final_checks(rounds)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    plain = [(r, k) for r, k, t in zip(rounds, slowdowns, traced) if not t]
    details = [rescaled(r.detail, k) for r, k in plain]
    detail = {key: median([d[key] for d in details if key in d])
              for key in sorted({k for d in details for k in d})}
    detail.update({
        "rounds": len(rounds), "timed_wall_s": wall_s,
        "timed_cpu_s": sum(r.cpu_s for r in rounds),
        "reference_cpu_s": gauge.spent,
        "cpu_throughput_per_s": median([r.units / r.cpu_s for r, _ in plain]),
        "round_cpu_s": [r.cpu_s for r in rounds], "round_slowdown": slowdowns,
        "setup_cpu_s": [cpu_s for cpu_s, _ in setups],
        "setup_slowdown": [k for _, k in setups], "unit": workload.unit})
    if args.trace:
        with_trace = [r for r, t in zip(rounds, traced) if t]
        overhead = (median([r.cpu_s for r in with_trace])
                    / median([r.cpu_s for r, _ in plain]) - 1.0) * 100.0
        values = per_layer(tracer.spans, tracer.counts, len(with_trace),
                           [r.phases for r in with_trace], overhead)
        units = PER_LAYER
    else:
        values = {
            "setup_s": median([cpu_s / k for cpu_s, k in setups]),
            "peak_rss_mb": peak_rss_mib(),
            "throughput_per_s": median([r.units * k / r.cpu_s for r, k in plain]),
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "problems": problems,
        "detail": detail,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latentservo" / "__init__.py").is_file():
        print(f"latentservo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    print(json.dumps({"environment": env}))
    OUT_DIR.mkdir(exist_ok=True)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if args.trace:
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run"], "spans": spans}))
    problems = result.pop("problems")
    detail = result.pop("detail")
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"environment": env, "args": vars(args), "detail": detail,
         "problems": problems, **result}, indent=1))
    print(json.dumps({"detail": detail}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
