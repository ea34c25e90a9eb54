#!/usr/bin/env python3
"""DexBench: end-to-end and per-layer measurement of the DeX simulator.

    python3 dexbench/run.py --workload pingpong --seed 42 --seconds 40 --trace 0

Runs whole passes of one workload (workloads.py) for ``--seconds``, checks
every answer, prints each metric by name with its unit,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no profiler:
host set-up and timed-phase seconds (medians over the passes), peak RSS,
and the simulated mean time per operation.  ``--trace 1`` reports the
per-layer metrics: exact work counts from one untraced pass, then host
self seconds per layer from a second pass under cProfile, plus the
tracing overhead (traced minus untraced timed-phase seconds).

Every pass of one run uses the same seed, so all of them must produce
identical simulated results; a pass that does not, or any wrong answer,
makes the run fail (exit status 1).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from workloads import DEFAULT_SEED, WORKLOADS  # first: puts the program on sys.path
from layers import LAYERS, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
#: metric name -> unit, for both metric sets of BENCHMARK.json
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_pass(workload: str, seed: int, profile: bool = False):
    """One pass: (outcome, recorder, setup seconds)."""
    gc.collect()
    recorder = Recorder(profile=profile)
    start = time.perf_counter()
    with recorder:
        outcome = WORKLOADS[workload](seed)
    total = time.perf_counter() - start
    return outcome, recorder, total - recorder.run_s - recorder.own_s


def sim_signature(outcome, recorder) -> Tuple:
    """Everything a pass computes in simulated time or counts."""
    return (outcome.sim_op_us, sorted(outcome.details.items()),
            sorted(outcome.serve.items()), sorted(recorder.counts().items()))


def end_to_end(workload: str, seed: int, seconds: float):
    start = time.perf_counter()
    passes = []
    # whole passes while one more still fits in the run, so a run lasts
    # about `seconds` however long a pass takes on this machine
    while not passes or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds):
        passes.append(run_pass(workload, seed))
    outcome = passes[0][0]
    metrics = {
        "setup_s": statistics.median(setup for (_, _, setup) in passes),
        "run_s": statistics.median(rec.run_s for (_, rec, _) in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_op_us": outcome.sim_op_us,
    }
    return passes, metrics


def per_layer(workload: str, seed: int):
    plain = run_pass(workload, seed)
    traced = run_pass(workload, seed, profile=True)
    outcome, recorder, _ = plain
    metrics: Dict[str, float] = dict(recorder.counts())
    metrics.update(outcome.serve)
    traced_run_s = traced[1].run_s
    by_layer = traced[1].self_time_by_layer()
    for layer in LAYERS:
        metrics[f"host_self_s.{layer}"] = by_layer[layer]
    metrics["host_self_s.unattributed"] = traced_run_s - sum(by_layer.values())
    metrics["trace_overhead_s"] = traced_run_s - recorder.run_s
    return [plain, traced], metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seed < 0:
        parser.error("--seed must be non-negative")

    if ns.trace:
        passes, metrics = per_layer(ns.workload, ns.seed)
    else:
        passes, metrics = end_to_end(ns.workload, ns.seed, ns.seconds)
    attempted = sum(outcome.attempted for (outcome, _, _) in passes)
    failed = sum(outcome.failed for (outcome, _, _) in passes)
    signatures = {repr(sim_signature(outcome, rec)) for (outcome, rec, _) in passes}
    deterministic = len(signatures) == 1
    correct = failed == 0 and deterministic

    outcome = passes[0][0]
    print(f"# {ns.workload} seed={ns.seed} passes={len(passes)} "
          f"trace={ns.trace} deterministic={deterministic}")
    for i, (_, rec, setup) in enumerate(passes):
        print(f"pass {i} setup_s = {setup!r} run_s = {rec.run_s!r}")
    for name, value in sorted(outcome.details.items()):
        print(f"detail {name} = {value!r}")
    expected = SPEC["per_layer" if ns.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in expected}:
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {UNITS[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
