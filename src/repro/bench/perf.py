"""Engine performance trajectory: measure, record, guard (``BENCH_*.json``).

``python -m repro.bench perf`` times the hot-loop engine on a fixed point
set and writes a machine-readable record:

* ``dispatch_storm`` — raw event-dispatch throughput: four processes each
  yielding a long chain of timeouts, nothing else.  This isolates the
  scheduler (heap + fast lane + dispatch) from all model code.
* ``pagefault_micro`` — the §V-D ping-pong microbenchmark, the repo's
  canonical hot loop (atomic add + compute per iteration).
* three Figure-2 application points (``initial`` variant) — end-to-end
  runs where the engine shares the profile with app and protocol code.

Every point records best-of-N wall-clock *and* CPU time (CPU time is far
more stable on shared machines; the CI guard uses wall with a generous
threshold).  Throughput is reported two ways, because the DexSpeed engine
*collapses* dispatches (inline resume, fire-collapse) and therefore runs
fewer engine events for the same simulated work:

* ``events_per_sec`` — dispatches of *this* engine / wall;
* ``workload_events_per_sec`` — the same workload's **pre-refactor**
  dispatch count / wall.  This is the apples-to-apples "event throughput"
  of the fixed workload and the number the trajectory tracks.

``--quick`` measures a scaled-down point set (seconds, CI-friendly) and,
when a baseline file exists, fails if any point's wall-clock regressed
more than ``--max-regression`` (default 25%).

Each run *appends* a timestamped entry to the document's ``trajectory``
list (capped, oldest dropped) rather than overwriting history, so the
output file accumulates a run-over-run performance record;
``python -m repro.obs diff --bench BENCH_engine.json`` trend-checks it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.experiments import pagefault_micro
from repro.bench.runner import run_point
from repro.knobs import resolve as resolve_knobs
from repro.sim.engine import Engine

#: pre-refactor (pre-DexSpeed) reference, measured on the commit preceding
#: this engine with the identical harness, workloads, and best-of-3
#: methodology, in one session interleaved with the post-refactor runs
#: (CPython 3.11, Linux x86-64).  ``workload_events`` is that engine's
#: dispatch count for the fixed workload — the denominator both engines'
#: ``workload_events_per_sec`` share.
PRE_REFACTOR_REFERENCE: Dict[str, Dict[str, float]] = {
    "dispatch_storm": {
        "wall_s": 3.13, "cpu_s": 3.13,
        "events": 1_000_000, "events_per_sec": 319_679,
    },
    "pagefault_micro": {
        "wall_s": 9.42, "cpu_s": 9.23,
        "events_dispatched": 2_750_233,
        "workload_events": 2_750_233,
        "workload_events_per_sec": 291_957,
    },
    "KMN-initial-8": {"wall_s": 1.303, "cpu_s": 1.278,
                      "elapsed_us": 20618.727},
    "GRP-initial-8": {"wall_s": 0.470, "cpu_s": 0.465,
                      "elapsed_us": 8921.851},
    "BLK-initial-8": {"wall_s": 0.401, "cpu_s": 0.396,
                      "elapsed_us": 4418.511},
}

#: pre-refactor dispatch counts per workload, for workload_events_per_sec
_WORKLOAD_EVENTS = {
    "pagefault_micro": 2_750_233,
}


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, float, object]:
    """Run *fn* *repeats* times; return (best wall, best cpu, last result)."""
    wall_best = cpu_best = float("inf")
    result = None
    for _ in range(repeats):
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = fn()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        wall_best = min(wall_best, wall)
        cpu_best = min(cpu_best, cpu)
    return wall_best, cpu_best, result


def measure_dispatch_storm(
    events: int = 1_000_000, procs: int = 4, repeats: int = 3
) -> Dict[str, float]:
    """Pure scheduler throughput: *procs* chains of timeout yields."""
    per_proc = events // procs
    knobs = resolve_knobs()

    def one_run() -> int:
        engine = Engine(seed=1, fastlane=knobs.engine_fastlane,
                        inline=knobs.engine_inline)

        def chain(n: int = per_proc):
            for _ in range(n):
                yield engine.timeout(0.1)

        for _ in range(procs):
            engine.process(chain())
        engine.run()
        return engine.events_dispatched

    wall, cpu, dispatched = _best_of(one_run, repeats)
    return {
        "events": int(dispatched),
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "events_per_sec": round(dispatched / wall),
    }


def measure_micro(duration_us: float = 100_000.0, repeats: int = 3) -> Dict[str, float]:
    wall, cpu, report = _best_of(lambda: pagefault_micro(duration_us), repeats)
    point = {
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "events_dispatched": report.events_dispatched,
        "events_per_sec": round(report.events_dispatched / wall),
        "lost_updates": report.lost_updates,
    }
    workload = _WORKLOAD_EVENTS.get("pagefault_micro")
    if workload is not None and duration_us == 100_000.0:
        point["workload_events"] = workload
        point["workload_events_per_sec"] = round(workload / wall)
    return point


def measure_app(
    app: str, variant: str, num_nodes: int, repeats: int = 3
) -> Dict[str, float]:
    wall, cpu, result = _best_of(
        lambda: run_point(app, variant, num_nodes), repeats
    )
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "elapsed_us": round(result.elapsed_us, 3),
        "correct": bool(result.correct),
    }


def run_perf(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, Dict]:
    """Measure one point set; ``quick`` shrinks every workload so the whole
    sweep fits in CI seconds (its numbers only compare against other quick
    runs)."""
    if repeats is None:
        repeats = 2 if quick else 3
    points: Dict[str, Dict] = {}
    if quick:
        points["dispatch_storm"] = measure_dispatch_storm(
            events=200_000, repeats=repeats
        )
        points["pagefault_micro"] = measure_micro(
            duration_us=20_000.0, repeats=repeats
        )
        for app in ("KMN", "GRP", "BLK"):
            points[f"{app}-initial-4"] = measure_app(app, "initial", 4, repeats)
    else:
        points["dispatch_storm"] = measure_dispatch_storm(repeats=repeats)
        points["pagefault_micro"] = measure_micro(repeats=repeats)
        for app in ("KMN", "GRP", "BLK"):
            points[f"{app}-initial-8"] = measure_app(app, "initial", 8, repeats)
    return points


def compare(
    current: Dict[str, Dict],
    baseline: Dict[str, Dict],
    max_regression: float = 0.25,
) -> List[str]:
    """Wall-clock trend guard: one line per point that regressed beyond
    *max_regression*; empty when the trend holds."""
    failures = []
    for name, base in baseline.items():
        cur = current.get(name)
        if cur is None or "wall_s" not in base or "wall_s" not in cur:
            continue
        limit = base["wall_s"] * (1.0 + max_regression)
        if cur["wall_s"] > limit:
            failures.append(
                f"{name}: wall {cur['wall_s']:.3f}s exceeds baseline "
                f"{base['wall_s']:.3f}s by more than {max_regression:.0%}"
            )
    return failures


def render(points: Dict[str, Dict], reference: Dict[str, Dict]) -> str:
    """Human-readable trajectory table."""
    lines = [
        f"{'point':<18} {'wall_s':>8} {'cpu_s':>8} {'pre-refactor':>13} {'speedup':>8}"
    ]
    for name, cur in points.items():
        ref = reference.get(name, {})
        ref_wall = ref.get("wall_s")
        speed = f"{ref_wall / cur['wall_s']:.2f}x" if ref_wall else "-"
        lines.append(
            f"{name:<18} {cur['wall_s']:>8.3f} {cur['cpu_s']:>8.3f} "
            f"{ref_wall if ref_wall is not None else '-':>13} {speed:>8}"
        )
    return "\n".join(lines)


#: trajectory entries retained in the bench document (oldest dropped)
TRAJECTORY_CAP = 200


def update_bench_doc(
    existing: Optional[Dict],
    mode: str,
    points: Dict[str, Dict],
    timestamp: float,
) -> Dict:
    """Fold one measured point set into the bench document.

    The latest measurement replaces the top-level ``points`` (so existing
    consumers keep reading the newest numbers), and is *appended* to the
    ``trajectory`` list — the run-over-run history ``repro.obs diff
    --bench`` trend-checks — instead of overwriting it.  History is capped
    at :data:`TRAJECTORY_CAP` entries; pure, so unit tests exercise the
    append/cap behaviour without running a benchmark."""
    doc = dict(existing) if existing else {}
    doc["schema"] = 1
    doc["bench"] = "DexSpeed engine trajectory"
    doc["mode"] = mode
    doc["points"] = points
    entry = {
        "ts": round(float(timestamp), 3),
        "date": time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(timestamp)),
        "mode": mode,
        "points": points,
    }
    trajectory = list(doc.get("trajectory", []))
    trajectory.append(entry)
    doc["trajectory"] = trajectory[-TRAJECTORY_CAP:]
    return doc


def perf_main(args) -> int:
    """Driver for ``python -m repro.bench perf``."""
    points = run_perf(quick=args.quick, repeats=args.repeats)
    mode = "quick" if args.quick else "full"
    out = args.out or ("BENCH_PR.json" if args.quick else "BENCH_engine.json")
    existing: Optional[Dict] = None
    if os.path.exists(out):
        try:
            with open(out) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None  # corrupt/legacy file: start a fresh document
    doc = update_bench_doc(existing, mode, points, time.time())
    if not args.quick:
        # a full run also records the quick point set so that later
        # quick (CI) runs have same-workload numbers to compare against
        doc["quick_points"] = run_perf(quick=True, repeats=args.repeats)
        doc["reference"] = {"pre_refactor": PRE_REFACTOR_REFERENCE}
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(render(points, PRE_REFACTOR_REFERENCE if not args.quick else {}))
    print(f"\nwrote {out}")
    baseline_path = args.baseline
    if baseline_path is None and args.quick and os.path.exists("BENCH_engine.json"):
        baseline_path = "BENCH_engine.json"
    if baseline_path:
        with open(baseline_path) as fh:
            base_doc = json.load(fh)
        base_points = base_doc.get("quick_points" if args.quick else "points", {})
        if not base_points:
            print(f"baseline {baseline_path} has no comparable point set; skipping guard")
            return 0
        failures = compare(points, base_points, args.max_regression)
        if failures:
            print("\nperformance regression against", baseline_path)
            for line in failures:
                print(" ", line)
            return 1
        print(f"trend guard OK vs {baseline_path} "
              f"(threshold {args.max_regression:.0%})")
    return 0
