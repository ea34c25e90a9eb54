"""DexBench's own checks: determinism, published values, a held-out seed,
layer attribution and the output contract.

    python3 -m pytest dexbench -q

Every workload pass here is a full-size pass, so the module takes a few
minutes; the passes are shared between tests through module fixtures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from repro.bench.experiments import pagefault_micro  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def default_passes():
    """Two untraced passes per workload at the default seed."""
    return {name: [run.run_pass(name, DEFAULT_SEED) for _ in range(2)]
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of every workload at the default seed."""
    return {name: run.per_layer(name, DEFAULT_SEED) for name in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_simulated_results_repeat_exactly(default_passes, workload):
    (a, rec_a, _), (b, rec_b, _) = default_passes[workload]
    assert a.failed == 0 and b.failed == 0
    assert run.sim_signature(a, rec_a) == run.sim_signature(b, rec_b)


def test_pingpong_matches_published_micro(default_passes):
    outcome, recorder, _ = default_passes["pingpong"][0]
    counts = recorder.counts()
    assert outcome.details["lost_updates"] == 0
    assert outcome.details["leader_faults"] == 1258
    assert round(outcome.details["fast_mean_us"], 1) == 18.1
    assert round(outcome.details["contended_mean_us"], 1) == 157.1
    assert counts["engine.dispatches"] == 934159
    # the benchmark runs the same loop as the repository's §V-D function
    micro = pagefault_micro()
    assert micro.total_faults == outcome.details["leader_faults"]
    assert micro.fast_mean_us == outcome.details["fast_mean_us"]
    assert micro.contended_mean_us == outcome.details["contended_mean_us"]
    assert micro.events_dispatched == counts["engine.dispatches"]


def test_fig2_matches_published_elapsed(default_passes):
    outcome, _, _ = default_passes["fig2-n8"][0]
    published = {"KMN": 20618.727, "GRP": 8921.851, "BLK": 4418.511,
                 "BT": 63783.883}
    got = {app: round(outcome.details[f"sim_elapsed_us.{app}"], 3)
           for app in published}
    assert got == published


def test_serve_refuses_the_burst(default_passes):
    outcome, _, _ = default_passes["serve-poisson"][0]
    assert outcome.serve["serve.refused"] == 497
    assert outcome.serve["serve.queue_depth_hwm"] == 32
    assert outcome.attempted == 16000


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_runs_correctly(default_passes, workload):
    outcome, recorder, _ = run.run_pass(workload, HELD_OUT_SEED)
    assert outcome.failed == 0
    default, default_rec, _ = default_passes[workload][0]
    assert run.sim_signature(outcome, recorder) != run.sim_signature(default, default_rec)


def test_layer_self_time_accounts_for_traced_run(traced):
    for name, (_, metrics) in traced.items():
        layers = {k: v for k, v in metrics.items() if k.startswith("host_self_s.")}
        assert all(v >= 0 for k, v in layers.items() if k != "host_self_s.unattributed")
        total = sum(layers.values())
        # what no layer claims (standard library, profiler) stays small
        assert abs(metrics["host_self_s.unattributed"]) < 0.05 * total, name
        assert metrics["trace_overhead_s"] > 0


def test_layer_shares_follow_the_workloads(traced):
    def share(workload, *layers):
        metrics = traced[workload][1]
        total = sum(v for k, v in metrics.items() if k.startswith("host_self_s."))
        return sum(metrics[f"host_self_s.{layer}"] for layer in layers) / total

    assert share("pingpong", "core.thread") > share("fig2-n8", "core.thread")
    coherence = ("core.fault", "core.protocol", "net")
    assert share("fig2-n8", *coherence) > share("pingpong", *coherence)
    assert share("serve-poisson", "serve") > 0 == share("pingpong", "serve")


def test_metric_names_match_the_spec(traced):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for name, (_, metrics) in traced.items():
        assert set(metrics) == per_layer, name
    _, metrics = run.end_to_end("serve-poisson", HELD_OUT_SEED, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "dexbench"), tmp_path / "dexbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "pingpong", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
