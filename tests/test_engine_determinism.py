"""Differential determinism: the DexSpeed fast paths are optimisations,
not semantics.  Every Figure-2 app must produce a bit-identical run —
same simulated time, same fault statistics — with each fast path
disabled: the same-time FIFO fast lane, the inline-resume collapse, and
the message freelist.  Both coherence-directory backends are covered.
The §V-D ping-pong, the one workload whose hot loop is the in-place
clock advance of the cpu-only compute path, gets its own differential.

The workloads are scaled far below the bench presets: the goal is to
drive every protocol path through both engine configurations, not to
measure anything.
"""

import pytest

from repro import SimParams
from repro.bench.experiments import pagefault_hammer
from repro.bench.runner import run_point
from repro.net import messages

#: tiny per-app workloads (the differential needs coverage, not load)
APP_OVERRIDES = {
    "GRP": {"text_size": 256 * 1024},
    "KMN": {"n_points": 10_000, "max_iters": 2},
    "BT": {"grid_cells": 32_768, "iters": 1},
    "EP": {"n_pairs": 60_000},
    "FT": {"rows": 64, "cols": 64, "iters": 1},
    "BLK": {"n_options": 20_000},
    "BFS": {"n_vertices": 2_048, "n_edges": 8_000},
    "BP": {"n_vertices": 8_192, "n_edges": 120_000, "iters": 1},
}


def run_digest(app, backend):
    """One n=4 run -> every stable behavioural observable we track."""
    result = run_point(app, "initial", 4, directory=backend,
                       **APP_OVERRIDES[app])
    stats = result.stats
    return {
        "elapsed_us": result.elapsed_us,
        "correct": bool(result.correct),
        "faults": stats.total_faults,
        "retries": stats.fault_retries,
        "coalesced": stats.faults_coalesced,
        "latency_sum_us": round(
            sum(r.latency_us for r in stats.fault_latencies), 6
        ),
        "migrations": len(stats.migrations),
    }


@pytest.mark.parametrize("backend", ["origin", "sharded"])
@pytest.mark.parametrize("app", sorted(APP_OVERRIDES))
def test_fast_paths_are_behaviour_preserving(app, backend, monkeypatch):
    reference = run_digest(app, backend)

    # fast lane and inline resume off (the pre-refactor dispatch shape)
    monkeypatch.setenv("DEX_ENGINE_FASTLANE", "0")
    monkeypatch.setenv("DEX_ENGINE_INLINE", "0")
    assert run_digest(app, backend) == reference, \
        f"{app}/{backend}: engine fast paths changed behaviour"
    monkeypatch.delenv("DEX_ENGINE_FASTLANE")
    monkeypatch.delenv("DEX_ENGINE_INLINE")

    # message freelist off (every message freshly allocated)
    monkeypatch.setenv("DEX_MSG_FREELIST", "0")
    assert run_digest(app, backend) == reference, \
        f"{app}/{backend}: message freelist changed behaviour"


def pingpong_digest(duration_us=20_000.0):
    """The §V-D hammer for *duration_us* -> (observables, dispatches)."""
    # observers pinned off: the dispatch count is pinned below
    params = SimParams(sanitize="off", trace="off", lens="off", scope="off",
                       chaos="off")
    cluster, proc, var, threads = pagefault_hammer(duration_us, params)

    def main(ctx):
        counts = yield from proc.join_all(threads)
        value = yield from ctx.read_i64(var)
        return counts, value

    counts, value = cluster.simulate(main, proc)
    leaders = [r for r in proc.stats.fault_latencies if not r.coalesced]
    digest = {
        "adds": sum(counts),
        "value": value,
        "leader_faults": len(leaders),
        "latency_sum_us": round(sum(r.latency_us for r in leaders), 6),
        "now": cluster.engine.now,
    }
    return digest, cluster.engine.events_dispatched


def test_pingpong_clock_advance_is_behaviour_preserving(monkeypatch):
    monkeypatch.delenv("DEX_ENGINE_INLINE", raising=False)
    reference, dispatched = pingpong_digest()
    assert reference["adds"] == reference["value"] > 100_000
    # an in-place clock advance counts as the dispatch it replaces, so
    # this is also the count of the run where every compute sleeps
    assert dispatched == 187_279

    monkeypatch.setenv("DEX_ENGINE_INLINE", "0")
    assert pingpong_digest()[0] == reference


def test_freelist_knob_reaches_network(monkeypatch):
    """The cluster resolves the freelist knob at construction."""
    from repro import DexCluster

    monkeypatch.delenv("DEX_MSG_FREELIST", raising=False)
    assert DexCluster(num_nodes=2).net._recycle is True
    monkeypatch.setenv("DEX_MSG_FREELIST", "0")
    assert DexCluster(num_nodes=2).net._recycle is False


def test_recycled_messages_get_fresh_ids():
    """Freelist reuse must never recycle a message identity: msg_id always
    comes from the global counter, so reply matching and the transport's
    dedup window keep working."""
    messages._freelist.clear()  # earlier runs may have filled it to cap
    msg = messages.obtain_message(messages.MsgType.PING, src=0, dst=1)
    first_id = msg.msg_id
    messages.recycle_message(msg)
    again = messages.obtain_message(messages.MsgType.PING, src=0, dst=1)
    assert again is msg  # actually reused ...
    assert again.msg_id > first_id  # ... under a fresh identity
    assert again.payload == {} and again.page_data is None
