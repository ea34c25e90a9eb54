"""Per-pass measurement from outside the program.

:class:`Recorder` wraps ``DexCluster.simulate`` for the length of one
workload pass.  For every cluster the pass builds, the ``simulate`` call
that dispatches the most engine events is that cluster's *timed phase*
(the worker phase of an app, the serving phase of DexServe, the ping-pong
loop); everything else in the pass -- cluster construction, input and
reference generation, working-set install, result collection -- is
set-up.  At the end of every ``simulate`` call the recorder reads the
public counters of the cluster and of each of its processes, so counters
of processes that are retired later in the pass are still seen.

With ``profile=True`` each ``simulate`` call runs under ``cProfile`` and
the profiles of the timed phases are kept.  cProfile sees every generator
resume as a call, so a generator's self time covers all of its resumes.
:func:`self_time_by_layer` groups self time by the module that defines
each function; time in C functions (builtins, numpy ufuncs) goes to the
layer of the Python function that called them.
"""

from __future__ import annotations

import cProfile
import itertools
import os
import pstats
import time
import weakref
from typing import Dict, List, Optional

from workloads import SRC, nearest_rank

from repro.core.cluster import DexCluster

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(SRC, "repro")

#: host-time layers, in report order
LAYERS = (
    "sim.engine", "sim.resources", "net",
    "core.thread", "core.fault", "core.protocol", "core.directory",
    "core.migration", "core.process",
    "memory", "runtime", "apps", "serve", "obs", "numpy",
)

#: repro module (path below src/repro, without .py) -> layer; a package
#: name maps every module in it
MODULE_LAYER = {
    "sim/engine": "sim.engine", "sim/__init__": "sim.engine",
    "sim/resources": "sim.resources",
    "net": "net", "chaos": "net",
    "core/thread": "core.thread",
    "core/fault": "core.fault",
    "core/protocol": "core.protocol",
    "core/directory": "core.directory", "core/ownership": "core.directory",
    "core/migration": "core.migration", "core/delegation": "core.migration",
    "core/futex": "core.migration", "core/vma_sync": "core.migration",
    "core": "core.process", "params": "core.process", "__init__": "core.process",
    "memory": "memory",
    "runtime": "runtime",
    "apps": "apps", "bench": "apps",
    "serve": "serve",
    "obs": "obs", "check": "obs", "core/stats": "obs", "tools": "obs",
    "vet": "obs",
}

#: counters summed over every process and cluster of a pass
COUNTS = (
    "engine.dispatches",
    "fault.count", "fault.write", "fault.coalesced", "fault.retries",
    "fault.leaders", "fault.fast",
    "protocol.invalidations", "protocol.pages_transferred",
    "protocol.transfers_skipped",
    "directory.requests", "directory.origin",
    "net.messages", "net.bytes_on_wire", "net.page_payloads",
    "net.pool_acquisitions", "net.pool_stalls",
    "migration.count", "migration.delegations", "migration.futex_waits",
    "memory.pages_allocated",
)
#: counters read only to form a share, not reported themselves
SHARE_PARTS = ("fault.leaders", "fault.fast", "directory.origin",
               "protocol.transfers_skipped")


def layer_of(filename: str) -> Optional[str]:
    """The layer a function belongs to, from its defining file (None for
    the standard library and anything else outside the program)."""
    path = os.path.abspath(filename)
    if path.startswith(REPRO_DIR + os.sep):
        module = os.path.splitext(os.path.relpath(path, REPRO_DIR))[0]
        parts = module.split(os.sep)
        for depth in range(len(parts), 0, -1):
            layer = MODULE_LAYER.get("/".join(parts[:depth]))
            if layer is not None:
                return layer
        return None
    if path.startswith(BENCH_DIR + os.sep):
        return "apps"  # the benchmark's own workload code
    if f"{os.sep}numpy{os.sep}" in path:
        return "numpy"
    return None


def _process_counts(proc) -> Dict[str, int]:
    stats = proc.stats
    leaders = [r for r in stats.fault_latencies if not r.coalesced]
    requests = stats.directory_requests
    return {
        "fault.count": stats.total_faults,
        "fault.write": stats.faults_write,
        "fault.coalesced": stats.faults_coalesced,
        "fault.retries": stats.fault_retries,
        "fault.leaders": len(leaders),
        "fault.fast": sum(1 for r in leaders if r.retries == 0),
        "protocol.invalidations": stats.invalidations_sent,
        "protocol.pages_transferred": stats.pages_transferred,
        "protocol.transfers_skipped": stats.transfers_skipped,
        "directory.requests": sum(requests.values()),
        "directory.origin": requests.get(proc.origin, 0),
        "migration.count": len(stats.migrations),
        "migration.delegations": stats.delegations,
        "migration.futex_waits": stats.futex_waits,
        "memory.pages_allocated": sum(
            state.frames.pages_allocated for _, state in proc.iter_node_states()),
    }


def _cluster_counts(cluster) -> Dict[str, int]:
    net = cluster.net
    pools = [pool for conn in net.connections.values()
             for pool in (conn.send_pool, conn.recv_pool, conn.rdma_sink)]
    return {
        "engine.dispatches": cluster.engine.events_dispatched,
        "net.messages": net.messages_sent,
        "net.bytes_on_wire": sum(c.bytes_on_wire for c in net.connections.values()),
        "net.page_payloads": net.page_payloads,
        "net.pool_acquisitions": sum(p.acquisitions for p in pools),
        "net.pool_stalls": sum(p.stalls for p in pools),
    }


class Recorder:
    """Hooks ``DexCluster.simulate`` while active (a ``with`` block)."""

    def __init__(self, profile: bool = False):
        self.profile = profile
        #: cluster key -> (dispatches, wall seconds, profile) of its
        #: largest simulate call so far
        self.timed: Dict[int, tuple] = {}
        #: latest counter readings, per cluster and per process
        self.cluster_counts: Dict[int, Dict[str, int]] = {}
        self.process_counts: Dict[int, Dict[str, int]] = {}
        self.leader_latencies: Dict[int, List[float]] = {}
        #: host seconds the recorder itself spent reading counters
        self.own_s = 0.0
        self._keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._serial = itertools.count()
        self._original = None

    def _key(self, obj) -> int:
        """A stable key per object (``id`` can be reused once one dies)."""
        key = self._keys.get(obj)
        if key is None:
            key = self._keys[obj] = next(self._serial)
        return key

    def __enter__(self) -> "Recorder":
        original = self._original = DexCluster.simulate
        recorder = self

        def simulate(cluster, main, proc=None, *args, **kwargs):
            dispatched = cluster.engine.events_dispatched
            profiler = cProfile.Profile() if recorder.profile else None
            start = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                return original(cluster, main, proc, *args, **kwargs)
            finally:
                if profiler is not None:
                    profiler.disable()
                wall = time.perf_counter() - start
                recorder._after(cluster, cluster.engine.events_dispatched - dispatched,
                                wall, profiler)

        DexCluster.simulate = simulate
        return self

    def __exit__(self, *exc) -> None:
        DexCluster.simulate = self._original

    def _after(self, cluster, dispatched: int, wall: float, profiler) -> None:
        start = time.perf_counter()
        key = self._key(cluster)
        best = self.timed.get(key)
        if best is None or dispatched > best[0]:
            self.timed[key] = (dispatched, wall, profiler)
        self.cluster_counts[key] = _cluster_counts(cluster)
        for proc in cluster.processes.values():
            pkey = self._key(proc)
            self.process_counts[pkey] = _process_counts(proc)
            self.leader_latencies[pkey] = [
                r.latency_us for r in proc.stats.fault_latencies if not r.coalesced]
        self.own_s += time.perf_counter() - start

    # -- results ----------------------------------------------------------

    @property
    def run_s(self) -> float:
        """Host seconds of the timed phases."""
        return sum(wall for (_, wall, _) in self.timed.values())

    def counts(self) -> Dict[str, float]:
        """The per-layer work counts of the pass, with their shares."""
        total = dict.fromkeys(COUNTS, 0)
        for reading in list(self.cluster_counts.values()) + list(self.process_counts.values()):
            for name, value in reading.items():
                total[name] += value
        latencies = [lat for lats in self.leader_latencies.values() for lat in lats]

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        moved = total["protocol.pages_transferred"] + total["protocol.transfers_skipped"]
        out: Dict[str, float] = {
            name: total[name] for name in COUNTS if name not in SHARE_PARTS}
        out.update({
            "fault.coalesced_share": share(total["fault.coalesced"], total["fault.count"]),
            "fault.fast_share": share(total["fault.fast"], total["fault.leaders"]),
            "fault.latency_us.p50": nearest_rank(latencies, 50),
            "fault.latency_us.p99": nearest_rank(latencies, 99),
            "protocol.transfer_skip_share": share(total["protocol.transfers_skipped"], moved),
            "directory.origin_share": share(total["directory.origin"],
                                            total["directory.requests"]),
        })
        return out

    def self_time_by_layer(self) -> Dict[str, float]:
        """Host self seconds per layer over the profiled timed phases.
        Standard-library frames belong to no layer."""
        profiles = [prof for (_, _, prof) in self.timed.values() if prof is not None]
        by_layer = dict.fromkeys(LAYERS, 0.0)
        if not profiles:
            return by_layer
        stats = pstats.Stats(*profiles).stats
        for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
            if filename != "~":
                layer = layer_of(filename)
                if layer is not None:
                    by_layer[layer] += tottime
                continue
            # a C function: charge each caller's share to the caller's layer
            for (caller_file, _, _), edge in callers.items():
                layer = layer_of(caller_file) if caller_file != "~" else None
                if layer is not None:
                    by_layer[layer] += edge[2]
        return by_layer
