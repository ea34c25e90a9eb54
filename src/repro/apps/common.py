"""Shared scaffolding for the evaluation applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence

from repro.core import DexCluster, DexProcess
from repro.core.stats import DexStats
from repro.params import SimParams
from repro.runtime import MemoryAllocator

VARIANTS = ("unmodified", "initial", "optimized")


@dataclass
class AdaptationInfo:
    """Table I metadata: how invasive each port was.

    ``initial_loc`` counts the lines the first port adds/changes (the
    migration calls, §V-A); ``optimized_loc`` counts the additional lines
    the §IV optimizations touch.  ``regions`` is the number of converted
    parallel regions for OpenMP apps (None for pthread apps)."""

    multithread_impl: str  # "pthread" | "openmp"
    initial_loc: int
    optimized_loc: int
    regions: Optional[int] = None
    notes: str = ""


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    variant: str
    num_nodes: int
    num_threads: int
    elapsed_us: float        # the timed parallel section
    output: Any              # app-specific result for correctness checks
    stats: DexStats
    correct: Optional[bool] = None  # set when the app verified itself

    @property
    def throughput(self) -> float:
        """Inverse runtime; Figure 2's y-axis is throughput ratios."""
        return 1.0 / self.elapsed_us if self.elapsed_us > 0 else float("inf")


@dataclass
class AppRun:
    """The set-up every Figure-2 app shares (§V-A): one fresh cluster and
    process, the node plan, and what the variant implies.  Built by
    :func:`start_run`; :meth:`result` reports the run."""

    app: str
    variant: str
    num_nodes: int
    seed: int
    cluster: DexCluster
    proc: DexProcess
    alloc: MemoryAllocator
    nodes: List[int]       # the node set the run uses (origin first)
    num_threads: int
    migrate: bool          # every variant but "unmodified" migrates
    optimized: bool

    def result(self, output: Any, elapsed_us: float,
               correct: bool) -> AppResult:
        return AppResult(
            app=self.app,
            variant=self.variant,
            num_nodes=self.num_nodes,
            num_threads=self.num_threads,
            elapsed_us=elapsed_us,
            output=output,
            stats=self.proc.stats,
            correct=correct,
        )


def start_run(
    app: str,
    variant: str,
    num_nodes: int,
    threads_per_node: int,
    params: Optional[SimParams],
    tracer,
    seed: Optional[int],
    default_seed: int,
) -> AppRun:
    """Set up one run of *app*.

    An explicit *seed* wins; next ``SimParams.seed`` when the caller pinned
    one (so a single knob reproduces the whole run: engine event order,
    chaos schedule, *and* input data); otherwise the app's calibrated
    historical *default_seed*, keeping existing timings bit-identical when
    no seed is requested.  The cluster always has 8 nodes (the testbed);
    *num_nodes* only controls placement.  *tracer* is the optional §IV
    fault tracer."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if seed is None and params is not None:
        seed = params.seed
    if seed is None:
        seed = default_seed
    cluster = DexCluster(num_nodes=max(num_nodes, 8), params=params)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    if tracer is not None:
        proc.attach_tracer(tracer)
    if not 1 <= num_nodes <= cluster.num_nodes:
        raise ValueError(
            f"num_nodes must be in [1, {cluster.num_nodes}], got {num_nodes}"
        )
    return AppRun(
        app=app,
        variant=variant,
        num_nodes=num_nodes,
        seed=seed,
        cluster=cluster,
        proc=proc,
        alloc=alloc,
        nodes=list(range(num_nodes)),
        num_threads=threads_per_node * num_nodes,
        migrate=variant != "unmodified",
        optimized=variant == "optimized",
    )


def run_workers(
    cluster: DexCluster,
    proc: DexProcess,
    body: Callable[..., Generator],
    num_threads: int,
    nodes: Sequence[int],
    migrate: bool,
) -> float:
    """The common harness: spawn *num_threads* workers, each performing the
    paper's conversion (migrate out, run, migrate back) when *migrate*;
    block-assign workers to *nodes*.  Returns the elapsed simulated time of
    the parallel section."""
    from repro.runtime.openmp import node_for_worker

    start = cluster.engine.now

    def worker(ctx, wid: int) -> Generator:
        if migrate:
            yield from ctx.migrate(node_for_worker(wid, num_threads, list(nodes)))
        yield from body(ctx, wid)
        if migrate:
            yield from ctx.migrate_back()

    threads = [
        proc.spawn_thread(worker, i, name=f"w{i}") for i in range(num_threads)
    ]

    def waiter(ctx) -> Generator:
        yield from proc.join_all(threads)

    cluster.simulate(waiter, proc)
    return cluster.engine.now - start
