"""The OpenMP-conversion pattern shared by BT, EP, and FT (§V-A).

An NPB kernel is a sequence of parallel regions separated by serial master
sections.  On DeX, "we triggered thread migration at the beginning and end
of the OpenMP parallel regions": every worker migrates to its node at
region entry and returns to the origin at region exit.  Crucially the
region-end synchronization then happens **at the origin**, where the
barrier words and futexes are local — which is why repeated cheap
migrations (Table II's 236 us second migration) beat keeping threads
remote across the serial sections.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.apps.common import AppRun, run_workers
from repro.runtime import Barrier
from repro.runtime.openmp import node_for_worker


def region_loop(
    app: AppRun,
    n_regions: int,
    region_fn: Callable[..., Generator],
    serial_fn: Optional[Callable[..., Generator]] = None,
) -> float:
    """Run ``region_fn(ctx, wid, region)`` for each region in sequence,
    with per-region out-and-back migration and origin-local barriers;
    ``serial_fn(ctx, region)`` runs on the master between regions.
    Returns the elapsed time of the whole region sequence."""
    barrier = Barrier(app.alloc, app.num_threads, name="omp_join",
                      page_aligned=True)

    def body(ctx, wid: int) -> Generator:
        for region in range(n_regions):
            if app.migrate:
                yield from ctx.migrate(
                    node_for_worker(wid, app.num_threads, app.nodes)
                )
            yield from region_fn(ctx, wid, region)
            if app.migrate:
                yield from ctx.migrate_back()
            # implicit OpenMP region-end barrier — at the origin, so cheap
            yield from barrier.wait(ctx)
            if wid == 0 and serial_fn is not None:
                yield from serial_fn(ctx, region)
            yield from barrier.wait(ctx)

    # migration is handled per-region above, not by the outer harness
    return run_workers(app.cluster, app.proc, body, app.num_threads,
                       app.nodes, migrate=False)
