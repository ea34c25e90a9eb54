"""Correctness tests for the eight applications.

Every app must compute the same answer as its single-threaded reference in
every variant and at every node count — the distributed shared memory is
the only channel the data travels through, so these tests are end-to-end
checks of the whole stack.  Workloads are tiny; the performance *shapes*
are asserted by the benchmark suite instead.
"""

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app
from repro.apps import workloads
from repro.apps.common import VARIANTS, AdaptationInfo

#: tiny workloads: fast, still crossing every protocol path
TINY = {
    "GRP": {"text_size": 256 * 1024, "plant_every": 2000},
    "KMN": {"n_points": 6_000, "k": 4, "max_iters": 2},
    "BT": {"grid_cells": 8_192, "iters": 1},
    "EP": {"n_pairs": 64_000},
    "FT": {"rows": 64, "cols": 64, "iters": 1},
    "BLK": {"n_options": 8_000},
    "BFS": {"n_vertices": 2_048, "n_edges": 8_000},
    "BP": {"n_vertices": 2_048, "n_edges": 10_000, "iters": 2},
}


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("variant", ["initial", "optimized"])
def test_app_correct_distributed(app, variant):
    """Each app, each variant, on two nodes: output must be correct."""
    result = get_app(app).run(num_nodes=2, variant=variant, **TINY[app])
    assert result.correct, f"{app}/{variant} computed a wrong answer"
    assert result.app == app
    assert result.num_threads == 16
    assert result.elapsed_us > 0


@pytest.mark.parametrize("app", APP_NAMES)
def test_app_correct_single_node_unmodified(app):
    result = get_app(app).run(num_nodes=1, variant="unmodified", **TINY[app])
    assert result.correct
    # unmodified = no migration at all
    assert len(result.stats.migrations) == 0


@pytest.mark.parametrize("app", APP_NAMES)
def test_app_migrates_when_distributed(app):
    result = get_app(app).run(num_nodes=2, variant="initial", **TINY[app])
    forwards = [m for m in result.stats.migrations if m.kind == "forward"]
    assert forwards, f"{app} never migrated a thread"
    assert any(m.dst == 1 for m in forwards)


@pytest.mark.parametrize("app", APP_NAMES)
def test_adaptation_metadata(app):
    info = get_app(app).ADAPTATION
    assert isinstance(info, AdaptationInfo)
    assert info.multithread_impl in ("pthread", "openmp")
    assert 0 < info.initial_loc <= info.optimized_loc
    if info.multithread_impl == "openmp":
        assert info.regions and info.regions > 0


def test_get_app_rejects_unknown():
    with pytest.raises(ValueError):
        get_app("NOPE")


@pytest.mark.parametrize("app", APP_NAMES)
def test_variant_validation(app):
    with pytest.raises(ValueError, match="variant must be one of"):
        get_app(app).run(num_nodes=1, variant="bogus", **TINY[app])


def test_app_four_nodes_spot_check():
    """One heavier spot check: KMN across 4 nodes stays correct."""
    result = get_app("KMN").run(num_nodes=4, variant="optimized",
                                **TINY["KMN"])
    assert result.correct
    assert result.num_nodes == 4


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------


def test_text_corpus_deterministic_and_planted():
    a = workloads.text_corpus(64 * 1024, seed=1)
    b = workloads.text_corpus(64 * 1024, seed=1)
    assert a == b
    counts = workloads.count_occurrences(a, workloads.DEFAULT_KEYS)
    assert all(c > 0 for c in counts)
    assert workloads.text_corpus(64 * 1024, seed=2) != a


def test_clustered_points_shape():
    pts = workloads.clustered_points(1000, 5)
    assert pts.shape == (1000, 3)
    assert pts.dtype == np.float64


def test_option_batch():
    batch = workloads.option_batch(100)
    assert len(batch) == 100
    prices = workloads.black_scholes_reference(batch)
    assert (prices >= -1e-9).all()  # option prices are non-negative
    # put-call parity spot check on the first call option
    call_idx = int(np.argmax(batch.is_call))
    assert prices[call_idx] > 0


def test_rmat_graph_structure():
    indptr, indices = workloads.rmat_graph(1024, 5000, seed=3)
    n = len(indptr) - 1
    assert n == 1024  # power of two preserved
    assert indptr[0] == 0
    assert indptr[-1] == len(indices)
    assert (np.diff(indptr) >= 0).all()
    assert indices.min() >= 0 and indices.max() < n
    # symmetrized: every edge has its reverse
    edge_set = set()
    for u in range(n):
        for v in indices[indptr[u]:indptr[u + 1]]:
            edge_set.add((u, int(v)))
    assert all((v, u) in edge_set for (u, v) in edge_set)


def test_rmat_graph_deterministic():
    g1 = workloads.rmat_graph(512, 2000, seed=9)
    g2 = workloads.rmat_graph(512, 2000, seed=9)
    assert (g1[0] == g2[0]).all() and (g1[1] == g2[1]).all()


def test_bfs_reference_simple_chain():
    # 0-1-2 chain
    indptr = np.array([0, 1, 3, 4])
    indices = np.array([1, 0, 2, 1])
    dist = workloads.bfs_reference(indptr, indices, 0)
    assert list(dist) == [0, 1, 2]
