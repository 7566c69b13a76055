"""Shard parity: the persistent fabric must be bit-identical to serial.

The strongest claim the fabric makes is that persistence, pinning,
batching, routing and recovery are *invisible* in results.  This suite
enforces it against the same oracles the per-call pool answers to:

* all eight Table-1 exploration cases — identical pairs *and* identical
  evaluation counts across :class:`~repro.parallel.InlineExecutor`,
  :class:`~repro.parallel.ParallelExecutor` and
  :class:`~repro.parallel.ShardedExecutor` (exploration's reference-
  range tasks make this the time-window sharding axis);
* both aggregation engines, DIST and ALL (aggregation's entity-range
  tasks make this the entity sharding axis);
* the full registered fuzz-law suite replayed under an
  :func:`~repro.parallel.executor_scope` pinning one shared fabric;
* physical shard slices (:func:`~repro.parallel.shard_backend`) cover
  the backend exactly, for entity-range and time-window axes alike;
* a concurrent readers × appender stress through
  :class:`~repro.serving.QueryServer` multiplexing every request onto
  one shared fabric — results replay bit-identically against the exact
  version that served them.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate
from repro.testing.reference import aggregate_general
from repro.core.operators import presence_signature
from repro.core.updates import SnapshotUpdate
from repro.datasets import paper_example
from repro.exploration import EventType, ExtendSide, Goal, explore
from repro.parallel import (
    InlineExecutor,
    ParallelExecutor,
    ShardedExecutor,
    executor_scope,
    shard_backend,
)
from repro.query import run_query
from repro.serving import QueryServer
from repro.storage import backend_names, get_backend
from repro.streaming import StreamingStore
from repro.testing import run_fuzz

ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))


@pytest.fixture()
def no_work_floor(monkeypatch):
    """Remove the implicit-parallelism gate so tiny graphs still pool."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_WORK", "0")


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=17 + TEST_SEED, n_times=7)


@pytest.fixture(scope="module")
def fabric():
    """One persistent fabric shared by the whole module — reuse across
    dozens of unrelated fan-outs is itself part of what's under test."""
    executor = ShardedExecutor(2)
    yield executor
    executor.close()


def _executors(fabric):
    return (
        ("inline", InlineExecutor()),
        ("parallel", ParallelExecutor(2)),
        ("sharded", fabric),
    )


# ----------------------------------------------------------------------
# Table-1 exploration cases: time-window sharded tasks
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_explore_parity_every_case(graph, fabric, no_work_floor, event, goal, extend):
    baseline = explore(graph, event, goal, extend, 1)
    for name, executor in _executors(fabric):
        with executor_scope(executor):
            result = explore(graph, event, goal, extend, 1, parallelism=2)
        assert baseline.diff(result) == (), f"{name} diverged"
        assert baseline.pairs == result.pairs, name
        # Bit-identical includes the pruning decisions, not just pairs.
        assert baseline.evaluations == result.evaluations, name


# ----------------------------------------------------------------------
# Aggregation: entity-range sharded tasks, both engines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("distinct", [True, False], ids=["dist", "all"])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregate_parity_both_engines(
    graph, fabric, no_work_floor, attributes, distinct
):
    serial = aggregate(graph, attributes, distinct=distinct)
    oracle = aggregate_general(graph, attributes, distinct=distinct)
    assert oracle.diff(serial) == (), "kernel diverged from Algorithm 2"
    for name, executor in _executors(fabric):
        with executor_scope(executor):
            pooled = aggregate(graph, attributes, distinct=distinct, parallelism=2)
        assert serial.diff(pooled) == (), f"{name} pooled kernel diverged"


def test_repeated_calls_stay_bit_exact_on_a_warm_pool(graph, fabric, no_work_floor):
    """Payload pins and shard routing must not drift results over time."""
    serial = aggregate(graph, ["color"], distinct=True)
    with executor_scope(fabric):
        for _ in range(4):
            warm = aggregate(graph, ["color"], distinct=True, parallelism=2)
            assert serial.diff(warm) == ()


# ----------------------------------------------------------------------
# The full law registry on the fabric
# ----------------------------------------------------------------------


def test_all_laws_hold_on_the_fabric(test_seed, fabric, no_work_floor):
    with executor_scope(fabric):
        report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_fuzz_replay_identical_inline_vs_fabric(test_seed, fabric, no_work_floor):
    serial = run_fuzz(seed=test_seed, cases=2, shrink=False)
    with executor_scope(fabric):
        sharded = run_fuzz(seed=test_seed, cases=2, shrink=False)
    assert serial.ok == sharded.ok
    assert serial.checks == sharded.checks
    assert serial.laws == sharded.laws
    assert [str(f) for f in serial.failures] == [
        str(f) for f in sharded.failures
    ]


# ----------------------------------------------------------------------
# Physical shard slices: entity-range and time-window axes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", backend_names())
@pytest.mark.parametrize("n_shards", [1, 2, 3, 50])
def test_entity_shards_cover_the_backend_exactly(graph, backend_name, n_shards):
    backend = get_backend(backend_name).from_graph(graph)
    shards = shard_backend(backend, n_shards, by="entity")
    assert len(shards) == n_shards
    covered = [label for shard in shards for label in shard.node_labels]
    assert covered == list(backend.node_labels)
    for shard in shards:
        assert shard.times == backend.times
        assert shard.edge_labels == backend.edge_labels
        for mode in ("any", "all", "none"):
            mask = shard.presence_mask("nodes", mode=mode)
            assert len(mask) == len(shard.node_labels)


@pytest.mark.parametrize("backend_name", backend_names())
def test_time_shards_cover_the_timeline_exactly(graph, backend_name):
    backend = get_backend(backend_name).from_graph(graph)
    shards = shard_backend(backend, 3, by="time")
    covered = [time for shard in shards for time in shard.times]
    assert covered == list(backend.times)
    for shard in shards:
        assert shard.node_labels == backend.node_labels
        # A time shard is exactly the storage-level window projection.
        if shard.times:
            window = backend.slice_time(shard.times)
            assert (
                shard.presence_mask("nodes").tolist()
                == window.presence_mask("nodes").tolist()
            )


@pytest.mark.parametrize("backend_name", backend_names())
def test_edge_shards_cover_the_backend_exactly(graph, backend_name):
    backend = get_backend(backend_name).from_graph(graph)
    shards = shard_backend(backend, 2, by="edges")
    covered = [label for shard in shards for label in shard.edge_labels]
    assert covered == list(backend.edge_labels)


def test_sharded_aggregation_merges_to_the_whole(graph):
    """Entity shards are a physical partition: summing per-shard DIST
    node weights over the same window reproduces the whole graph's.
    Edges stay whole in an entity shard, so the shard-local graph keeps
    only edges with both endpoints inside the shard (cross-shard edges
    belong to the broadcast/merge path, not the shard-local one)."""
    backend = get_backend("dense").from_graph(graph)
    whole = aggregate(graph, ["color"], distinct=True)
    merged: dict = {}
    for shard in shard_backend(backend, 3, by="entity"):
        nodes = set(shard.node_labels)
        keep = [
            edge
            for edge in shard.edge_labels
            if edge[0] in nodes and edge[1] in nodes
        ]
        frames = shard.to_frames()
        local = type(shard).from_frames(
            frames._replace(
                edge_presence=frames.edge_presence.select_rows(keep),
                edge_attrs=(
                    None
                    if frames.edge_attrs is None
                    else frames.edge_attrs.select_rows(keep)
                ),
            )
        )
        part = aggregate(local.to_graph(), ["color"], distinct=True)
        for key, weight in part.node_weights.items():
            merged[key] = merged.get(key, 0) + weight
    assert merged == dict(whole.node_weights)


# ----------------------------------------------------------------------
# Concurrent readers × appender on one shared fabric
# ----------------------------------------------------------------------

QUERIES = (
    "aggregate gender all over union [t0..t2]",
    "aggregate gender distinct over project [t0..t1]",
    "aggregate gender, publications all over union [t0..t1]",
    "evolution [t0] -> [t1] by gender",
    "union [t0], [t2]",
    "difference [t2], [t0]",
)


def _updates(n):
    updates = []
    for i in range(n):
        node = f"s{i}"
        updates.append(
            SnapshotUpdate(
                time=f"t{3 + i}",
                nodes={
                    "u1": {"publications": 1 + i},
                    "u2": {"publications": 2},
                    node: {"publications": i},
                },
                static={node: {"gender": "f" if i % 2 else "m"}},
                edges=[("u1", "u2"), ("u2", node)],
            )
        )
    return updates


def _assert_matches(text, served, graph):
    naive = run_query(graph, text)
    if hasattr(served, "diff"):
        problems = served.diff(naive)
        assert not problems, f"{text!r} diverged: {problems[0]}"
    else:
        assert presence_signature(served) == presence_signature(naive), (
            f"{text!r} presence diverged"
        )


def test_concurrent_readers_and_appender_on_one_fabric(no_work_floor):
    """Readers multiplex onto one persistent fabric through the server's
    ``executor=`` seam while an appender publishes versions; the store's
    invalidation hook drops the fabric's payload pins per version, and
    every served result must replay bit-identically against the version
    that served it."""
    store = StreamingStore(paper_example())
    fabric = ShardedExecutor(2)
    unsubscribe = fabric.bind_store(store)
    # cache_capacity=0: every request truly executes on the fabric.
    server = QueryServer(store, cache_capacity=0, executor=fabric)
    n_readers = 4
    rounds_total = 5
    updates = _updates(rounds_total - 1)
    records = [[] for _ in range(n_readers)]
    failures = []
    rounds = threading.Barrier(n_readers + 1)

    def reader(index):
        try:
            for _ in range(rounds_total):
                rounds.wait()
                for text in QUERIES:
                    served = server.serve(text)
                    records[index].append((text, served))
        except BaseException as exc:  # surfaces after join
            failures.append(exc)

    def appender():
        try:
            for round_index in range(rounds_total):
                rounds.wait()
                if round_index < len(updates):
                    store.append_snapshot(updates[round_index])
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(n_readers)
    ]
    threads.append(threading.Thread(target=appender))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        server.close()
        unsubscribe()
        fabric.close()
    assert not failures, failures[0]
    assert server.version == len(updates)

    served_versions = set()
    for bucket in records:
        assert bucket  # every reader made progress
        for text, served in bucket:
            served_versions.add(served.version)
            graph = store.at_version(served.version).graph
            _assert_matches(text, served.result, graph)
    # Appends interleaved with serving: more than one version answered.
    assert len(served_versions) >= 2, served_versions


def test_bind_store_invalidates_payload_pins(no_work_floor):
    store = StreamingStore(paper_example())
    fabric = ShardedExecutor(2)
    fabric.bind_store(store)
    server = QueryServer(store, cache_capacity=0, executor=fabric)
    try:
        first = server.serve("aggregate gender all over union [t0..t2]")
        store.append_snapshot(_updates(1)[0])
        second = server.serve("aggregate gender all over union [t0..t3]")
        assert second.version == first.version + 1
        # The rebound result reflects the new version, evaluated on the
        # same (re-pinned, re-sharded) fabric.
        _assert_matches(
            "aggregate gender all over union [t0..t3]",
            second.result,
            store.graph,
        )
    finally:
        server.close()
        fabric.close()
