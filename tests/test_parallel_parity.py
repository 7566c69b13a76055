"""Parity of the fast paths against their oracles on one tiny graph.

The module and test names are those of the process-pool suite it
replaced; every call now runs inline, and each test compares a fast
path with the oracle it must match:

* aggregation — the kernel against Algorithm 2 (``aggregate_general``),
  DIST and ALL, over the whole timeline and over sub-windows;
* evolution against the appearance-set reference, and the session
  facade against the direct calls it wraps;
* all twelve Table-1 combinations at thresholds 2 and 4: the batched
  walk reports the per-pair reference's pairs *and* evaluation count,
  and the exhaustive explorer's pairs;
* every registered fuzz law, and a replay of the same seed;
* concurrent readers x an appender through one
  :class:`~repro.serving.QueryServer`: every response replays
  bit-identically against the version that served it.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate, aggregate_evolution
from repro.core.operators import presence_signature
from repro.core.updates import SnapshotUpdate
from repro.testing.reference import (
    aggregate_evolution_reference,
    aggregate_general,
    exhaustive_reference,
    explore_reference,
)
from repro.datasets import paper_example
from repro.exploration import (
    EntityKind,
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.query import run_query
from repro.serving import QueryServer
from repro.session import GraphTempoSession
from repro.streaming import StreamingStore
from repro.testing import law_registry, run_fuzz

#: Window lengths (aggregation) and thresholds (exploration); the
#: values keep the test ids of the worker counts they replaced.
SIZES = (2, 4)

ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=17 + TEST_SEED, n_times=7)


def _assert_explore_parity(graph, event, goal, extend, k, **what):
    """The batched walk equals the per-pair reference (pairs and
    evaluations) and reports the exhaustive oracle's pairs."""
    batched = explore(graph, event, goal, extend, k, **what)
    naive = explore_reference(graph, event, goal, extend, k, **what)
    assert batched.diff(naive) == ()
    # Bit-identical means the pruning decisions too, not just the pairs.
    assert batched.pairs == naive.pairs
    assert batched.evaluations == naive.evaluations
    oracle = exhaustive_explore(graph, event, goal, extend, k, **what)
    assert oracle.diff(batched) == ()
    assert batched.evaluations <= oracle.evaluations


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregate_parity(graph, attributes, distinct, n_points):
    window = graph.timeline.labels[:n_points]
    kernel = aggregate(graph, attributes, distinct=distinct, times=window)
    oracle = aggregate_general(graph, attributes, distinct=distinct, times=window)
    assert kernel.diff(oracle) == ()
    assert oracle.diff(kernel) == ()


def test_parallel_aggregate_matches_forced_general_oracle(graph):
    for distinct in (True, False):
        oracle = aggregate_general(graph, ["color"], distinct=distinct)
        kernel = aggregate(graph, ["color"], distinct=distinct)
        assert oracle.diff(kernel) == ()


def test_aggregate_parity_on_sub_window(graph):
    window = graph.timeline.labels[1:5]
    kernel = aggregate(graph, ["level"], distinct=True, times=window)
    oracle = aggregate_general(graph, ["level"], distinct=True, times=window)
    assert kernel.diff(oracle) == ()


def test_evolution_parity_under_scope(graph):
    labels = graph.timeline.labels
    kernel = aggregate_evolution(graph, labels[:3], labels[3:], ["color"])
    oracle = aggregate_evolution_reference(graph, labels[:3], labels[3:], ["color"])
    assert kernel.diff(oracle) == ()


def test_session_parity_under_session_parallelism():
    graph = paper_example()
    session = GraphTempoSession(graph)
    window = ("t0", "t1")
    direct = aggregate(graph, ["gender"], times=session.window(window))
    assert session.aggregate(["gender"], window=window).diff(direct) == ()
    a = session.explore("growth", "minimal", "new", k=1)
    b = explore(graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1)
    assert a.diff(b) == ()
    assert a.evaluations == b.evaluations


# ----------------------------------------------------------------------
# Exploration: all twelve Table-1 combinations + the exhaustive oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_explore_parity_every_case(graph, event, goal, extend, k):
    _assert_explore_parity(graph, event, goal, extend, k)


@pytest.mark.parametrize("production", [True, False])
def test_explore_parity_incremental_and_naive(graph, production):
    """The pruned explorer reports the exhaustive one's pairs, both in
    production and in the per-pair reference."""
    case = (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 2)
    if production:
        pruned, oracle = explore(graph, *case), exhaustive_explore(graph, *case)
    else:
        pruned = explore_reference(graph, *case)
        oracle = exhaustive_reference(graph, *case)
    assert pruned.diff(oracle) == ()
    assert pruned.evaluations <= oracle.evaluations


@pytest.mark.parametrize(
    "event,goal,extend",
    [
        (EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW),
        (EventType.GROWTH, Goal.MAXIMAL, ExtendSide.OLD),
        (EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD),
    ],
)
def test_exhaustive_explore_parity(graph, event, goal, extend):
    batched = exhaustive_explore(graph, event, goal, extend, 1)
    naive = exhaustive_reference(graph, event, goal, extend, 1)
    assert batched.diff(naive) == ()
    assert batched.evaluations == naive.evaluations


def test_explore_parity_with_attribute_key(graph):
    _assert_explore_parity(
        graph,
        EventType.GROWTH,
        Goal.MINIMAL,
        ExtendSide.NEW,
        1,
        entity=EntityKind.NODES,
        attributes=["color"],
        key=("red",),
    )


# ----------------------------------------------------------------------
# The full law registry
# ----------------------------------------------------------------------


def test_registry_is_complete():
    assert len(law_registry()) >= 23


def test_all_laws_hold_under_inline_executor(test_seed):
    report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_all_laws_hold_under_parallel_executor(test_seed):
    report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_fuzz_replay_identical_under_both_executors(test_seed):
    first = run_fuzz(seed=test_seed, cases=2, shrink=False)
    replay = run_fuzz(seed=test_seed, cases=2, shrink=False)
    assert first.ok == replay.ok
    assert first.checks == replay.checks
    assert first.laws == replay.laws
    assert [str(f) for f in first.failures] == [
        str(f) for f in replay.failures
    ]


# ----------------------------------------------------------------------
# Concurrent readers × appender
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


def test_concurrent_readers_and_appender_on_per_call_pools():
    """Reader threads serve while an appender publishes versions.
    Every served result must replay bit-identically against the
    version that served it."""
    store = StreamingStore(paper_example())
    # cache_capacity=0: every request truly executes.
    server = QueryServer(store, cache_capacity=0)
    n_readers = 4
    rounds_total = 5
    updates = _updates(rounds_total - 1)
    records = [[] for _ in range(n_readers)]
    failures = []
    # Bounded waits: a thread that dies breaks the barrier for the rest
    # instead of hanging the suite.
    rounds = threading.Barrier(n_readers + 1, timeout=120)

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
            thread.join(timeout=300)
    finally:
        server.close()
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
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
