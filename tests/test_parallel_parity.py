"""Parallel-vs-serial parity: pooled results must be bit-identical.

The executor contract says results never depend on which executor ran.
This suite enforces it at every fan-out site:

* aggregation (both engines, DIST and ALL) — ``diff()`` against the
  serial run and against the forced-general oracle engine;
* evolution and session facades under a ``parallelism_scope``;
* all eight Table-1 exploration cases plus the exhaustive oracle —
  identical pairs *and* identical evaluation counts (the pruning must
  not change when chains are distributed);
* every registered fuzz law, replayed under the inline executor and
  under a 2-worker scope with the implicit-parallelism work floor
  removed, so even tiny operations actually cross the pool.

Pool startup is real (~10ms per fan-out), so cases here stay small;
the scaling story lives in ``benchmarks/bench_parallel_speedup.py``.
"""

from __future__ import annotations

import itertools

import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate, aggregate_evolution
from repro.testing.reference import aggregate_general
from repro.datasets import paper_example
from repro.exploration import (
    EntityKind,
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.parallel import parallelism_scope
from repro.session import GraphTempoSession
from repro.testing import law_registry, run_fuzz

WORKER_COUNTS = (2, 4)

ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))


@pytest.fixture()
def no_work_floor(monkeypatch):
    """Remove the implicit-parallelism gate so tiny graphs still pool."""
    monkeypatch.setenv("REPRO_PARALLEL_MIN_WORK", "0")


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=17 + TEST_SEED, n_times=7)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("distinct", [True, False])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregate_parity(graph, attributes, distinct, workers):
    serial = aggregate(graph, attributes, distinct=distinct)
    pooled = aggregate(
        graph, attributes, distinct=distinct, parallelism=workers
    )
    assert serial.diff(pooled) == ()
    assert pooled.diff(serial) == ()


def test_parallel_aggregate_matches_forced_general_oracle(graph):
    # The Algorithm-2 reference stays serial; the pooled kernel must
    # still agree with it bit for bit.
    for distinct in (True, False):
        oracle = aggregate_general(graph, ["color"], distinct=distinct)
        pooled = aggregate(graph, ["color"], distinct=distinct, parallelism=2)
        assert oracle.diff(pooled) == ()


def test_aggregate_parity_on_sub_window(graph):
    window = graph.timeline.labels[1:5]
    serial = aggregate(graph, ["level"], distinct=True, times=window)
    pooled = aggregate(
        graph, ["level"], distinct=True, times=window, parallelism=3
    )
    assert serial.diff(pooled) == ()


def test_evolution_parity_under_scope(graph, no_work_floor):
    labels = graph.timeline.labels
    serial = aggregate_evolution(graph, labels[:3], labels[3:], ["color"])
    with parallelism_scope(2):
        pooled = aggregate_evolution(graph, labels[:3], labels[3:], ["color"])
    assert serial.diff(pooled) == ()


def test_session_parity_under_session_parallelism(no_work_floor):
    graph = paper_example()
    serial = GraphTempoSession(graph)
    pooled = GraphTempoSession(graph, parallelism=2)
    window = ("t0", "t1")
    assert (
        serial.aggregate(["gender"], window=window)
        .diff(pooled.aggregate(["gender"], window=window))
        == ()
    )
    a = serial.explore("growth", "minimal", "new", k=1)
    b = pooled.explore("growth", "minimal", "new", k=1)
    assert a.diff(b) == ()
    assert a.evaluations == b.evaluations


# ----------------------------------------------------------------------
# Exploration: all eight Table-1 cases + the exhaustive oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_explore_parity_every_case(graph, event, goal, extend, workers):
    serial = explore(graph, event, goal, extend, 1)
    pooled = explore(graph, event, goal, extend, 1, parallelism=workers)
    assert serial.diff(pooled) == ()
    # Bit-identical means the pruning decisions too, not just the pairs.
    assert serial.pairs == pooled.pairs
    assert serial.evaluations == pooled.evaluations


@pytest.mark.parametrize("incremental", [True, False])
def test_explore_parity_incremental_and_naive(graph, incremental):
    serial = explore(
        graph,
        EventType.STABILITY,
        Goal.MAXIMAL,
        ExtendSide.NEW,
        2,
        incremental=incremental,
    )
    pooled = explore(
        graph,
        EventType.STABILITY,
        Goal.MAXIMAL,
        ExtendSide.NEW,
        2,
        incremental=incremental,
        parallelism=2,
    )
    assert serial.diff(pooled) == ()
    assert serial.evaluations == pooled.evaluations


@pytest.mark.parametrize(
    "event,goal,extend",
    [
        (EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW),
        (EventType.GROWTH, Goal.MAXIMAL, ExtendSide.OLD),
        (EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD),
    ],
)
def test_exhaustive_explore_parity(graph, event, goal, extend):
    serial = exhaustive_explore(graph, event, goal, extend, 1)
    pooled = exhaustive_explore(graph, event, goal, extend, 1, parallelism=2)
    assert serial.diff(pooled) == ()
    assert serial.evaluations == pooled.evaluations


def test_explore_parity_with_attribute_key(graph):
    serial = explore(
        graph,
        EventType.GROWTH,
        Goal.MINIMAL,
        ExtendSide.NEW,
        1,
        entity=EntityKind.NODES,
        attributes=["color"],
        key=("red",),
    )
    pooled = explore(
        graph,
        EventType.GROWTH,
        Goal.MINIMAL,
        ExtendSide.NEW,
        1,
        entity=EntityKind.NODES,
        attributes=["color"],
        key=("red",),
        parallelism=2,
    )
    assert serial.diff(pooled) == ()


# ----------------------------------------------------------------------
# The full law registry under both executors
# ----------------------------------------------------------------------


def test_registry_is_complete():
    assert len(law_registry()) >= 23


def test_all_laws_hold_under_inline_executor(test_seed):
    report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_all_laws_hold_under_parallel_executor(test_seed, no_work_floor):
    with parallelism_scope(2):
        report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_fuzz_replay_identical_under_both_executors(test_seed, no_work_floor):
    serial = run_fuzz(seed=test_seed, cases=2, shrink=False)
    with parallelism_scope(2):
        pooled = run_fuzz(seed=test_seed, cases=2, shrink=False)
    assert serial.ok == pooled.ok
    assert serial.checks == pooled.checks
    assert serial.laws == pooled.laws
    assert [str(f) for f in serial.failures] == [
        str(f) for f in pooled.failures
    ]
