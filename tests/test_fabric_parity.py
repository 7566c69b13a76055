"""Engine parity on one small graph: fast paths against their oracles.

* all eight Table-1 exploration cases — the batched walk reports the
  same pairs *and* the same evaluation count as the per-pair reference,
  and the same pairs as the exhaustive by-definition explorer;
* the aggregation kernel against Algorithm 2, DIST and ALL;
* the full registered fuzz-law suite, and its replay.

The module and test names are those of the executor suite it
replaced; every call now runs inline.
"""

from __future__ import annotations

import itertools

import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate
from repro.testing.reference import aggregate_general, explore_reference
from repro.exploration import (
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.testing import run_fuzz

ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=17 + TEST_SEED, n_times=7)


# ----------------------------------------------------------------------
# Table-1 exploration cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_explore_parity_every_case(graph, event, goal, extend):
    batched = explore(graph, event, goal, extend, 1)
    naive = explore_reference(graph, event, goal, extend, 1)
    assert batched.diff(naive) == ()
    assert batched.pairs == naive.pairs
    # Bit-identical includes the pruning decisions, not just pairs.
    assert batched.evaluations == naive.evaluations
    oracle = exhaustive_explore(graph, event, goal, extend, 1)
    assert oracle.diff(batched) == (), "diverged from the exhaustive oracle"


# ----------------------------------------------------------------------
# Aggregation: the kernel against Algorithm 2, DIST and ALL
# ----------------------------------------------------------------------


@pytest.mark.parametrize("distinct", [True, False], ids=["dist", "all"])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregate_parity_both_engines(graph, attributes, distinct):
    kernel = aggregate(graph, attributes, distinct=distinct)
    oracle = aggregate_general(graph, attributes, distinct=distinct)
    assert oracle.diff(kernel) == (), "kernel diverged from Algorithm 2"


# ----------------------------------------------------------------------
# The full law registry
# ----------------------------------------------------------------------


def test_all_laws_hold_on_the_fabric(test_seed):
    report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_fuzz_replay_identical_inline_vs_fabric(test_seed):
    first = run_fuzz(seed=test_seed, cases=2, shrink=False)
    replay = run_fuzz(seed=test_seed, cases=2, shrink=False)
    assert first.ok == replay.ok
    assert first.checks == replay.checks
    assert first.laws == replay.laws
    assert [str(f) for f in first.failures] == [
        str(f) for f in replay.failures
    ]
