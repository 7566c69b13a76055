"""Route parity: every way of reaching an executor is bit-identical to serial.

A caller reaches an executor three ways: an explicit ``parallelism=1``
(inline), an explicit ``parallelism=2`` (a per-call pool), or no
argument at all, resolved through ``REPRO_PARALLEL_WORKERS`` (the
*ambient* route that the serving stack and the pool x columnar CI job
take).  ``tests/test_parallel_parity.py`` drives the explicit and
scoped routes; this suite pins the environment route to the same
oracles:

* all eight Table-1 exploration cases — identical pairs *and* identical
  evaluation counts on every route;
* both aggregation engines (the numpy kernel against Algorithm 2), DIST
  and ALL, on every route;
* the full registered fuzz-law suite, and its replay, resolved through
  the environment alone.

Every pooled arm also asserts that a pool really ran (``parallel.maps``
grew), so a resolution rule that silently fell back to inline would
fail here rather than pass vacuously.  The module keeps the test names
of the persistent sharded executor it used to cover; that executor has
been removed and its routes now resolve to the per-call pool.
"""

from __future__ import annotations

import itertools

import pytest

from tests.conftest import TEST_SEED, make_tiny_graph
from repro.core import aggregate
from repro.testing.reference import aggregate_general
from repro.exploration import EventType, ExtendSide, Goal, explore
from repro.obs import get_metrics
from repro.parallel import ENV_MIN_WORK, ENV_WORKERS, parallelism_scope
from repro.testing import run_fuzz

ALL_CASES = tuple(itertools.product(EventType, Goal, ExtendSide))

#: The two pooled routes: explicit, and resolved from the environment.
POOLED_ROUTES = (
    ("parallel", {"parallelism": 2}),
    ("ambient", {}),
)


@pytest.fixture()
def pool_env(monkeypatch):
    """Make the ambient default a 2-worker pool, with no work floor so
    tiny graphs still cross it."""
    monkeypatch.setenv(ENV_WORKERS, "2")
    monkeypatch.setenv(ENV_MIN_WORK, "0")


@pytest.fixture(scope="module")
def graph():
    return make_tiny_graph(seed=17 + TEST_SEED, n_times=7)


def _maps() -> int:
    return get_metrics().counter("parallel.maps")


# ----------------------------------------------------------------------
# Table-1 exploration cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "event,goal,extend",
    ALL_CASES,
    ids=[f"{e}-{g}-{x}" for e, g, x in ALL_CASES],
)
def test_explore_parity_every_case(graph, pool_env, event, goal, extend):
    # An explicit parallelism=1 stays inline whatever the environment says.
    maps = _maps()
    baseline = explore(graph, event, goal, extend, 1, parallelism=1)
    assert _maps() == maps, "parallelism=1 must not reach a pool"
    for name, route in POOLED_ROUTES:
        maps = _maps()
        result = explore(graph, event, goal, extend, 1, **route)
        assert _maps() > maps, f"{name} route never reached a pool"
        assert baseline.diff(result) == (), f"{name} diverged"
        assert baseline.pairs == result.pairs, name
        # Bit-identical includes the pruning decisions, not just pairs.
        assert baseline.evaluations == result.evaluations, name


# ----------------------------------------------------------------------
# Aggregation: the kernel against Algorithm 2, DIST and ALL
# ----------------------------------------------------------------------


@pytest.mark.parametrize("distinct", [True, False], ids=["dist", "all"])
@pytest.mark.parametrize(
    "attributes",
    [["color"], ["level"], ["color", "level"]],
    ids=["static", "varying", "mixed"],
)
def test_aggregate_parity_both_engines(graph, pool_env, attributes, distinct):
    serial = aggregate(graph, attributes, distinct=distinct, parallelism=1)
    oracle = aggregate_general(graph, attributes, distinct=distinct)
    assert oracle.diff(serial) == (), "kernel diverged from Algorithm 2"
    for name, route in POOLED_ROUTES:
        maps = _maps()
        pooled = aggregate(graph, attributes, distinct=distinct, **route)
        assert _maps() > maps, f"{name} route never reached a pool"
        assert serial.diff(pooled) == (), f"{name} pooled kernel diverged"
        assert oracle.diff(pooled) == (), f"{name} diverged from Algorithm 2"


# ----------------------------------------------------------------------
# The full law registry, resolved through the environment alone
# ----------------------------------------------------------------------


def test_all_laws_hold_on_the_fabric(test_seed, pool_env):
    maps = _maps()
    report = run_fuzz(seed=test_seed, cases=3, shrink=False)
    assert _maps() > maps, "the laws never reached a pool"
    assert report.ok, report.summary() + "".join(
        f"\n{f}" for f in report.failures
    )


def test_fuzz_replay_identical_inline_vs_fabric(test_seed, pool_env):
    # A scope of 1 overrides the environment: the serial replay.
    with parallelism_scope(1):
        serial = run_fuzz(seed=test_seed, cases=2, shrink=False)
    maps = _maps()
    pooled = run_fuzz(seed=test_seed, cases=2, shrink=False)
    assert _maps() > maps, "the replay never reached a pool"
    assert serial.ok == pooled.ok
    assert serial.checks == pooled.checks
    assert serial.laws == pooled.laws
    assert [str(f) for f in serial.failures] == [
        str(f) for f in pooled.failures
    ]
