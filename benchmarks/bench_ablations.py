"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **Monotonicity pruning** (Section 3.2): the pruned U-/I-Explore vs.
  the exhaustive oracle over the same candidate space.
* **Static-attribute fast path** (Section 4.2): the direct grouping
  implementation vs. running the general unpivot/dedup pipeline on a
  static attribute.
* **Materialization granularity** (Section 4.3): deriving a union(ALL)
  aggregate from per-point aggregates vs. recomputing, at two interval
  lengths (the crossover the partial-materialization argument rests on).
"""

import pytest

from repro.core import aggregate, union
from repro.testing.reference import (
    _aggregate_general,
    _aggregate_static_fast,
    aggregate_reference,
)
from repro.exploration import (
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    explore,
)
from repro.materialize import MaterializedStore


class TestPruningAblation:
    @pytest.mark.parametrize("strategy", ["pruned", "exhaustive"])
    def test_stability_minimal(self, benchmark, dblp, strategy):
        fn = explore if strategy == "pruned" else exhaustive_explore
        result = benchmark(
            fn, dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        assert result.evaluations > 0

    @pytest.mark.parametrize("strategy", ["pruned", "exhaustive"])
    def test_growth_maximal(self, benchmark, dblp, strategy):
        fn = explore if strategy == "pruned" else exhaustive_explore
        result = benchmark(
            fn, dblp, EventType.GROWTH, Goal.MAXIMAL, ExtendSide.OLD, 5
        )
        assert result.evaluations > 0

    def test_pruning_saves_evaluations(self, dblp):
        pruned = explore(
            dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        oracle = exhaustive_explore(
            dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW, 5
        )
        assert pruned.evaluations < oracle.evaluations
        assert pruned.pairs == oracle.pairs


class TestStaticFastPathAblation:
    @pytest.mark.parametrize("path", ["fast", "general"])
    def test_union_window_gender(self, benchmark, dblp, path):
        times = dblp.timeline.labels
        fn = _aggregate_static_fast if path == "fast" else _aggregate_general
        result = benchmark(fn, dblp, ["gender"], times, True)
        assert result.total_node_weight() > 0

    def test_paths_agree(self, dblp):
        times = dblp.timeline.labels[:8]
        fast = _aggregate_static_fast(dblp, ["gender"], times, False)
        general = _aggregate_general(dblp, ["gender"], times, False)
        assert dict(fast.node_weights) == dict(general.node_weights)
        assert dict(fast.edge_weights) == dict(general.edge_weights)


class TestMaterializationGranularity:
    @pytest.mark.parametrize("length", [3, 21])
    @pytest.mark.parametrize("source", ["scratch", "materialized"])
    def test_union_all(self, benchmark, dblp, source, length):
        span = dblp.timeline.labels[:length]
        if source == "scratch":
            benchmark(
                lambda: aggregate(union(dblp, span), ["gender"], distinct=False)
            )
        else:
            store = MaterializedStore(dblp)
            store.precompute(["gender"], distinct=False, times=span)
            benchmark(store.union_aggregate, ["gender"], span)


class TestVectorizedEngineAblation:
    """Algorithm-2 reference vs. the production kernel — same results
    (asserted in tests), different constants."""

    @pytest.mark.parametrize("engine", ["algorithm2", "vectorized"])
    @pytest.mark.parametrize("attr", ["gender", "publications"])
    def test_union_window(self, benchmark, dblp, engine, attr):
        window = dblp.timeline.labels
        sub = union(dblp, window)
        fn = aggregate_reference if engine == "algorithm2" else aggregate
        result = benchmark(fn, sub, [attr], False)
        assert result.total_node_weight() > 0

    @pytest.mark.parametrize("engine", ["algorithm2", "vectorized"])
    def test_movielens_varying(self, benchmark, movielens, engine):
        sub = union(movielens, movielens.timeline.labels)
        fn = aggregate_reference if engine == "algorithm2" else aggregate
        result = benchmark(fn, sub, ["rating"], True)
        assert result.total_node_weight() > 0
