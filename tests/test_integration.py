"""Cross-module integration: full pipelines through the whole stack.

Each test chains several subsystems the way a real analysis would,
asserting consistency at every hand-off (generator -> persistence ->
diagnostics -> session -> cube -> exploration -> reports).
"""

import pytest

from repro import GraphTempoSession
from repro.analysis import (
    dataset_report,
    event_series,
    evolution_report,
    turnover,
)
from repro.core import (
    TimeHierarchy,
    aggregate,
    coarsen,
    union,
    with_degree_attribute,
)
from repro.datasets import generate_dblp, load_graph, save_graph
from repro.diagnostics import check_graph
from repro.exploration import (
    EntityKind,
    EventType,
    ExtendSide,
    Goal,
    drill_explore,
    explore,
    explore_groups,
    suggest_threshold,
)
from repro.materialize import MaterializedStore
from repro.olap import TemporalGraphCube, greedy_view_selection
from repro.query import run_query
from repro.testing import assert_same_aggregate
from repro.testing.reference import aggregate_reference


class TestPersistencePipeline:
    def test_generate_save_load_analyze(self, tmp_path, small_dblp):
        """A saved-and-reloaded graph yields identical analyses."""
        save_graph(small_dblp, tmp_path / "dblp")
        reloaded = load_graph(
            tmp_path / "dblp",
            node_parser=int,
            time_parser=int,
            value_parsers={"publications": int},
        )
        assert not [
            f for f in check_graph(reloaded) if f.severity == "error"
        ]
        window = small_dblp.timeline.labels[:5]
        assert_same_aggregate(
            aggregate(union(small_dblp, window), ["gender"]),
            aggregate(union(reloaded, window), ["gender"]),
        )
        original = explore(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 10
        )
        rerun = explore(
            reloaded, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 10
        )
        assert original.pairs == rerun.pairs


class TestSessionPipeline:
    def test_session_cube_query_agree(self, small_movielens):
        """The session cube, the raw API and the query language agree."""
        session = GraphTempoSession(small_movielens)
        via_session = session.aggregate(
            ["gender"], window=("May", "Jul"), distinct=False
        )
        via_api = aggregate(
            union(small_movielens, ["May", "Jun", "Jul"]),
            ["gender"],
            distinct=False,
        )
        via_query = run_query(
            small_movielens, "aggregate gender all over union [May..Jul]"
        )
        via_reference = aggregate_reference(
            union(small_movielens, ["May", "Jun", "Jul"]),
            ["gender"],
            distinct=False,
        )
        assert_same_aggregate(via_session, via_api)
        assert_same_aggregate(via_query, via_api)
        assert_same_aggregate(via_reference, via_api)

    def test_view_selection_feeds_cube(self, small_movielens):
        """Greedy views warm a cube so single-attribute queries never hit
        the base graph."""
        cube = TemporalGraphCube(small_movielens)
        selection = greedy_view_selection(
            small_movielens, small_movielens.attribute_names, budget=5
        )
        for view in selection.selected:
            cube.materialize(view, distinct=False)
        for attr in small_movielens.attribute_names:
            cube.cuboid([attr], distinct=False)
        assert cube.stats.base_computations == 0

    def test_materialized_store_consistent_with_cube(self, small_dblp):
        window = small_dblp.timeline.labels[:6]
        store = MaterializedStore(small_dblp)
        store.precompute(["gender"], distinct=False, times=window)
        cube = TemporalGraphCube(small_dblp)
        cube.materialize(["gender"], per_time_point=True, times=window)
        assert_same_aggregate(
            store.union_aggregate(["gender"], window),
            cube.cuboid(["gender"], times=window, distinct=False),
        )


class TestExplorationPipeline:
    def test_threshold_explore_report_chain(self, small_dblp):
        ff = (("f",), ("f",))
        w = suggest_threshold(
            small_dblp, EventType.GROWTH, "max",
            attributes=["gender"], key=ff,
        )
        result = explore(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, w,
            attributes=["gender"], key=ff,
        )
        # w_th is the max consecutive-pair count, so at least one minimal
        # pair exists and every reported pair meets it.
        assert result.pairs
        assert all(p.count >= w for p in result.pairs)
        series = event_series(
            small_dblp, EventType.GROWTH, attributes=["gender"], key=ff
        )
        assert max(series.counts) == w

    def test_drill_and_groups_compose(self, small_dblp):
        hierarchy = TimeHierarchy.regular(small_dblp.timeline.labels, 7)
        drilled = drill_explore(
            small_dblp, hierarchy,
            EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, k=40,
        )
        assert drilled.coarse.pairs
        sweep = explore_groups(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            k=40, attributes=["gender"],
        )
        # The dominant group's best count can't exceed the unfiltered
        # exploration's best count.
        flat = explore(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 40
        )
        top = sweep.interesting_groups[0]
        assert sweep.best_pair(top).count <= flat.best().count

    def test_derived_attribute_exploration(self, small_dblp):
        """Degree classes work end to end: derive, aggregate, explore."""
        enriched = with_degree_attribute(
            small_dblp, name="dclass", classes=(1, 3)
        )
        counter_key = ("3+",)
        result = explore(
            enriched, EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD, 1,
            entity=EntityKind.NODES, attributes=["dclass"], key=counter_key,
        )
        for pair in result.pairs:
            assert pair.count >= 1


class TestReportingPipeline:
    def test_coarsen_then_report(self, small_dblp):
        hierarchy = TimeHierarchy.regular(small_dblp.timeline.labels, 7)
        coarse = coarsen(small_dblp, hierarchy, "union")
        text = dataset_report(coarse, "coarse")
        assert "coarse" in text
        report = evolution_report(
            coarse,
            [coarse.timeline.labels[0]],
            [coarse.timeline.labels[1]],
            ["gender"],
        )
        assert 0.0 <= turnover(report.aggregate, entity="nodes") <= 1.0
