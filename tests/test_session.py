"""Tests for the interactive session facade."""

import pytest

from repro import GraphTempoSession
from repro.core import SnapshotUpdate, TimeHierarchy, aggregate, union
from repro.exploration import EventType, ExtendSide, Goal
from repro.query import run_query
from repro.storage import backend_names


@pytest.fixture()
def session(paper_graph):
    hierarchy = TimeHierarchy({"early": ["t0", "t1"], "late": ["t2"]})
    return GraphTempoSession(paper_graph, hierarchy)


class TestWindowResolution:
    def test_none_is_whole_timeline(self, session):
        assert session.window(None) == ("t0", "t1", "t2")

    def test_span_pair(self, session):
        assert session.window(("t0", "t1")) == ("t0", "t1")

    def test_label_list(self, session):
        assert session.window(["t2", "t0"]) == ("t2", "t0")

    def test_hierarchy_units(self, session):
        assert session.window(["early"]) == ("t0", "t1")
        assert session.window(["early", "late"]) == ("t0", "t1", "t2")

    def test_unknown_label(self, session):
        with pytest.raises(KeyError):
            session.window(["t9"])


class TestOperators:
    def test_project(self, session):
        assert set(session.project(["t2"]).nodes) == {"u2", "u4", "u5"}

    def test_union(self, session, paper_graph):
        assert session.union(["t0"], ["t1"]) == union(paper_graph, ["t0"], ["t1"])

    def test_union_single_window(self, session):
        assert session.union(("t0", "t2")).n_nodes == 5

    def test_intersection(self, session):
        assert set(session.intersection(["t0"], ["t1"]).edges) == {("u1", "u2")}

    def test_difference(self, session):
        result = session.difference(["t0"], ["t1"])
        assert ("u2", "u3") in result.edges


class TestAggregation:
    def test_aggregate_matches_direct(self, session, paper_graph):
        via_session = session.aggregate(["gender"], window=("t0", "t1"))
        direct = aggregate(
            union(paper_graph, ["t0", "t1"]), ["gender"], distinct=True
        )
        assert dict(via_session.node_weights) == dict(direct.node_weights)

    def test_aggregate_uses_cube_cache(self, session):
        session.aggregate(["gender"], window=["t0"])
        session.aggregate(["gender"], window=["t0"])
        assert session.cube.stats.exact_hits == 1

    def test_materialize_is_chainable(self, session):
        result = session.materialize(["gender"])
        assert result is session
        assert session.cube.materialized_count == 3  # one per time point

    def test_hierarchy_unit_window(self, session, paper_graph):
        via_unit = session.aggregate(["gender"], window=["early"], distinct=False)
        direct = aggregate(
            union(paper_graph, ["t0", "t1"]), ["gender"], distinct=False
        )
        assert dict(via_unit.node_weights) == dict(direct.node_weights)


class TestEvolutionAndExploration:
    def test_evolution(self, session):
        evo = session.evolution(["t0"], ["t1"], ["gender", "publications"])
        assert evo.node(("f", 1)).stability == 1

    def test_explore_with_strings(self, session):
        result = session.explore("growth", "minimal", "new", k=1)
        assert result.event is EventType.GROWTH
        assert result.goal is Goal.MINIMAL
        assert result.extend is ExtendSide.NEW
        assert result.pairs

    def test_explore_default_threshold(self, session):
        result = session.explore("stability")
        assert result.k >= 1

    def test_explore_groups(self, session):
        multi = session.explore_groups(
            "growth", "minimal", "new", 1, ["gender"]
        )
        assert multi.pairs_by_group

    def test_exploration_text(self, session):
        text = session.exploration_text(
            "growth", "minimal", "new", thresholds=[1]
        )
        assert "T_old" in text


class TestZoomAndReports:
    def test_zoom_out(self, session):
        zoomed = session.zoom_out()
        assert zoomed.graph.timeline.labels == ("early", "late")

    def test_zoom_out_strict(self, session):
        zoomed = session.zoom_out("intersection")
        assert "u3" not in zoomed.graph.nodes

    def test_zoom_out_keeps_the_storage_pin(self, paper_graph):
        hierarchy = TimeHierarchy({"early": ["t0", "t1"], "late": ["t2"]})
        pinned = GraphTempoSession(paper_graph, hierarchy, storage="columnar")
        zoomed = pinned.zoom_out()
        assert zoomed.storage == "columnar"
        assert zoomed.graph.storage_name == "columnar"

    def test_zoom_without_hierarchy(self, paper_graph):
        with pytest.raises(ValueError):
            GraphTempoSession(paper_graph).zoom_out()

    def test_report(self, session):
        assert "session graph" in session.report()

    def test_evolution_text(self, session):
        text = session.evolution_text(["t0"], ["t1"], ["gender"])
        assert "Aggregate nodes" in text


class TestSessionQuery:
    def test_query_aggregate(self, session):
        agg = session.query("aggregate gender over union [t0], [t1]")
        assert agg.node_weight(("f",)) == 3

    def test_query_operator(self, session, paper_graph):
        result = session.query("intersection [t0], [t1]")
        assert set(result.edges) == {("u1", "u2")}

    def test_query_explore(self, session):
        result = session.query("explore growth k 1")
        assert result.pairs


class TestStoragePinnedServing:
    @pytest.mark.parametrize("storage", backend_names())
    def test_server_follows_appends(self, paper_graph, storage):
        session = GraphTempoSession(paper_graph, storage=storage)
        server = session.serving
        session.append(
            SnapshotUpdate(
                time="t3",
                nodes={"u2": {"publications": 2}, "u9": {"publications": 4}},
                static={"u9": {"gender": "f"}},
                edges=[("u9", "u2")],
            )
        )
        assert server.graph is session.graph
        assert server.graph.storage_name == storage
        text = "aggregate gender, publications over union [t2], [t3]"
        assert session.query(text) == run_query(session.stream.graph, text)
