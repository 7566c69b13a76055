"""Unit tests for TemporalGraph and TemporalGraphBuilder."""

import numpy as np
import pytest

from repro.core import (
    GraphIntegrityError,
    TemporalGraph,
    TemporalGraphBuilder,
    Timeline,
)
from repro.frames import LabeledFrame
from repro.frames.errors import DuplicateLabelError


def build_simple() -> TemporalGraph:
    builder = TemporalGraphBuilder(
        ["t0", "t1"], static=["gender"], varying=["pubs"]
    )
    builder.add_node("a", {"gender": "m"})
    builder.add_node("b", {"gender": "f"})
    builder.set_node_presence("a", "t0", pubs=1)
    builder.set_node_presence("a", "t1", pubs=2)
    builder.set_node_presence("b", "t0", pubs=3)
    builder.add_edge("a", "b", ["t0"])
    return builder.build()


class TestBuilder:
    def test_builds_graph(self):
        graph = build_simple()
        assert graph.n_nodes == 2
        assert graph.n_edges == 1

    def test_presence_recorded(self):
        graph = build_simple()
        assert graph.node_times("a") == ("t0", "t1")
        assert graph.node_times("b") == ("t0",)

    def test_varying_values(self):
        graph = build_simple()
        assert graph.attribute_value("a", "pubs", "t1") == 2
        assert graph.attribute_value("b", "pubs", "t1") is None

    def test_static_values(self):
        graph = build_simple()
        assert graph.attribute_value("b", "gender") == "f"

    def test_presence_before_add_node(self):
        builder = TemporalGraphBuilder(["t0"])
        with pytest.raises(KeyError):
            builder.set_node_presence("ghost", "t0")

    def test_unknown_static_attribute(self):
        builder = TemporalGraphBuilder(["t0"], static=["gender"])
        with pytest.raises(KeyError):
            builder.add_node("a", {"height": 3})

    def test_unknown_varying_attribute(self):
        builder = TemporalGraphBuilder(["t0"])
        builder.add_node("a")
        with pytest.raises(KeyError):
            builder.set_node_presence("a", "t0", pubs=1)

    def test_unknown_time(self):
        builder = TemporalGraphBuilder(["t0"])
        builder.add_node("a")
        with pytest.raises(KeyError):
            builder.set_node_presence("a", "t9")

    def test_self_loop_rejected_by_default(self):
        builder = TemporalGraphBuilder(["t0"])
        builder.add_node("a")
        with pytest.raises(ValueError):
            builder.add_edge("a", "a")

    def test_self_loop_allowed_when_opted_in(self):
        builder = TemporalGraphBuilder(["t0"], allow_self_loops=True)
        builder.add_node("a")
        builder.set_node_presence("a", "t0")
        builder.add_edge("a", "a", ["t0"])
        assert builder.build().n_edges == 1

    def test_edge_unknown_endpoint(self):
        builder = TemporalGraphBuilder(["t0"])
        builder.add_node("a")
        with pytest.raises(KeyError):
            builder.add_edge("a", "b")

    def test_edge_requires_active_endpoints(self):
        builder = TemporalGraphBuilder(["t0", "t1"])
        builder.add_node("a")
        builder.add_node("b")
        builder.set_node_presence("a", "t0")
        builder.set_node_presence("b", "t1")
        with pytest.raises(ValueError):
            builder.add_edge("a", "b", ["t0"])

    def test_set_edge_presence_requires_existing_edge(self):
        builder = TemporalGraphBuilder(["t0"])
        builder.add_node("a")
        builder.add_node("b")
        with pytest.raises(KeyError):
            builder.set_edge_presence("a", "b", "t0")

    def test_re_add_node_merges_static(self):
        builder = TemporalGraphBuilder(["t0"], static=["gender"])
        builder.add_node("a", {"gender": "m"})
        builder.add_node("a", {"gender": "f"})
        builder.set_node_presence("a", "t0")
        assert builder.build().attribute_value("a", "gender") == "f"


class TestValidation:
    def _frames(self):
        times = ("t0", "t1")
        nodes = LabeledFrame(["a", "b"], times, [[1, 1], [1, 0]])
        edges = LabeledFrame([("a", "b")], times, [[1, 0]])
        static = LabeledFrame(["a", "b"], ["gender"], [["m"], ["f"]])
        return times, nodes, edges, static

    def test_valid_graph(self):
        times, nodes, edges, static = self._frames()
        graph = TemporalGraph(Timeline(times), nodes, edges, static, {})
        assert graph.n_nodes == 2

    def test_edge_missing_endpoint(self):
        times, nodes, _, static = self._frames()
        edges = LabeledFrame([("a", "zz")], times, [[1, 0]])
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, static, {})

    def test_edge_active_when_endpoint_absent(self):
        times, nodes, _, static = self._frames()
        edges = LabeledFrame([("a", "b")], times, [[1, 1]])  # b absent at t1
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, static, {})

    def test_validation_can_be_skipped(self):
        times, nodes, _, static = self._frames()
        edges = LabeledFrame([("a", "b")], times, [[1, 1]])
        graph = TemporalGraph(
            Timeline(times), nodes, edges, static, {}, validate=False
        )
        assert graph.n_edges == 1

    def test_non_tuple_edge_labels_rejected(self):
        times, nodes, _, static = self._frames()
        edges = LabeledFrame(["a->b"], times, [[1, 0]])
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, static, {})

    def test_node_column_mismatch(self):
        times, nodes, edges, static = self._frames()
        bad_nodes = LabeledFrame(["a", "b"], ["x", "y"], [[1, 1], [1, 0]])
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), bad_nodes, edges, static, {})

    def test_static_row_mismatch(self):
        times, nodes, edges, _ = self._frames()
        bad_static = LabeledFrame(["a"], ["gender"], [["m"]])
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, bad_static, {})

    def test_varying_column_mismatch(self):
        times, nodes, edges, static = self._frames()
        varying = {"pubs": LabeledFrame(["a", "b"], ["x", "y"], [[1, 1], [1, 1]])}
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, static, varying)

    def test_attribute_declared_twice(self):
        times, nodes, edges, _ = self._frames()
        static = LabeledFrame(["a", "b"], ["pubs"], [[1], [2]])
        varying = {
            "pubs": LabeledFrame(["a", "b"], times, [[1, 1], [1, None]])
        }
        with pytest.raises(GraphIntegrityError):
            TemporalGraph(Timeline(times), nodes, edges, static, varying)


class TestAccessors:
    def test_nodes_edges(self, paper_graph):
        assert set(paper_graph.nodes) == {"u1", "u2", "u3", "u4", "u5"}
        assert ("u1", "u2") in paper_graph.edges

    def test_attribute_names(self, paper_graph):
        assert paper_graph.attribute_names == ("gender", "publications")

    def test_is_static(self, paper_graph):
        assert paper_graph.is_static("gender")
        assert not paper_graph.is_static("publications")

    def test_is_static_unknown(self, paper_graph):
        with pytest.raises(KeyError):
            paper_graph.is_static("height")

    def test_attribute_value_varying_needs_time(self, paper_graph):
        with pytest.raises(ValueError):
            paper_graph.attribute_value("u1", "publications")

    def test_edge_times(self, paper_graph):
        assert paper_graph.edge_times(("u1", "u2")) == ("t0", "t1")

    def test_nodes_at(self, paper_graph):
        assert set(paper_graph.nodes_at("t2")) == {"u2", "u4", "u5"}

    def test_counts_at(self, paper_graph):
        assert paper_graph.n_nodes_at("t0") == 4
        assert paper_graph.n_edges_at("t2") == 3

    def test_size_table(self, paper_graph):
        table = paper_graph.size_table()
        assert table[0] == ("t0", 4, 3)

    def test_repr(self, paper_graph):
        assert "5 nodes" in repr(paper_graph)

    def test_equality(self, paper_graph):
        from repro.datasets import paper_example

        assert paper_graph == paper_example()

    def test_equality_other_type(self, paper_graph):
        assert paper_graph.__eq__(1) is NotImplemented


class TestRestricted:
    def test_restricted_subset(self, paper_graph):
        sub = paper_graph.restricted(
            ["u1", "u2"], [("u1", "u2")], ["t0", "t1"]
        )
        assert sub.n_nodes == 2
        assert sub.n_edges == 1
        assert sub.timeline.labels == ("t0", "t1")

    def test_restricted_attributes_follow(self, paper_graph):
        sub = paper_graph.restricted(["u2"], [], ["t1"])
        assert sub.attribute_value("u2", "gender") == "f"
        assert sub.attribute_value("u2", "publications", "t1") == 1

    def test_restricted_empty(self, paper_graph):
        sub = paper_graph.restricted([], [], ["t0"])
        assert sub.n_nodes == 0
        assert sub.n_edges == 0

    @pytest.mark.parametrize("node_rows", [[0, 2, 3], [3, 0, 2]])
    def test_take_shares_one_label_tuple_and_index_per_axis(
        self, paper_graph, node_rows
    ):
        sub = paper_graph.take(node_rows, [0, 3], ["t1", "t0"])
        node_frames = [sub.node_presence, sub.static_attrs]
        node_frames += sub.varying_attrs.values()
        for frame in node_frames:
            assert frame.row_labels is sub.nodes
            assert frame._row_index is sub.node_presence._row_index
        assert sub.varying_attrs["publications"].col_labels is sub.timeline.labels
        assert sub.edge_presence.col_labels is sub.timeline.labels
        # One lookup fills the index that every node-axis frame reads.
        assert sub.static_attrs.row_position("u4") == node_rows.index(3)
        assert len(sub.node_presence._row_index) == 3
        assert sub.attribute_value("u4", "publications", "t1") == 1

    def test_take_rejects_repeated_rows(self, paper_graph):
        with pytest.raises(DuplicateLabelError):
            paper_graph.take([0, 0], [], ["t0"])
