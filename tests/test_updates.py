"""Tests for appending snapshots and incremental materialization."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    SnapshotUpdate,
    TemporalGraph,
    Timeline,
    aggregate,
    append_snapshot,
    snapshot_at,
    split_history,
    union,
)
from repro.errors import (
    AggregationError,
    LabelError,
    UnknownLabelError,
    ValidationError,
)
from repro.frames import LabeledFrame
from repro.materialize import IncrementalStore
from repro.storage import backend_names
from repro.storage.base import resolve_endpoint_rows
from repro.streaming import StreamingStore
from repro.testing import (
    GraphSpec,
    assert_same_graph,
    random_temporal_graph,
    temporal_graphs,
)


def make_update(time="t3"):
    return SnapshotUpdate(
        time=time,
        nodes={
            "u2": {"publications": 2},
            "u5": {"publications": 1},
            "u9": {"publications": 4},
        },
        static={"u9": {"gender": "f"}},
        edges=[("u5", "u2"), ("u9", "u2")],
    )


class TestAppendSnapshot:
    def test_timeline_extended(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.timeline.labels == ("t0", "t1", "t2", "t3")

    def test_original_untouched(self, paper_graph):
        append_snapshot(paper_graph, make_update())
        assert len(paper_graph.timeline) == 3
        assert "u9" not in paper_graph.nodes

    def test_new_node_added(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert "u9" in extended.nodes
        assert extended.attribute_value("u9", "gender") == "f"
        assert extended.node_times("u9") == ("t3",)

    def test_returning_node(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        # u5 existed at t2, returns at t3.
        assert extended.node_times("u5") == ("t2", "t3")
        assert extended.attribute_value("u5", "publications", "t3") == 1

    def test_absent_node_stays_absent(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.node_times("u1") == ("t0", "t1")
        assert extended.attribute_value("u1", "publications", "t3") is None

    def test_existing_edge_extended(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        # (u5, u2) already existed at t2.
        assert extended.edge_times(("u5", "u2")) == ("t2", "t3")

    def test_new_edge_added(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        assert extended.edge_times(("u9", "u2")) == ("t3",)

    def test_duplicate_time_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            append_snapshot(
                paper_graph, SnapshotUpdate(time="t2", nodes={})
            )

    def test_edge_endpoint_missing_from_snapshot(self, paper_graph):
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, edges=[("u2", "u4")]
        )
        with pytest.raises(ValueError):
            append_snapshot(paper_graph, update)

    def test_unknown_varying_attribute(self, paper_graph):
        update = SnapshotUpdate(time="t3", nodes={"u2": {"citations": 9}})
        with pytest.raises(KeyError):
            append_snapshot(paper_graph, update)

    def test_unknown_static_attribute(self, paper_graph):
        update = SnapshotUpdate(
            time="t3", nodes={"zz": {}}, static={"zz": {"height": 3}}
        )
        with pytest.raises(KeyError):
            append_snapshot(paper_graph, update)

    def test_appended_graph_supports_operators(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update())
        agg = aggregate(
            union(extended, ["t2"], ["t3"]), ["gender"], distinct=True
        )
        assert agg.node_weight(("f",)) == 3  # u2, u4, u9

    def test_chained_appends(self, paper_graph):
        extended = append_snapshot(paper_graph, make_update("t3"))
        extended = append_snapshot(
            extended,
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}}),
        )
        assert extended.node_times("u9") == ("t3", "t4")

    def test_empty_update_extends_timeline_only(self, paper_graph):
        extended = append_snapshot(
            paper_graph, SnapshotUpdate(time="t3", nodes={})
        )
        assert extended.timeline.labels == ("t0", "t1", "t2", "t3")
        assert extended.nodes_at("t3") == ()
        assert extended.edges_at("t3") == ()
        # Aggregating the empty snapshot rolls up to nothing, not an error.
        agg = aggregate(extended, ["gender"], distinct=True, times=["t3"])
        assert dict(agg.node_weights) == {}


class TestSnapshotAt:
    def test_unknown_timepoint_rejected(self, paper_graph):
        with pytest.raises(UnknownLabelError):
            snapshot_at(paper_graph, "t9")

    def test_round_trip_through_append(self, paper_graph):
        # Rebuilding t2 from its own snapshot reproduces the original.
        update = snapshot_at(paper_graph, "t2")
        assert update.time == "t2"
        truncated = paper_graph.restricted(
            paper_graph.node_presence.rows_any(["t0", "t1"]),
            paper_graph.edge_presence.rows_any(["t0", "t1"]),
            ["t0", "t1"],
        )
        rebuilt = append_snapshot(truncated, update)
        assert rebuilt.nodes_at("t2") == paper_graph.nodes_at("t2")
        assert rebuilt.edges_at("t2") == paper_graph.edges_at("t2")

    def test_snapshot_carries_varying_values(self, paper_graph):
        update = snapshot_at(paper_graph, "t0")
        assert update.nodes["u1"]["publications"] == 3


class TestSplitHistory:
    def test_replay_reconstructs_graph(self, paper_graph):
        initial, updates = split_history(paper_graph)
        assert initial.timeline.labels == ("t0",)
        assert [u.time for u in updates] == ["t1", "t2"]
        rebuilt = initial
        for update in updates:
            rebuilt = append_snapshot(rebuilt, update)
        assert_same_graph(rebuilt, paper_graph)

    def test_replay_reconstructs_synthetic(self, tiny_graph):
        initial, updates = split_history(tiny_graph)
        rebuilt = initial
        for update in updates:
            rebuilt = append_snapshot(rebuilt, update)
        assert_same_graph(rebuilt, tiny_graph)

    def test_incremental_store_from_history(self, paper_graph):
        store = IncrementalStore.from_history(paper_graph, [("gender",)])
        direct = aggregate(paper_graph, ["gender"], distinct=False)
        assert dict(store.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )


class TestIncrementalStore:
    def test_initial_totals(self, paper_graph):
        store = IncrementalStore(paper_graph, [("gender",)])
        direct = aggregate(paper_graph, ["gender"], distinct=False)
        assert dict(store.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )

    def test_append_updates_totals(self, paper_graph):
        store = IncrementalStore(paper_graph, [("gender",)])
        extended = store.append(make_update())
        direct = aggregate(extended, ["gender"], distinct=False)
        assert dict(store.union_total(["gender"]).node_weights) == dict(
            direct.node_weights
        )
        assert dict(store.union_total(["gender"]).edge_weights) == dict(
            direct.edge_weights
        )

    def test_multiple_tracked_sets(self, paper_graph):
        store = IncrementalStore(
            paper_graph, [("gender",), ("publications",)]
        )
        extended = store.append(make_update())
        for attrs in (["gender"], ["publications"]):
            direct = aggregate(extended, attrs, distinct=False)
            assert dict(store.union_total(attrs).node_weights) == dict(
                direct.node_weights
            )

    def test_timepoint_access(self, paper_graph):
        store = IncrementalStore(paper_graph, [("gender",)])
        store.append(make_update())
        point = store.timepoint_aggregate(["gender"], 3)
        direct = aggregate(store.graph, ["gender"], distinct=False, times=["t3"])
        assert dict(point.node_weights) == dict(direct.node_weights)

    def test_untracked_rejected(self, paper_graph):
        store = IncrementalStore(paper_graph, [("gender",)])
        with pytest.raises(KeyError):
            store.union_total(["publications"])

    def test_duplicate_tracked_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            IncrementalStore(paper_graph, [("gender",), ("gender",)])

    def test_graph_property_tracks_appends(self, paper_graph):
        store = IncrementalStore(paper_graph, [("gender",)])
        assert store.graph is paper_graph
        extended = store.append(make_update())
        assert store.graph is extended


class TestSnapshotUpdateFrozen:
    def test_generator_edges_survive_replay(self, paper_graph):
        """Regression: edges passed as a generator used to be consumed on
        the first append, silently dropping every edge from a replay."""
        update = SnapshotUpdate(
            time="t3",
            nodes={"u2": {"publications": 2}, "u5": {"publications": 1}},
            edges=(e for e in [("u5", "u2")]),
        )
        first = append_snapshot(paper_graph, update)
        second = append_snapshot(paper_graph, update)
        assert first.edge_times(("u5", "u2")) == ("t2", "t3")
        assert_same_graph(first, second)

    def test_edges_frozen_to_tuple(self):
        update = SnapshotUpdate(time="t0", nodes={"a": {}}, edges=iter(()))
        assert update.edges == ()
        assert isinstance(update.edges, tuple)

    def test_mappings_are_owned_copies(self):
        nodes = {"a": {"publications": 1}}
        static = {"a": {"gender": "f"}}
        update = SnapshotUpdate(time="t0", nodes=nodes, static=static)
        nodes["b"] = {}
        static["a"]["gender"] = "m"
        assert set(update.nodes) == {"a"}
        assert update.static["a"]["gender"] == "f"

    def test_update_is_picklable(self):
        import pickle

        update = make_update()
        clone = pickle.loads(pickle.dumps(update))
        assert clone == update


class TestUniformAttributeValidation:
    def test_unknown_static_name_for_known_node(self, paper_graph):
        """Regression: unknown static names were only validated for
        first-appearance nodes; for known nodes they passed silently."""
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, static={"u2": {"height": 180}}
        )
        with pytest.raises(UnknownLabelError):
            append_snapshot(paper_graph, update)

    def test_known_static_name_for_known_node_ignored(self, paper_graph):
        # Valid names on known nodes stay accepted (values ignored:
        # static attributes cannot change).
        update = SnapshotUpdate(
            time="t3", nodes={"u2": {}}, static={"u2": {"gender": "m"}}
        )
        extended = append_snapshot(paper_graph, update)
        assert extended.attribute_value("u2", "gender") == "f"

    def test_edge_attrs_rejected_without_edge_attr_frame(self, paper_graph):
        # paper_graph has no edge attributes: any supplied name is unknown.
        update = SnapshotUpdate(
            time="t3",
            nodes={"u2": {}, "u5": {}},
            edges=[("u5", "u2")],
            edge_attrs={("u5", "u2"): {"papers": 1}},
        )
        with pytest.raises(UnknownLabelError):
            append_snapshot(paper_graph, update)


class TestReplayRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=temporal_graphs())
    def test_split_replay_identity(self, graph):
        """split_history ∘ replay == identity, for arbitrary well-formed
        graphs; replaying the same updates twice stays identical (the
        frozen-update guarantee)."""
        initial, updates = split_history(graph)
        first = initial
        for update in updates:
            first = append_snapshot(first, update)
        assert_same_graph(first, graph)
        second = initial
        for update in updates:
            second = append_snapshot(second, update)
        assert_same_graph(second, first)

    @pytest.mark.parametrize("seed", range(6))
    def test_hostile_graphs_replay_or_reject(self, seed):
        """Dangling-edge (hostile) graphs never replay into something
        different: the replay either reconstructs the graph or fails
        from the taxonomy when a snapshot references a ghost endpoint."""
        graph = random_temporal_graph(
            GraphSpec(n_times=4, n_nodes=8, dangling_edges=2), seed=seed
        )
        initial, updates = split_history(graph)
        rebuilt = initial
        try:
            for update in updates:
                rebuilt = append_snapshot(rebuilt, update)
        except ValidationError:
            return
        assert_same_graph(rebuilt, graph)


class TestMalformedUpdateEdges:
    @pytest.mark.parametrize(
        "edge", [("u5", "u2", "u9"), 5, "ab"], ids=["triple", "int", "string"]
    )
    def test_rejected_before_anything_is_published(self, paper_graph, edge):
        """Regression: edges were unpacked with ``for u, v in edges``, so a
        triple or an int raised a bare ValueError/TypeError, and the
        string ``"ab"`` was published as edge ``'ab'`` that every later
        aggregate then rejected."""
        update = SnapshotUpdate(
            time="t3",
            nodes={"u2": {}, "u5": {}, "u9": {}, "a": {}, "b": {}},
            edges=[edge],
        )
        with pytest.raises(ValidationError, match=r"\(u, v\) tuples"):
            append_snapshot(paper_graph, update)
        store = StreamingStore(paper_graph)
        with pytest.raises(ValidationError):
            store.append_snapshot(update)
        assert store.version == 0
        assert store.graph is paper_graph


def _dangling_graph(storage):
    """Nodes ``a`` (red) and ``b`` (blue) at ``t0``, with edges
    ``('a', 'b')`` and ``('a', 'zz')``: ``zz`` is missing from V."""
    times = ("t0",)
    nodes = ("a", "b")
    edges = (("a", "b"), ("a", "zz"))
    return TemporalGraph(
        timeline=Timeline(times),
        node_presence=LabeledFrame(nodes, times, [[1], [1]], dtype=np.uint8),
        edge_presence=LabeledFrame(edges, times, [[1], [1]], dtype=np.uint8),
        static_attrs=LabeledFrame(
            nodes, ("color",), [["red"], ["blue"]], dtype=object
        ),
        varying_attrs={},
        validate=False,
        storage=storage,
    )


def _label_frames(graph):
    frames = [graph.node_presence, graph.static_attrs, graph.edge_presence]
    return frames + list(graph.varying_attrs.values())


class TestCarriedState:
    """``append_snapshot`` carries row indexes and endpoint rows from the
    parent version; the result must equal state rebuilt from labels."""

    @pytest.mark.parametrize("storage", backend_names())
    def test_dangling_endpoint_that_arrives_later_resolves(self, storage):
        parent = _dangling_graph(storage)
        with pytest.raises(AggregationError, match="zz"):
            aggregate(parent, ["color"])
        child = append_snapshot(
            parent,
            SnapshotUpdate(
                time="t1",
                nodes={"a": {}, "zz": {}},
                static={"zz": {"color": "green"}},
            ),
        )
        src, dst = child.storage.endpoint_rows()
        assert (src.tolist(), dst.tolist()) == ([0, 0], [1, 2])
        result = aggregate(child, ["color"], times=["t0"])
        assert dict(result.edge_weights) == {(("red",), ("blue",)): 1}

    @pytest.mark.parametrize("storage", backend_names())
    def test_parent_version_is_isolated(self, paper_graph, storage):
        v1 = append_snapshot(paper_graph.with_storage(storage), make_update())
        aggregate(v1, ["gender"])
        src, dst = v1.storage.endpoint_rows()
        before = (src.copy(), dst.copy())
        v2 = append_snapshot(
            v1,
            SnapshotUpdate(
                time="t4",
                nodes={"u2": {}, "u7": {}},
                static={"u7": {"gender": "m"}},
                edges=[("u7", "u2")],
            ),
        )
        aggregate(v2, ["gender"])
        node_frames = [v1.node_presence, v1.static_attrs, *v1.varying_attrs.values()]
        for frame in node_frames:
            with pytest.raises(LabelError):
                frame.row_position("u7")
        with pytest.raises(LabelError):
            v1.edge_presence.row_position(("u7", "u2"))
        assert v2.node_presence.row_position("u7") == v1.n_nodes
        rows = v1.storage.endpoint_rows()
        for got, was in zip(rows, before):
            np.testing.assert_array_equal(got, was)
            assert not got.flags.writeable
        for rows in v2.storage.endpoint_rows():
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0] = 7

    @pytest.mark.parametrize("storage", backend_names())
    def test_unread_parent_yields_the_same_rows(self, paper_graph, storage):
        read = paper_graph.with_storage(storage)
        aggregate(read, ["gender"])
        # A new, unvalidated graph over the same frames holds no rows
        # (``with_storage`` would share the rows ``read`` holds).
        unread = TemporalGraph(
            paper_graph.timeline,
            paper_graph.node_presence,
            paper_graph.edge_presence,
            paper_graph.static_attrs,
            paper_graph.varying_attrs,
            validate=False,
            storage=storage,
        )
        update = make_update()
        carried = append_snapshot(read, update)
        resolved = append_snapshot(unread, update)
        assert carried._resolved_endpoint_rows() is not None
        assert resolved._resolved_endpoint_rows() is None
        expected = resolve_endpoint_rows(carried.nodes, carried.edges)
        for graph in (carried, resolved):
            for got, want in zip(graph.storage.endpoint_rows(), expected):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            for frame in _label_frames(graph):
                assert [frame.row_position(n) for n in frame.row_labels] == list(
                    range(frame.n_rows)
                )
