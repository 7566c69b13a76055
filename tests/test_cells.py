"""The cell index the kernel reads (``repro.core.cells``): built from the
frames, carried by appends, derived by operators and shared by
``with_storage`` -- and every way of getting it decodes to the index
built from the graph's own frames."""

import copy
import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.graph
import repro.core.updates
import repro.storage.base
import repro.storage.columnar
import repro.storage.dense
from repro import GraphTempoSession
from repro.core import (
    SnapshotUpdate,
    TemporalGraphBuilder,
    aggregate,
    append_snapshot,
    difference,
    intersection,
    project,
    snapshot_at,
    union,
)
from repro.core.cells import build_cells
from repro.datasets import generate_dblp, paper_example
from repro.frames.labeled_frame import RowPrefix
from repro.storage import backend_names
from repro.storage.base import resolve_endpoint_rows
from repro.streaming import StreamingStore
from repro.testing.generators import graph_from_maps, graph_to_maps
from repro.testing.reference import aggregate_reference


def decoded(graph):
    return graph._cell_index().decoded()


def from_frames(graph):
    return build_cells(graph).decoded()


def indexed_paper_graph():
    graph = paper_example()
    aggregate(graph, ["gender", "publications"])
    return graph


def sibling_updates(label, count=2):
    """``count`` different snapshots for the same new point.  Appended to
    one parent, each writes its rows, values and new pool entries at the
    same buffer positions."""
    updates = [
        SnapshotUpdate(
            time=label,
            nodes={
                "u1": {"publications": 7},
                "u4": {"publications": None},
                f"a{label}": {"publications": 8},
            },
            static={f"a{label}": {"gender": "x"}},
            edges=[("u1", "u4"), (f"a{label}", "u1")],
        ),
    ]
    updates += [
        SnapshotUpdate(
            time=label,
            nodes={"u2": {"publications": 9 + i}, f"b{i}{label}": {}},
            static={f"b{i}{label}": {"gender": f"y{i}"}},
            edges=[(f"b{i}{label}", "u2")],
        )
        for i in range(count - 1)
    ]
    return updates


def row_axes(graph):
    """The labels, each label's row and the endpoint rows a graph reads."""
    nodes, edges = graph.node_presence, graph.edge_presence
    return (
        tuple(nodes._rows()),
        tuple(edges._rows()),
        [nodes.row_position(label) for label in graph.nodes],
        [edges.row_position(label) for label in graph.edges],
        [side.tolist() for side in graph._endpoint_rows()],
    )


def maps_after(maps, update):
    """``graph_to_maps`` of a graph whose maps are ``maps``, after
    appending ``update``."""
    after = copy.deepcopy(maps)
    label = update.time
    after["times"].append(label)
    for node, values in update.nodes.items():
        if node not in after["node_times"]:
            after["node_times"][node] = []
            after["static"][node] = dict(update.static[node])
        after["node_times"][node].append(label)
        for name, value in values.items():
            if value is not None:
                after["varying"].setdefault(node, {}).setdefault(name, {})[label] = value
    for edge in update.edges:
        after["edge_times"].setdefault(edge, []).append(label)
    return after


class TestBuiltIndex:
    def test_holds_time_major_rows_and_codes(self):
        graph = paper_example()
        index = build_cells(graph)
        presence = graph.node_presence.values
        for t in range(len(graph.timeline)):
            rows = index.node_rows[index.node_indptr[t] : index.node_indptr[t + 1]]
            assert rows.tolist() == np.flatnonzero(presence[:, t]).tolist()
        assert index.node_rows.dtype == np.int32
        assert index.edge_rows.dtype == np.int32
        for name in ("gender", "publications"):
            assert index.codes(name).dtype == np.int32
        values = decoded(graph)["values"]
        assert values["gender"] == graph.static_attrs.column("gender").tolist()
        events = graph.varying_attrs["publications"].values.T[presence.T > 0]
        assert values["publications"] == events.tolist()

    def test_built_once_on_the_first_kernel_call(self):
        graph = paper_example()
        assert graph._carried.cells is None
        aggregate(graph, ["gender"])
        index = graph._carried.cells
        assert index is not None
        aggregate(graph, ["publications"], times=["t1"])
        assert graph._carried.cells is index


    def test_unhashable_values_take_a_slot_each(self):
        builder = TemporalGraphBuilder(["t0", "t1"], static=["color", "tags"])
        builder.add_node("a", {"color": "red", "tags": ["x"]})
        builder.add_node("b", {"color": "blue", "tags": ["x"]})
        for node, time in (("a", "t0"), ("b", "t0"), ("b", "t1")):
            builder.set_node_presence(node, time)
        builder.add_edge("a", "b", ["t0"])
        graph = builder.build()
        result = aggregate(graph, ["color"])
        assert dict(result.node_weights) == {("red",): 1, ("blue",): 1}
        assert dict(result.edge_weights) == {(("red",), ("blue",)): 1}
        assert graph._cell_index().pool("tags")[1] == 2
        child = append_snapshot(
            graph,
            SnapshotUpdate(
                time="t2",
                nodes={"a": {}, "c": {}},
                static={"c": {"color": "red", "tags": ["y"]}},
            ),
        )
        assert decoded(child) == from_frames(child)


class TestCarriedByAppends:
    def test_extends_the_parent_index(self):
        parent = indexed_paper_graph()
        before = decoded(parent)
        child = append_snapshot(parent, sibling_updates("t3")[0])
        assert child._carried.cells is not None
        assert decoded(child) == from_frames(child)
        assert decoded(parent) == before

    def test_parent_without_an_index_hands_none_on(self):
        child = append_snapshot(paper_example(), sibling_updates("t3")[0])
        assert child._carried.cells is None
        assert decoded(child) == from_frames(child)

    def test_sibling_appends_each_carry_their_own_index(self):
        parent = indexed_paper_graph()
        before = decoded(parent)
        left, right = (
            append_snapshot(parent, update) for update in sibling_updates("t3")
        )
        # ``right`` extends a prefix that is no longer the buffers' tip.
        grandchild = append_snapshot(left, sibling_updates("t4")[1])
        for graph in (left, right, grandchild):
            assert graph._carried.cells is not None
            assert decoded(graph) == from_frames(graph)
        assert decoded(parent) == before

    def test_concurrent_appends_to_one_parent_stay_isolated(self):
        # More threads than cores, each appending a different snapshot.
        count = min(8, (os.cpu_count() or 2) + 1)
        tip = indexed_paper_graph()
        maps = graph_to_maps(tip)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            step = 0
            while step < 400 and time.monotonic() < deadline:
                before = decoded(tip)
                updates = sibling_updates(f"s{step}", count)
                expected = [
                    graph_from_maps(**maps_after(maps, update)) for update in updates
                ]
                children = [None] * count
                errors = []
                barrier = threading.Barrier(count, timeout=10)

                def append(i):
                    try:
                        barrier.wait()
                        children[i] = append_snapshot(tip, updates[i])
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=append, args=(i,)) for i in range(count)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert not errors
                for child, want in zip(children, expected):
                    assert decoded(child) == from_frames(child)
                    assert child == want
                    assert row_axes(child) == row_axes(want)
                assert decoded(tip) == before
                assert tip == graph_from_maps(**maps)
                assert row_axes(tip) == row_axes(graph_from_maps(**maps))
                arrived = {
                    label
                    for child in children
                    for label in (*child.nodes, *child.edges)
                } - {*tip.nodes, *tip.edges}
                assert arrived
                for label in arrived:
                    assert not tip.node_presence.has_row(label)
                    assert not tip.edge_presence.has_row(label)
                # Every child is the tip of its buffers: one extended the
                # parent's in place, the others copied them first.
                tip = children[step % count]
                maps = maps_after(maps, updates[step % count])
                step += 1
        finally:
            sys.setswitchinterval(interval)
        assert step >= 10


class TestDerivedByOperators:
    @pytest.mark.parametrize(
        "operator",
        [
            lambda g: union(g, ["t0"], ["t2"]),
            lambda g: intersection(g, ["t0"], ["t1"]),
            lambda g: difference(g, ["t0", "t1"], ["t2"]),
            lambda g: project(g, ["t1", "t2"]),
            lambda g: difference(union(g, ["t0", "t2"]), ["t0"], ["t2"]),
        ],
    )
    def test_child_index_equals_one_built_from_its_frames(self, operator):
        parent = indexed_paper_graph()
        child = operator(parent)
        assert child._carried.cells is None  # derived on first use
        assert decoded(child) == from_frames(child)
        expected = resolve_endpoint_rows(child.nodes, child.edges)
        for got, want in zip(child.storage.endpoint_rows(), expected):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # Both parts derived: the child lets go of its parent.
        assert child._carried.source is None

    def test_rows_and_times_in_any_order(self):
        parent = indexed_paper_graph()
        child = parent.restricted(
            list(reversed(parent.nodes[1:])),
            [("u5", "u4"), ("u2", "u3"), ("u4", "u2")],
            ["t2", "t0"],
        )
        assert decoded(child) == from_frames(child)
        attributes = ["gender", "publications"]
        assert not aggregate(child, attributes).diff(
            aggregate_reference(child, attributes)
        )


class TestShared:
    def test_graph_with_an_index_pickles(self):
        graph = indexed_paper_graph()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._carried.cells is None  # rebuilt on first use
        assert decoded(clone) == decoded(graph)

    @pytest.mark.parametrize("storage", backend_names())
    def test_with_storage_shares_rows_and_index(self, storage):
        graph = indexed_paper_graph()
        sibling = graph.with_storage(storage)
        assert sibling._carried is graph._carried
        assert sibling._cell_index() is graph._cell_index()
        assert sibling.storage.endpoint_rows()[0] is graph.storage.endpoint_rows()[0]


def record_resolutions(monkeypatch, record):
    """Make every full resolution of endpoint rows from labels call
    ``record(nodes, edges)`` first."""
    original = repro.storage.base.resolve_endpoint_rows

    def recording(nodes, edges):
        record(nodes, edges)
        return original(nodes, edges)

    for module in (
        repro.storage.base,
        repro.storage.dense,
        repro.storage.columnar,
        repro.core.graph,
        repro.core.updates,
    ):
        monkeypatch.setattr(module, "resolve_endpoint_rows", recording, raising=False)


@pytest.fixture()
def resolutions(monkeypatch):
    """Every full resolution of endpoint rows from labels, by edge count."""
    calls = []
    record_resolutions(monkeypatch, lambda nodes, edges: calls.append(len(edges)))
    return calls


class TestEndpointResolutions:
    def test_validated_graph_keeps_the_rows_it_resolved(self, resolutions):
        graph = paper_example()
        aggregate(graph, ["gender"])
        assert resolutions == [6]

    @pytest.mark.parametrize("storage", backend_names())
    def test_storage_pinned_session_resolves_nothing_per_version(
        self, resolutions, storage
    ):
        session = GraphTempoSession(paper_example(), storage=storage)
        del resolutions[:]
        for label in ("t3", "t4", "t5"):
            session.append(sibling_updates(label)[0])
            session.aggregate(["gender"])
            session.evolution(["t0"], [label], ["gender"])
            assert session.graph.storage_name == storage
        assert resolutions == []

    @pytest.mark.parametrize("storage", backend_names())
    def test_appends_onto_an_operator_result_hand_on_derived_rows(
        self, monkeypatch, storage
    ):
        graph = generate_dblp(0.02, seed=3).with_storage(storage)
        labels = graph.timeline.labels
        calls = []
        record_resolutions(monkeypatch, lambda *labels: calls.append(labels))
        store = StreamingStore(union(graph, labels[:-1]))
        store.append_snapshot(snapshot_at(graph, labels[-1]))
        assert store.graph._resolved_endpoint_rows() is not None
        aggregate(store.graph, ["gender"])
        # The union result derives its rows from the root's (only the
        # root resolves from its own labels, at most once) or from its
        # kept edges, and hands them on.
        assert len(calls) <= 1
        for nodes, edges in calls:
            assert nodes is graph.nodes and edges is graph.edges
        for frame in (store.graph.node_presence, store.graph.edge_presence):
            assert isinstance(frame._row_labels, RowPrefix)
            assert frame._row_labels._labels is None


class TestKernelBuildsNoBackend:
    def test_aggregates_over_operator_results_build_no_backend(
        self, small_dblp, monkeypatch
    ):
        """The kernel reads the endpoint rows an operator result carries,
        so aggregating columnar operator results builds no backend
        beyond the base graph's."""
        backend = repro.storage.columnar.ColumnarBackend
        original = backend._from_frames.__func__
        builds = []

        def counting(cls, frames, carried):
            builds.append(len(frames.times))
            return original(cls, frames, carried)

        monkeypatch.setattr(backend, "_from_frames", classmethod(counting))
        graph = small_dblp.with_storage("columnar")
        assert type(graph.storage) is backend
        assert len(builds) == 1
        labels = graph.timeline.labels
        windows = [union(graph, labels[i : i + 3]) for i in range(10)]
        results = [aggregate(window, ["gender"]) for window in windows]
        assert len(builds) == 1
        monkeypatch.undo()
        for window, result in zip(windows, results):
            assert result == aggregate_reference(window, ["gender"])
