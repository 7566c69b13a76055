"""Operator results are views over their source graph: a view answers
its counts and schema without building anything, builds its frames once
(on first read, also under threads) exactly as a copy would be, pickles
its own frames, and an aggregate or evolution over it derives nothing."""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import (
    TemporalGraph,
    aggregate,
    aggregate_evolution,
    difference,
    intersection,
    presence_signature,
    project,
    snapshot_at,
    union,
)
from repro.errors import AggregationError
from repro.frames import LabeledFrame
from repro.serving import QueryServer
from repro.streaming import StreamingStore
from repro.testing.generators import graph_from_maps, graph_to_maps


def rebuilt(view):
    """``view`` rebuilt from scratch, from its literal maps."""
    return graph_from_maps(
        **graph_to_maps(view), allow_dangling=True, storage=view.storage_name
    )


def built_nothing(view):
    return (
        view._frames is None
        and view._storage is None
        and view._carried.cells is None
        and view._carried.endpoints is None
    )


@pytest.fixture()
def taken_calls(monkeypatch):
    """The number of frames ``LabeledFrame._taken`` copies from now on."""
    calls = []
    original = LabeledFrame._taken

    def counting(self, *args):
        calls.append(self.shape)
        return original(self, *args)

    monkeypatch.setattr(LabeledFrame, "_taken", counting)
    return calls


class TestLazyViews:
    def test_answers_counts_and_schema_without_building(self, small_dblp):
        labels = small_dblp.timeline.labels
        view = difference(small_dblp, labels[3:6], labels[6:8])
        assert view.timeline.labels == labels[3:6]
        assert view.attribute_names == small_dblp.attribute_names
        assert view.is_static("gender") and not view.is_static("publications")
        assert view.storage_name == small_dblp.storage_name
        repr(view)
        assert built_nothing(view)
        materialized = rebuilt(view)
        assert (view.n_nodes, view.n_edges) == (
            materialized.n_nodes,
            materialized.n_edges,
        )

    def test_aggregates_and_evolutions_derive_nothing(self, small_dblp, taken_calls):
        labels = small_dblp.timeline.labels
        views = [
            union(small_dblp, labels[2:5], labels[9:10]),
            intersection(small_dblp, labels[4:7], labels[7:9]),
            difference(small_dblp, labels[5:9], labels[9:11]),
            project(small_dblp, labels[6:8]),
        ]
        attributes = ["gender", "publications"]
        results = []
        for view in views:
            window = view.timeline.labels
            results.append(
                (
                    aggregate(view, attributes, distinct=True),
                    aggregate(view, attributes, distinct=False),
                    aggregate_evolution(view, window[:1], window[-1:], attributes),
                )
            )
            assert built_nothing(view)
        assert taken_calls == []
        for view, (dist, full, evolution) in zip(views, results):
            scratch = rebuilt(view)
            window = view.timeline.labels
            assert dist == aggregate(scratch, attributes, distinct=True)
            assert full == aggregate(scratch, attributes, distinct=False)
            assert not evolution.diff(
                aggregate_evolution(scratch, window[:1], window[-1:], attributes)
            )

    def test_a_view_of_a_view_reads_the_graph_that_owns_the_frames(self, small_dblp):
        labels = small_dblp.timeline.labels
        outer = union(small_dblp, labels[2:9])
        inner = difference(outer, labels[2:5], labels[5:9])
        assert inner._carried.source.graph is small_dblp
        result = aggregate(inner, ["gender"])
        assert built_nothing(inner)
        assert result == aggregate(rebuilt(inner), ["gender"])

    @pytest.mark.parametrize("rows", ["ordered", "unordered"])
    def test_materialized_frames_equal_a_copy(self, tiny_graph, rows):
        graph = tiny_graph
        labels = graph.timeline.labels
        nodes = np.arange(0, graph.n_nodes, 2)
        edges = np.arange(graph.n_edges)
        times = labels[3:] + labels[:1]
        if rows == "unordered":
            nodes, edges = nodes[::-1], edges[::-1]
        view = graph.take(nodes, edges, times)
        assert built_nothing(view)
        pairs = [
            (view.node_presence, graph.node_presence.take(nodes, times)),
            (view.edge_presence, graph.edge_presence.take(edges, times)),
            (view.static_attrs, graph.static_attrs.take(nodes)),
        ]
        pairs += [
            (frame, graph.varying_attrs[name].take(nodes, times))
            for name, frame in view.varying_attrs.items()
        ]
        for got, want in pairs:
            assert got == want and got.row_labels == want.row_labels
            assert got.values.dtype == want.values.dtype
        # One row axis per entity, one time index for every time column.
        assert view.static_attrs._row_labels is view.node_presence._row_labels
        for frame in view.varying_attrs.values():
            assert frame._row_labels is view.node_presence._row_labels
            assert frame._col_index is view.timeline.positions
        assert view.node_presence._col_index is view.timeline.positions

    def test_a_view_lets_go_of_its_source_once_it_owns_everything(self, small_dblp):
        labels = small_dblp.timeline.labels
        view = union(small_dblp, labels[:4])
        view.node_presence
        view._cell_index()
        assert view._carried.source is not None
        view._endpoint_rows()
        assert view._carried.source is None
        assert view.n_nodes == view.node_presence.n_rows

    def test_dangling_rows_raise_as_a_copy_does(self, paper_graph):
        # u1 is dropped, so its edges keep a -1 endpoint row.
        view = paper_graph.take([1, 2, 3, 4], range(paper_graph.n_edges), ["t0"])
        with pytest.raises(AggregationError) as raised:
            aggregate(view, ["gender"])
        with pytest.raises(AggregationError) as expected:
            aggregate(rebuilt(view), ["gender"])
        assert str(raised.value) == str(expected.value)


class TestServing:
    def test_serving_every_kind_copies_no_frames(self, small_dblp, taken_calls):
        labels = small_dblp.timeline.labels
        store = StreamingStore(union(small_dblp, labels[:-1]))
        store.append_snapshot(snapshot_at(small_dblp, labels[-1]))
        del taken_calls[:]  # the set-up's append builds the seed view's frames
        a, b, c, d = (f"[{labels[i]}..{labels[i + 2]}]" for i in (1, 5, 9, 13))
        statements = [
            f"union {a}, {b}",
            f"intersection {a}, {c}",
            f"difference {b}, {d}",
            f"aggregate gender, publications all over union {a}, {c}",
            f"aggregate gender distinct over intersection {b}, {d}",
            f"aggregate publications all over difference {c}, {a}",
            f"aggregate gender, publications distinct over project {d}",
            f"evolution {a} -> {d} by gender",
        ]
        with QueryServer(store) as server:
            served = [server.serve(text).result for text in statements]
        assert taken_calls == []
        for result in served[:3]:
            assert built_nothing(result)


class TestThreadsAndPickles:
    def test_threads_first_reading_one_view_see_equal_frames(self, small_dblp):
        # More threads than cores, switching as often as the interpreter
        # allows, all first-reading one fresh view.
        labels = small_dblp.timeline.labels
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            rounds = 0
            while rounds < 20 and time.monotonic() < deadline:
                view = difference(small_dblp, labels[4:10], labels[10:12])
                barrier = threading.Barrier(8, timeout=10)
                seen = [None] * 8
                errors = []

                def read(i, view=view, barrier=barrier, seen=seen, errors=errors):
                    try:
                        barrier.wait()
                        seen[i] = (
                            view.node_presence,
                            view.edges,
                            presence_signature(view),
                        )
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert not errors
                first = seen[0]
                for frame, edges, signature in seen:
                    assert frame is first[0]  # built once, published whole
                    assert edges == first[1] and signature == first[2]
                rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert rounds >= 3

    def test_a_view_pickles_its_own_frames(self, small_dblp):
        labels = small_dblp.timeline.labels
        view = intersection(small_dblp, labels[2:6], labels[6:9])
        payload = pickle.dumps(view)
        clone = pickle.loads(payload)
        assert clone == view
        assert clone._carried.source is None
        owned = TemporalGraph(
            view.timeline,
            view.node_presence,
            view.edge_presence,
            view.static_attrs,
            view.varying_attrs,
            validate=False,
            edge_attrs=view.edge_attrs,
        )
        assert len(payload) <= 1.1 * len(pickle.dumps(owned))
        assert len(payload) < len(pickle.dumps(small_dblp)) / 2
