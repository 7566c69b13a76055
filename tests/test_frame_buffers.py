"""Appended versions share append-only frame buffers: each version's
frames are read-only prefix views of buffers that the chain of versions
shares, so a stream's frame memory stays a constant multiple of its
newest version's instead of growing with every retained version."""

import copy
import pickle
import statistics
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    SnapshotUpdate,
    TemporalGraph,
    TemporalGraphBuilder,
    append_snapshot,
    union,
)
from repro.core.cells import _Lineage, extending
from repro.exploration import EntityKind, EventType, Semantics
from repro.frames import LabeledFrame
from repro.frames.labeled_frame import RowPrefix
from repro.serving import QueryServer
from repro.storage import backend_names
from repro.streaming import ExplorationView, StreamingStore
from repro.testing.generators import graph_from_maps, graph_to_maps


def assert_no_label_tuple(store):
    """No appended version of ``store`` has built its label tuples: each
    reads its labels and row index from the shared rows."""
    for version in store.history()[1:]:
        for frame in (version.graph.node_presence, version.graph.edge_presence):
            rows = frame._row_labels
            assert isinstance(rows, RowPrefix) and frame._row_index is rows
            assert rows._labels is None


def stream(appends, seed=0):
    """A small graph with every kind of frame, and ``appends`` snapshots
    after it: each keeps about half the nodes seen so far, adds two new
    ones and links a few pairs of its nodes."""
    rng = np.random.default_rng(seed)
    builder = TemporalGraphBuilder(
        ["t0"], static=["gender"], varying=["level"], edge_static=["kind"]
    )
    for node in ("n0", "n1", "n2"):
        builder.add_node(node, {"gender": "f"})
        builder.set_node_presence(node, "t0", level=1)
    builder.add_edge("n0", "n1", ["t0"], {"kind": "a"})
    graph = builder.build()
    known = list(graph.nodes)
    updates = []
    for step in range(1, appends + 1):
        new = [f"n{len(known)}", f"n{len(known) + 1}"]
        present = [node for node in known if rng.random() < 0.5] + new
        picks = rng.integers(len(present), size=(4, 2)).tolist()
        edges = [(present[i], present[j]) for i, j in picks if i != j]
        updates.append(
            SnapshotUpdate(
                time=f"t{step}",
                nodes={node: {"level": int(rng.integers(3))} for node in present},
                static={node: {"gender": "mf"[step % 2]} for node in new},
                edges=edges,
                edge_attrs={edge: {"kind": "ab"[step % 2]} for edge in edges},
            )
        )
        known += new
    return graph, updates


def frame_arrays(graph):
    frames = [graph.node_presence, graph.static_attrs, graph.edge_presence]
    frames += graph.varying_attrs.values()
    frames.append(graph.edge_attrs)
    return [frame.values for frame in frames]


def buffer_of(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def retimed(update, time):
    """``update``'s content at another time point."""
    return SnapshotUpdate(
        time, update.nodes, update.static, update.edges, update.edge_attrs
    )


def assert_same_frames(graph, arrays):
    for got, want in zip(frame_arrays(graph), arrays, strict=True):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # object cells: same objects


class TestSharedFrames:
    def test_frame_bytes_stay_a_constant_multiple_of_the_newest(self):
        graph, updates = stream(120)
        store = StreamingStore(graph)
        for update in updates:
            store.append_snapshot(update)
        held = {
            id(buffer): buffer.nbytes
            for version in store.history()
            for buffer in map(buffer_of, frame_arrays(version.graph))
        }
        own = sum(array.nbytes for array in frame_arrays(graph))
        newest = sum(array.nbytes for array in frame_arrays(store.graph))
        # Each buffer is at most twice the newest version's extent on
        # both axes, and at least twice the one it replaced, so all the
        # buffers of one frame hold at most 2 * 2 * 2 times its bytes.
        # Copying every frame per version holds about 40 times here.
        assert sum(held.values()) - own <= 8 * newest

    def test_first_append_allocates_exactly_then_doubles(self):
        graph, updates = stream(2)
        child = append_snapshot(graph, updates[0])
        for array in frame_arrays(child):
            assert buffer_of(array).shape == array.shape
            assert array.flags.c_contiguous
        grandchild = append_snapshot(child, updates[1])
        assert buffer_of(grandchild.node_presence.values).shape[1] == 4

    def test_versions_keep_the_frames_they_were_published_with(self):
        graph, updates = stream(30)
        store = StreamingStore(graph)
        published = [(graph, [array.copy() for array in frame_arrays(graph)])]
        for update in updates[:20]:
            appended = store.append_snapshot(update).graph
            published.append((appended, [a.copy() for a in frame_arrays(appended)]))
        # A sibling off version 10, no longer the tip, forks its buffers,
        # and both branches go on appending at their tips.
        middle = store.at_version(10).graph
        sibling = append_snapshot(middle, retimed(updates[-1], updates[10].time))
        fresh = pickle.loads(pickle.dumps(middle))  # frames share nothing
        assert sibling == append_snapshot(fresh, retimed(updates[-1], updates[10].time))
        for update in updates[11:15]:
            sibling = append_snapshot(sibling, update)
        for update in updates[20:]:
            store.append_snapshot(update)
        for version, arrays in published:
            assert_same_frames(version, arrays)

    def test_appended_frames_are_read_only(self):
        graph, updates = stream(2)
        child = append_snapshot(append_snapshot(graph, updates[0]), updates[1])
        for array in frame_arrays(child):
            with pytest.raises(ValueError):
                array[0, 0] = array[0, 0]
        frame = child.node_presence
        with pytest.raises(ValueError):
            frame.values[frame.row_position("n0"), frame.col_position("t0")] = 0

    def test_pickled_versions_round_trip_equal(self):
        graph, updates = stream(6)
        store = StreamingStore(graph)
        for update in updates[:5]:
            store.append_snapshot(update)
        for version in store.history():
            clone = pickle.loads(pickle.dumps(version.graph))
            assert clone == version.graph
            assert clone._carried.frames is None
        clone = pickle.loads(pickle.dumps(store.graph))
        assert append_snapshot(clone, updates[5]) == append_snapshot(
            store.graph, updates[5]
        )


def test_a_failed_extension_leaves_no_tip():
    lineage = _Lineage({"cells": np.zeros(4)})
    forks = []

    def fork():
        forks.append(_Lineage({"cells": np.zeros(4)}))
        return forks[-1]

    with pytest.raises(RuntimeError):
        with extending(lineage, 0, fork):
            raise RuntimeError("the write failed")
    assert not forks
    # The version at generation 0 is no longer the tip, so it forks.
    with extending(lineage, 0, fork) as written:
        assert written is forks[0]
    assert written.generation == 1


# ----------------------------------------------------------------------
# Shared row axes: labels, row indexes and endpoint rows
# ----------------------------------------------------------------------


def wide_graph(n_edges, appends, seed=0):
    """A one-point graph of ``n_edges`` edges over ``n_edges // 4``
    nodes, and ``appends`` snapshots of the same small size after it:
    about 20 known nodes, two new ones and up to 10 edges each."""
    rng = np.random.default_rng(seed)
    n_nodes = n_edges // 4
    builder = TemporalGraphBuilder(["t0"], static=["gender"], varying=["level"])
    for i in range(n_nodes):
        builder.add_node(f"n{i}", {"gender": "fm"[i % 2]})
        builder.set_node_presence(f"n{i}", "t0", level=i % 3)
    pairs = set()
    while len(pairs) < n_edges:
        u, v = rng.integers(n_nodes, size=2).tolist()
        if u != v:
            pairs.add((f"n{u}", f"n{v}"))
    for u, v in sorted(pairs):
        builder.add_edge(u, v, ["t0"])
    updates = []
    for step in range(1, appends + 1):
        new = [f"a{step}.{j}" for j in range(2)]
        known = [f"n{i}" for i in rng.integers(n_nodes, size=20).tolist()]
        present = list(dict.fromkeys(known + new))
        picks = rng.integers(len(present), size=(10, 2)).tolist()
        edges = [(present[i], present[j]) for i, j in picks if i != j]
        updates.append(
            SnapshotUpdate(
                f"t{step}",
                {node: {"level": step % 3} for node in present},
                {node: {"gender": "f"} for node in new},
                edges,
            )
        )
    return builder.build(), updates


def maps_after(maps, update):
    """``graph_to_maps`` of a graph whose maps are ``maps``, after
    appending ``update``."""
    after = copy.deepcopy(maps)
    label = update.time
    after["times"].append(label)
    for node, values in update.nodes.items():
        if node not in after["node_times"]:
            after["node_times"][node] = []
            after["static"][node] = {"gender": update.static.get(node, {}).get("gender")}
        after["node_times"][node].append(label)
        for name, value in values.items():
            if value is not None:
                after["varying"].setdefault(node, {}).setdefault(name, {})[label] = value
    for edge in update.edges:
        after["edge_times"].setdefault(edge, []).append(label)
    return after


def axes(graph):
    """What a graph's row axes read: its labels, every label's row, and
    its endpoint rows."""
    nodes, edges = graph.node_presence, graph.edge_presence
    return {
        "nodes": graph.nodes,
        "edges": graph.edges,
        "node rows": [nodes.row_position(label) for label in graph.nodes],
        "edge rows": [edges.row_position(label) for label in graph.edges],
        "iterated": (tuple(nodes._rows()), tuple(edges._rows())),
        "endpoints": [side.tolist() for side in graph._endpoint_rows()],
    }


def assert_isolated(published, labels):
    """Every version reads the axes it was published with, equal to a
    build from scratch, and no label of any other version.  ``published``
    holds ``(version, its maps)`` pairs."""
    for version, maps in published:
        want = axes(graph_from_maps(**maps))
        assert axes(version) == want
        own = set(want["nodes"]) | set(want["edges"])
        for label in labels - own:
            assert not version.node_presence.has_row(label)
            assert not version.edge_presence.has_row(label)


def every_label(graph):
    return set(graph.nodes) | set(graph.edges)


class TestSharedRowAxes:
    def test_tip_append_retains_bytes_independent_of_the_parent_size(self):
        def retained(n_edges):
            graph, updates = wide_graph(n_edges, 14)
            store = StreamingStore(graph)
            for update in updates[:4]:  # past the fork and first doublings
                store.append_snapshot(update)
            sizes = []
            tracemalloc.start()
            try:
                for update in updates[4:]:
                    before = tracemalloc.get_traced_memory()[0]
                    store.append_snapshot(update)
                    sizes.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
            return statistics.median(sizes)

        # Copying the row indexes, labels and endpoint rows per version
        # retains about 4 times as much at 4 times the edges.
        assert retained(8000) < 1.5 * retained(2000)

    def test_tip_appends_keep_every_version_isolated(self):
        graph, updates = stream(40)
        store = StreamingStore(graph)
        maps = graph_to_maps(graph)
        published = [(graph, maps)]
        for update in updates:
            maps = maps_after(maps, update)
            published.append((store.append_snapshot(update).graph, maps))
        assert_isolated(published, every_label(store.graph))

    def test_a_sibling_off_an_older_version_keeps_both_branches_isolated(self):
        graph, updates = stream(30)
        store = StreamingStore(graph)
        maps = [graph_to_maps(graph)]
        for update in updates[:20]:
            store.append_snapshot(update)
            maps.append(maps_after(maps[-1], update))
        published = [(store.at_version(v).graph, maps[v]) for v in range(21)]
        # Version 10 is no longer the tip: its sibling forks the rows,
        # and both branches go on appending at their tips.
        branch, branch_maps = store.at_version(10).graph, maps[10]
        for update in [retimed(updates[-1], updates[10].time), *updates[11:15]]:
            branch = append_snapshot(branch, update)
            branch_maps = maps_after(branch_maps, update)
            published.append((branch, branch_maps))
        tip_maps = maps[20]
        for update in updates[20:]:
            tip_maps = maps_after(tip_maps, update)
            published.append((store.append_snapshot(update).graph, tip_maps))
        labels = every_label(store.graph) | every_label(branch)
        assert_isolated(published, labels)

    def test_a_parent_with_unresolved_endpoints_forks_its_rows(self):
        # A dangling edge (n9 is no node) keeps -1 rows until n9 arrives.
        graph, updates = stream(4)
        frames = [graph.node_presence, graph.static_attrs, graph.edge_presence]
        dangling = TemporalGraph(
            graph.timeline,
            graph.node_presence,
            LabeledFrame(graph.edges + (("n0", "n9"),), ["t0"], [[1], [0]]),
            graph.static_attrs,
            graph.varying_attrs,
            validate=False,
            edge_attrs=LabeledFrame(graph.edges + (("n0", "n9"),), ["kind"], [["a"], [None]]),
        )
        assert frames[0] is dangling.node_presence
        src, dst = dangling._endpoint_rows()
        assert dst.tolist() == [1, -1]
        child = append_snapshot(dangling, updates[0])
        assert child._endpoint_rows()[1].tolist()[:2] == [1, -1]
        arrival = SnapshotUpdate(
            "t9", {"n9": {"level": 1}, "n0": {"level": 2}}, {"n9": {"gender": "f"}}
        )
        grandchild = append_snapshot(child, arrival)
        nine = grandchild.node_presence.row_position("n9")
        assert grandchild._endpoint_rows()[1].tolist()[:2] == [1, nine]
        # The versions before n9 arrived still read -1.
        assert child._endpoint_rows()[1].tolist()[:2] == [1, -1]
        assert dangling._endpoint_rows()[1].tolist() == [1, -1]
        sibling = append_snapshot(child, retimed(updates[1], "t9"))
        assert sibling._endpoint_rows()[1].tolist()[:2] == [1, -1]

    def test_one_writer_and_one_reader_of_every_published_version(self):
        graph, updates = stream(100, seed=3)
        maps = [graph_to_maps(graph)]
        for update in updates:
            maps.append(maps_after(maps[-1], update))
        expected = [axes(graph_from_maps(**m)) for m in maps]
        published = [graph]
        done = threading.Event()
        errors = []

        def write():
            try:
                tip = graph
                for update in updates:
                    tip = append_snapshot(tip, update)
                    published.append(tip)
            except Exception as exc:  # surfaced below
                errors.append(exc)
            finally:
                done.set()

        def read(version, want):
            for frame, key in ((version.node_presence, "nodes"), (version.edge_presence, "edges")):
                labels = list(want[key])
                assert tuple(frame._rows()) == want[key]
                assert frame._row_axis(np.arange(len(labels))[::-1])[0] == tuple(labels[::-1])
                assert [frame.row_position(label) for label in labels] == list(range(len(labels)))
                assert frame.row_labels == want[key]

        reader_errors = []

        def reads():
            try:
                while not done.is_set() or len(published) <= len(updates):
                    for index in range(len(published)):
                        read(published[index], expected[index])
                    if done.is_set():
                        break
            except Exception as exc:  # surfaced below
                reader_errors.append(exc)

        threads = [threading.Thread(target=write), threading.Thread(target=reads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors and not reader_errors, errors + reader_errors
        for version, want in zip(published, expected, strict=True):
            assert axes(version) == want

    def test_a_pickled_version_stores_only_its_own_rows(self):
        graph, updates = stream(120)
        store = StreamingStore(graph)
        for update in updates:
            store.append_snapshot(update)
        version = store.at_version(5).graph
        scratch = TemporalGraph(
            version.timeline,
            *(
                LabeledFrame(frame.row_labels, frame.col_labels, frame.values.copy())
                for frame in (
                    version.node_presence,
                    version.edge_presence,
                    version.static_attrs,
                )
            ),
            {
                name: LabeledFrame(frame.row_labels, frame.col_labels, frame.values.copy())
                for name, frame in version.varying_attrs.items()
            },
            edge_attrs=LabeledFrame(
                version.edges, version.edge_attrs.col_labels, version.edge_attrs.values.copy()
            ),
        )
        data = pickle.dumps(version)
        assert len(data) <= 1.1 * len(pickle.dumps(scratch))
        clone = pickle.loads(data)
        assert clone == version == scratch
        assert not isinstance(clone.node_presence._row_labels, RowPrefix)
        assert axes(clone) == axes(version)

    def test_serving_after_each_append_builds_no_label_tuple(self):
        # Under every backend: a columnar one keeps the shared rows too.
        for backend in backend_names():
            graph, updates = stream(12)
            store = StreamingStore(graph.with_storage(backend))
            server = QueryServer(store)
            labels = graph.timeline.labels
            try:
                for update in updates:
                    store.append_snapshot(update)
                    labels = labels + (update.time,)
                    start, newest, previous = labels[max(0, len(labels) - 4)], labels[-1], labels[-2]
                    for text in (
                        f"aggregate gender, level all over union [{start}..{newest}]",
                        f"aggregate level distinct over union [{newest}]",
                        f"evolution [{start}..{previous}] -> [{newest}] by gender",
                        f"difference [{newest}], [{previous}]",
                    ):
                        server.serve(text)
            finally:
                server.close()
            assert_no_label_tuple(store)

    def test_exploration_views_build_no_label_tuple(self):
        graph, updates = stream(10)

        def watches():
            return [
                ExplorationView(
                    EventType.GROWTH,
                    Semantics.UNION,
                    EntityKind.NODES,
                    attributes=["gender"],
                    key=("f",),
                    reference=0,
                ),
                ExplorationView(
                    EventType.SHRINKAGE,
                    Semantics.INTERSECTION,
                    EntityKind.EDGES,
                    attributes=["gender"],
                    key=(("f",), ("m",)),
                    reference=0,
                ),
            ]

        views = watches()
        store = StreamingStore(graph.with_storage("dense"), views=views)
        for update in updates:
            store.append_snapshot(update)
        assert_no_label_tuple(store)
        for view, rebuilt in zip(views, watches()):
            rebuilt.rebuild(store.graph)
            assert view.counts() == rebuilt.counts()
            assert view.counts()


class TestOneTimeIndex:
    def test_appended_frames_read_the_timeline_positions(self):
        graph, updates = stream(2)
        child = append_snapshot(append_snapshot(graph, updates[0]), updates[1])
        positions = child.timeline.positions
        for frame in [child.node_presence, child.edge_presence, *child.varying_attrs.values()]:
            assert frame._col_index is positions

    def test_operator_results_read_the_timeline_positions(self):
        graph, updates = stream(3)
        for update in updates:
            graph = append_snapshot(graph, update)
        result = union(graph, ["t0", "t1"], ["t3"])
        positions = result.timeline.positions
        for frame in [result.node_presence, result.edge_presence, *result.varying_attrs.values()]:
            assert frame._col_index is positions
        assert result.node_presence.col_position("t3") == 2
