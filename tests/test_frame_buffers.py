"""Appended versions share append-only frame buffers: each version's
frames are read-only prefix views of buffers that the chain of versions
shares, so a stream's frame memory stays a constant multiple of its
newest version's instead of growing with every retained version."""

import pickle

import numpy as np
import pytest

from repro.core import SnapshotUpdate, TemporalGraphBuilder, append_snapshot
from repro.core.cells import _Lineage, extending
from repro.streaming import StreamingStore


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
