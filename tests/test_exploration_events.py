"""Tests for EventCounter: side semantics and result(G) counting."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Interval
from repro.errors import ExplorationError
from repro.exploration import (
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    Side,
    explore,
)
from repro.exploration.events import static_match_mask
from repro.query import run_query
from repro.testing.generators import graph_from_maps


@pytest.fixture()
def edge_counter(paper_graph):
    return EventCounter(paper_graph, entity=EntityKind.EDGES)


@pytest.fixture()
def node_counter(paper_graph):
    return EventCounter(paper_graph, entity=EntityKind.NODES)


class TestSideQualification:
    def test_point_sides(self, edge_counter):
        mask = edge_counter.event_mask(
            EventType.STABILITY, Side.point(0), Side.point(1)
        )
        assert mask.sum() == 1  # only (u1, u2) is stable t0 -> t1

    def test_union_side_any_semantics(self, node_counter):
        # Old = t0; new = [t1..t2] under union: u5 qualifies (exists at t2).
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.UNION)
        entities = node_counter.event_entities(EventType.GROWTH, old, new)
        assert "u5" in entities

    def test_intersection_side_all_semantics(self, node_counter):
        # New = [t1..t2] under intersection: u5 (only at t2) fails, u1
        # (only at t1) fails; u2/u4 pass.
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.INTERSECTION)
        entities = node_counter.event_entities(EventType.STABILITY, old, new)
        assert set(entities) == {"u2", "u4"}

    def test_shrinkage_entities(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        entities = edge_counter.event_entities(EventType.SHRINKAGE, old, new)
        assert set(entities) == {("u2", "u3"), ("u1", "u4")}

    def test_growth_entities(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        entities = edge_counter.event_entities(EventType.GROWTH, old, new)
        assert set(entities) == {("u4", "u2")}


class TestStaticKeyCounting:
    def test_node_key(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES,
            attributes=["gender"], key=("f",),
        )
        # Stable nodes t0->t1: u1, u2, u4 of which f: u2, u4.
        assert counter.count(EventType.STABILITY, Side.point(0), Side.point(1)) == 2

    def test_edge_key(self, paper_graph):
        counter = EventCounter(
            paper_graph, attributes=["gender"], key=(("f",), ("f",)),
        )
        # New f-f edges t0->t1: (u4,u2).
        assert counter.count(EventType.GROWTH, Side.point(0), Side.point(1)) == 1

    def test_key_requires_attributes(self, paper_graph):
        with pytest.raises(ValueError):
            EventCounter(paper_graph, key=("f",))

    def test_no_key_counts_everything(self, edge_counter):
        old, new = Side.point(0), Side.point(1)
        total = edge_counter.count(EventType.SHRINKAGE, old, new)
        assert total == 2

    def test_static_attributes_without_key(self, paper_graph):
        counter = EventCounter(paper_graph, attributes=["gender"])
        old, new = Side.point(0), Side.point(1)
        # Without a key the count is the raw entity count.
        assert counter.count(EventType.SHRINKAGE, old, new) == 2


class TestVaryingAttributeCounting:
    def test_node_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["gender", "publications"],
            key=("f", 1),
        )
        old, new = Side.point(0), Side.point(1)
        # Growth of (f,1) appearances: u4 newly carries (f,1) at t1 but
        # u4 itself exists at t0 -> not a growth *node*.  Node-level
        # growth events count nodes in the growth set; only their
        # appearances inside the window are tuple-filtered.
        assert counter.count(EventType.GROWTH, old, new) == 0

    def test_shrinkage_node_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["gender", "publications"],
            key=("f", 1),
        )
        old, new = Side.point(0), Side.point(1)
        # u3 disappears; its t0 appearance is (f, 1).
        assert counter.count(EventType.SHRINKAGE, old, new) == 1

    def test_edge_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            attributes=["gender", "publications"],
            key=(("f", 1), ("f", 1)),
        )
        old, new = Side.point(1), Side.point(2)
        # (u4,u2) is stable t1->t2 and both carry (f,1) throughout.
        assert counter.count(EventType.STABILITY, old, new) == 1

    def test_varying_without_key_counts_appearances(self, paper_graph):
        counter = EventCounter(
            paper_graph,
            entity=EntityKind.NODES,
            attributes=["publications"],
        )
        old, new = Side.point(0), Side.point(1)
        # Stable nodes: u1, u2, u4; appearances over the window {t0, t1}:
        # u1 -> {3, 1}, u2 -> {1}, u4 -> {2, 1}: 5 distinct pairs.
        assert counter.count(EventType.STABILITY, old, new) == 5


class TestMonotonicityOfCounts:
    """Lemma 3.3 and Lemmas 3.9/3.10 as structural facts of the counter."""

    def test_union_extension_increases_stability(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.STABILITY,
                old,
                Side(Interval(1, stop), Semantics.UNION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts)

    def test_intersection_extension_decreases_stability(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.STABILITY,
                old,
                Side(Interval(1, stop), Semantics.INTERSECTION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts, reverse=True)

    def test_growth_decreases_when_old_extends_by_union(self, small_dblp):
        counter = EventCounter(small_dblp)
        n = len(small_dblp.timeline)
        new = Side.point(n - 1)
        counts = [
            counter.count(
                EventType.GROWTH,
                Side(Interval(start, n - 2), Semantics.UNION),
                new,
            )
            for start in range(n - 2, -1, -1)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_growth_increases_when_old_extends_by_intersection(self, small_dblp):
        counter = EventCounter(small_dblp)
        n = len(small_dblp.timeline)
        new = Side.point(n - 1)
        counts = [
            counter.count(
                EventType.GROWTH,
                Side(Interval(start, n - 2), Semantics.INTERSECTION),
                new,
            )
            for start in range(n - 2, -1, -1)
        ]
        assert counts == sorted(counts)

    def test_shrinkage_decreases_when_new_extends_by_union(self, small_dblp):
        counter = EventCounter(small_dblp)
        old = Side.point(0)
        counts = [
            counter.count(
                EventType.SHRINKAGE,
                old,
                Side(Interval(1, stop), Semantics.UNION),
            )
            for stop in range(1, len(small_dblp.timeline))
        ]
        assert counts == sorted(counts, reverse=True)


class TestEventWindow:
    """Regression: the STABILITY event window dedupes duplicate time
    labels when the two sides overlap, preserving timeline order."""

    def test_overlapping_stability_sides_deduped(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES, attributes=["publications"]
        )
        old = Side(Interval(0, 1), Semantics.UNION)
        new = Side(Interval(1, 2), Semantics.UNION)
        window = counter._event_window(EventType.STABILITY, old, new)
        assert window == list(paper_graph.timeline.labels)
        assert len(window) == len(set(window))

    def test_window_is_in_timeline_order(self, paper_graph):
        counter = EventCounter(
            paper_graph, entity=EntityKind.NODES, attributes=["publications"]
        )
        # Even with the sides given "backwards", the window follows the
        # timeline, not the concatenation order of the sides.
        old = Side(Interval(1, 2), Semantics.UNION)
        new = Side(Interval(0, 1), Semantics.UNION)
        window = counter._event_window(EventType.STABILITY, old, new)
        assert window == list(paper_graph.timeline.labels)

    def test_growth_window_is_new_side(self, paper_graph):
        counter = EventCounter(paper_graph, attributes=["publications"])
        old = Side.point(0)
        new = Side(Interval(1, 2), Semantics.UNION)
        labels = paper_graph.timeline.labels
        assert counter._event_window(EventType.GROWTH, old, new) == [
            labels[1], labels[2]
        ]
        assert counter._event_window(EventType.SHRINKAGE, old, new) == [labels[0]]

    def test_overlap_count_matches_brute_force(self, tiny_graph):
        """Varying-attribute counts over an overlapping pair equal the
        brute-force distinct-appearance count over the deduped window."""
        counter = EventCounter(
            tiny_graph, entity=EntityKind.NODES, attributes=["level"]
        )
        old = Side(Interval(0, 2), Semantics.UNION)
        new = Side(Interval(1, 3), Semantics.UNION)
        mask = counter.event_mask(EventType.STABILITY, old, new)
        labels = tiny_graph.timeline.labels
        window = [labels[i] for i in range(4)]  # deduped union of the sides
        presence = tiny_graph.node_presence.values
        appearances = set()
        for row, node in enumerate(tiny_graph.node_presence.row_labels):
            if not mask[row]:
                continue
            for t in window:
                col = tiny_graph.timeline.index_of(t)
                if presence[row, col]:
                    value = tiny_graph.attribute_value(node, "level", t)
                    appearances.add((node, value))
        assert counter.count(EventType.STABILITY, old, new) == len(appearances)


def _dangling_graph(edge_times):
    return graph_from_maps(
        ["t0", "t1"],
        {"u1": ["t0", "t1"], "u2": ["t0", "t1"]},
        edge_times,
        static={"u1": {"gender": "m"}, "u2": {"gender": "f"}},
        varying={
            "u1": {"level": {"t0": 1, "t1": 2}},
            "u2": {"level": {"t0": 1, "t1": 1}},
        },
        allow_dangling=True,
    )


GHOST = {("u1", "u2"): ["t1"], ("u2", "ghost"): ["t1"]}


class TestDanglingEdges:
    """Regression: an edge counter that reads endpoint attributes raises
    if and only if a dangling edge is present on the timeline, whatever
    the key (a static key used to raise or not depending on whether its
    source tuple matched)."""

    @pytest.mark.parametrize(
        "attributes,key",
        [
            (["gender"], (("m",), ("f",))),
            (["gender"], (("f",), ("m",))),
            (["gender"], (("x",), ("x",))),
            (["level"], None),
            (["level"], ((1,), (1,))),
            (["gender", "level"], (("f", 1), ("m", 2))),
        ],
    )
    def test_raises_for_every_key(self, attributes, key):
        with pytest.raises(ExplorationError, match="'ghost'"):
            EventCounter(_dangling_graph(GHOST), EntityKind.EDGES, attributes, key)

    @pytest.mark.parametrize("key", ["m -> f", "f -> m"])
    def test_keyed_explore_raises(self, key):
        graph = _dangling_graph(GHOST)
        with pytest.raises(ExplorationError):
            run_query(
                graph,
                f"explore growth minimal extend new k 1 on edges by gender key {key}",
            )

    def test_names_first_dangling_edge_in_row_order(self):
        graph = _dangling_graph({("u1", "ghost1"): ["t0"], ("ghost2", "u2"): ["t1"]})
        with pytest.raises(ExplorationError, match="ghost1"):
            EventCounter(graph, EntityKind.EDGES, ["level"])

    def test_dangling_edge_absent_from_timeline_is_ignored(self):
        graph = _dangling_graph({("u1", "u2"): ["t1"], ("u2", "ghost"): []})
        counter = EventCounter(graph, EntityKind.EDGES, ["gender"], (("m",), ("f",)))
        assert counter.count(EventType.GROWTH, Side.point(0), Side.point(1)) == 1

    def test_counts_reading_no_endpoint_attribute_do_not_raise(self):
        graph = _dangling_graph(GHOST)
        growth = (EventType.GROWTH, Side.point(0), Side.point(1))
        for attributes in ((), ("gender",)):
            assert EventCounter(graph, EntityKind.EDGES, attributes).count(*growth) == 2
        nodes = EventCounter(graph, EntityKind.NODES, ["gender"], ("f",))
        assert nodes.count(EventType.STABILITY, Side.point(0), Side.point(1)) == 1


class TestSharedIndex:
    """Keyed counters share one key-independent index."""

    @pytest.mark.parametrize(
        "attributes,values", [(["gender"], "fm"), (["publications"], (1, 2, 3))]
    )
    def test_with_key_shares_index_and_counts_alike(
        self, paper_graph, attributes, values
    ):
        shared = EventCounter(paper_graph, EntityKind.EDGES, attributes)
        pairs = ((Side.point(0), Side.point(1)), (Side.point(1), Side.point(2)))
        for source in values:
            key = ((source,), (values[0],))
            keyed = shared.with_key(key)
            assert keyed._presence_matrix is shared._presence_matrix
            assert keyed.key == key and shared.key is None
            direct = EventCounter(paper_graph, EntityKind.EDGES, attributes, key)
            for event in EventType:
                for old, new in pairs:
                    assert keyed.count(event, old, new) == direct.count(event, old, new)

    def test_with_key_requires_attributes(self, paper_graph):
        with pytest.raises(ExplorationError):
            EventCounter(paper_graph).with_key(("f",))

    @pytest.mark.parametrize(
        "entity,key", [(EntityKind.NODES, ("f",)), (EntityKind.EDGES, (("f",), ("m",)))]
    )
    def test_static_match_mask_delta_path(self, small_dblp, entity, key):
        full = static_match_mask(small_dblp, entity, ["gender"], key)
        labels = small_dblp.nodes if entity is EntityKind.NODES else small_dblp.edges
        half = len(labels) // 2
        tail = static_match_mask(
            small_dblp, entity, ["gender"], key, entities=labels[half:]
        )
        assert full.any()
        assert np.array_equal(tail, full[half:])


class TestCounterHandOff:
    ARGS = (EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1)

    def test_matching_counter_gives_same_result(self, paper_graph):
        query = (EntityKind.NODES, ["gender"], ("f",))
        counter = EventCounter(paper_graph, query[0], query[1]).with_key(query[2])
        handed = explore(paper_graph, *self.ARGS, *query, counter=counter)
        built = explore(paper_graph, *self.ARGS, *query)
        assert not handed.diff(built)
        assert handed.evaluations == built.evaluations

    def test_counter_for_another_query_rejected(self, paper_graph):
        counter = EventCounter(paper_graph, EntityKind.NODES, ["gender"], ("f",))
        for graph, entity, attributes, key in (
            (paper_graph.with_storage("dense"), EntityKind.NODES, ["gender"], ("f",)),
            (paper_graph, EntityKind.EDGES, ["gender"], ("f",)),
            (paper_graph, EntityKind.NODES, ["publications"], ("f",)),
            (paper_graph, EntityKind.NODES, ["gender"], ("m",)),
        ):
            with pytest.raises(ExplorationError, match="counter was built"):
                explore(graph, *self.ARGS, entity, attributes, key, counter=counter)


def test_appearance_counts_leave_numpy_ma_unloaded():
    """A keyless time-varying count finds distinct appearances with the
    kernel's sort, not ``np.unique``, which loads ``numpy.ma``."""
    script = (
        "import sys\n"
        "from repro.datasets import paper_example\n"
        "from repro.exploration import EntityKind, EventType, ExtendSide, "
        "Goal, explore\n"
        "result = explore(paper_example(), EventType.STABILITY, Goal.MAXIMAL, "
        "ExtendSide.NEW, 1, EntityKind.NODES, ['publications'])\n"
        "assert result.pairs\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was loaded'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={"PYTHONPATH": str(src)},
        timeout=120,
    )
