"""Tests for streaming ingestion: events, the versioned store and
delta-maintained views."""

import numpy as np
import pytest

from repro.core import SnapshotUpdate, aggregate, aggregate_evolution
from repro.core.updates import split_history
from repro.errors import (
    ExplorationError,
    MaterializationError,
    ValidationError,
)
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Semantics,
)
from repro.session import GraphTempoSession
from repro.storage import backend_names
from repro.streaming import (
    EdgeEvent,
    EvolutionView,
    ExplorationView,
    GraphVersion,
    NodeEvent,
    StreamingStore,
    StreamingView,
    batch_events,
)
from repro.testing import assert_same_graph


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


class TestEvents:
    def test_events_are_frozen_copies(self):
        attrs = {"publications": 1}
        event = NodeEvent(time="t3", node="u2", attrs=attrs)
        attrs["publications"] = 9
        assert event.attrs == {"publications": 1}

    def test_edge_normalized_to_tuple(self):
        event = EdgeEvent(time="t3", edge=["u5", "u2"])
        assert event.edge == ("u5", "u2")
        assert isinstance(event.edge, tuple)

    def test_batching_groups_by_first_seen_time(self):
        updates = batch_events(
            [
                NodeEvent("t3", "a"),
                NodeEvent("t4", "b"),
                NodeEvent("t3", "c"),
            ]
        )
        assert [u.time for u in updates] == ["t3", "t4"]
        assert set(updates[0].nodes) == {"a", "c"}

    def test_node_events_merge_later_wins(self):
        (update,) = batch_events(
            [
                NodeEvent("t3", "a", attrs={"publications": 1}),
                NodeEvent("t3", "a", attrs={"publications": 2}),
            ]
        )
        assert update.nodes["a"] == {"publications": 2}

    def test_edges_dedupe_and_endpoints_get_presence(self):
        (update,) = batch_events(
            [
                EdgeEvent("t3", ("a", "b")),
                EdgeEvent("t3", ("a", "b")),
            ]
        )
        assert update.edges == (("a", "b"),)
        assert set(update.nodes) == {"a", "b"}

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValidationError):
            batch_events([NodeEvent("t3", "a"), "not an event"])


class TestStreamingStore:
    def test_initial_version_is_zero(self, paper_graph):
        store = StreamingStore(paper_graph)
        assert store.version == 0
        assert store.graph is paper_graph
        assert store.latest == GraphVersion(0, paper_graph)

    def test_append_publishes_monotonic_versions(self, paper_graph):
        store = StreamingStore(paper_graph)
        v1 = store.append_snapshot(make_update("t3"))
        v2 = store.append_snapshot(
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}})
        )
        assert (v1.version, v2.version) == (1, 2)
        assert store.version == 2
        assert v2.graph.timeline.labels == ("t0", "t1", "t2", "t3", "t4")

    def test_pinned_version_is_stable(self, paper_graph):
        store = StreamingStore(paper_graph)
        pinned = store.pin()
        store.append_snapshot(make_update())
        assert pinned.version == 0
        assert pinned.graph.timeline.labels == ("t0", "t1", "t2")
        assert store.graph.timeline.labels == ("t0", "t1", "t2", "t3")

    def test_at_version_and_history(self, paper_graph):
        store = StreamingStore(paper_graph)
        store.append_snapshot(make_update())
        assert store.at_version(0).graph is paper_graph
        assert [v.version for v in store.history()] == [0, 1]
        with pytest.raises(MaterializationError):
            store.at_version(2)
        with pytest.raises(MaterializationError):
            store.at_version(-1)

    def test_empty_timeline_rejected(self):
        from types import SimpleNamespace

        fake = SimpleNamespace(timeline=SimpleNamespace(labels=()))
        with pytest.raises(MaterializationError, match="empty timeline"):
            StreamingStore(fake)

    def test_failed_append_publishes_nothing(self, paper_graph):
        store = StreamingStore(paper_graph)
        with pytest.raises(ValueError):
            store.append_snapshot(SnapshotUpdate(time="t2", nodes={}))
        assert store.version == 0

    def test_hooks_fire_in_order_and_unsubscribe(self, paper_graph):
        store = StreamingStore(paper_graph)
        seen = []
        unsubscribe = store.on_append(lambda v: seen.append(("a", v.version)))
        store.on_append(lambda v: seen.append(("b", v.version)))
        store.append_snapshot(make_update("t3"))
        assert seen == [("a", 1), ("b", 1)]
        unsubscribe()
        unsubscribe()  # idempotent
        store.append_snapshot(SnapshotUpdate(time="t4", nodes={}))
        assert seen == [("a", 1), ("b", 1), ("b", 2)]

    def test_update_batches_events_into_versions(self, paper_graph):
        store = StreamingStore(paper_graph)
        versions = store.update(
            [
                NodeEvent("t3", "u2", attrs={"publications": 2}),
                NodeEvent("t3", "u9", static={"gender": "f"}),
                EdgeEvent("t3", ("u9", "u2")),
                NodeEvent("t4", "u9"),
            ]
        )
        assert [v.version for v in versions] == [1, 2]
        graph = store.graph
        assert graph.edge_times(("u9", "u2")) == ("t3",)
        assert graph.attribute_value("u9", "gender") == "f"
        assert graph.node_times("u9") == ("t3", "t4")

    def test_from_history_replays_identically(self, tiny_graph):
        store = StreamingStore.from_history(tiny_graph)
        assert store.version == len(tiny_graph.timeline.labels) - 1
        assert_same_graph(store.graph, tiny_graph)

    def test_failing_view_rolls_back(self, paper_graph):
        class ExplodingView(StreamingView):
            def __init__(self):
                self.rebuilds = 0

            def rebuild(self, graph):
                self.rebuilds += 1

            def extend(self, graph, update):
                raise RuntimeError("boom")

        exploding = ExplodingView()
        evolution = EvolutionView(["gender"])
        store = StreamingStore(paper_graph, views=[evolution, exploding])
        with pytest.raises(RuntimeError):
            store.append_snapshot(make_update())
        # Nothing published, and every view was rebuilt over the
        # still-current graph, so none drifts from the published state.
        assert store.version == 0
        assert exploding.rebuilds == 2
        with pytest.raises(ValidationError):
            evolution.current()

    def test_base_view_contract_is_abstract(self, paper_graph):
        view = StreamingView()
        with pytest.raises(NotImplementedError):
            view.rebuild(paper_graph)
        with pytest.raises(NotImplementedError):
            view.extend(paper_graph, make_update())


class TestEvolutionView:
    def test_matches_from_scratch_overlay(self, paper_graph):
        view = EvolutionView(["gender"])
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update("t3"))
        store.append_snapshot(
            SnapshotUpdate(time="t4", nodes={"u9": {"publications": 5}})
        )
        direct = aggregate_evolution(
            store.graph, ["t0", "t1", "t2"], ["t3", "t4"], ["gender"]
        )
        assert view.current().diff(direct) == ()

    def test_windows_exposed(self, paper_graph):
        view = EvolutionView(["gender"], old_times=["t1", "t2"])
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update())
        assert view.old_times == ("t1", "t2")
        assert view.new_times == ("t3",)

    def test_empty_new_window_rejected(self, paper_graph):
        view = EvolutionView(["gender"])
        StreamingStore(paper_graph, views=[view])
        with pytest.raises(ValidationError):
            view.current()

    def test_requires_attributes(self):
        with pytest.raises(ValidationError):
            EvolutionView([])

    def test_never_rebuilt_rejected(self, paper_graph):
        with pytest.raises(ValidationError):
            EvolutionView(["gender"]).current()


class TestExplorationView:
    @pytest.mark.parametrize("event", list(EventType))
    @pytest.mark.parametrize(
        "semantics", [Semantics.UNION, Semantics.INTERSECTION]
    )
    def test_steps_match_chain_evaluator(self, tiny_graph, event, semantics):
        initial, updates = split_history(tiny_graph)
        view = ExplorationView(event, semantics=semantics)
        store = StreamingStore(initial, views=[view])
        for update in updates:
            store.append_snapshot(update)
        counter = EventCounter(store.graph, entity=EntityKind.EDGES)
        evaluator = ChainEvaluator(counter, event)
        expected = list(evaluator.chain(0, ExtendSide.NEW, semantics))
        steps = view.steps()
        assert len(steps) == len(expected)
        for got, want in zip(steps, expected):
            assert got.old == want.old
            assert got.new == want.new
            assert got.count == want.count
            # Masks recorded mid-stream predate later entities; rows
            # appended afterwards are absent there, i.e. exactly False.
            padded = np.zeros(want.mask.shape[0], dtype=bool)
            padded[: got.mask.shape[0]] = got.mask
            assert (padded == want.mask).all()
        assert view.counts() == tuple(s.count for s in expected)

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize(
        "view_options",
        [
            {"event": EventType.GROWTH},
            {
                "event": EventType.STABILITY,
                "semantics": Semantics.INTERSECTION,
                "entity": EntityKind.NODES,
                "attributes": ["color"],
                "key": ("red",),
            },
        ],
    )
    def test_append_reads_only_the_appended_column(
        self, tiny_graph, backend, view_options, monkeypatch
    ):
        initial, updates = split_history(tiny_graph.with_storage(backend))
        view = ExplorationView(reference=0, **view_options)
        store = StreamingStore(initial, views=[view])
        backend_type = type(store.graph.storage)

        def refuse(self, entity):
            raise AssertionError("an append read the whole presence matrix")

        monkeypatch.setattr(backend_type, "presence_matrix", refuse)
        for update in updates:
            store.append_snapshot(update)
        monkeypatch.undo()
        assert type(store.graph.storage) is backend_type
        counter = EventCounter(
            store.graph,
            entity=view.entity,
            attributes=view.attributes,
            key=view.key,
        )
        expected = ChainEvaluator(counter, view.event).chain(
            0, ExtendSide.NEW, view.semantics
        )
        assert view.counts() == tuple(step.count for step in expected)

    def test_keyed_static_counts(self, paper_graph):
        view = ExplorationView(
            EventType.GROWTH,
            entity=EntityKind.NODES,
            attributes=["gender"],
            key=("f",),
        )
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update())
        counter = EventCounter(
            store.graph,
            entity=EntityKind.NODES,
            attributes=["gender"],
            key=("f",),
        )
        step = next(
            iter(
                ChainEvaluator(counter, EventType.GROWTH).chain(
                    2, ExtendSide.NEW, Semantics.UNION
                )
            )
        )
        assert view.current_count() == step.count

    def test_reference_pinned_to_registration_last_point(self, paper_graph):
        view = ExplorationView(EventType.GROWTH)
        store = StreamingStore(paper_graph, views=[view])
        assert view.reference == 2
        store.append_snapshot(make_update())
        assert view.reference == 2

    def test_first_reaching(self, paper_graph):
        view = ExplorationView(EventType.GROWTH, entity=EntityKind.NODES)
        store = StreamingStore(paper_graph, views=[view])
        store.append_snapshot(make_update("t3"))  # u9 appears
        store.append_snapshot(SnapshotUpdate(time="t4", nodes={}))
        assert view.first_reaching(1) == 0
        assert view.first_reaching(99) is None

    def test_key_requires_attributes(self):
        with pytest.raises(ExplorationError):
            ExplorationView(EventType.GROWTH, key=("f",))

    def test_varying_attribute_rejected(self, paper_graph):
        view = ExplorationView(
            EventType.GROWTH,
            entity=EntityKind.NODES,
            attributes=["publications"],
            key=(1,),
        )
        with pytest.raises(ExplorationError):
            StreamingStore(paper_graph, views=[view])

    def test_reference_out_of_range(self, paper_graph):
        view = ExplorationView(EventType.GROWTH, reference=9)
        with pytest.raises(ExplorationError):
            StreamingStore(paper_graph, views=[view])

    def test_no_appends_yet_rejected(self, paper_graph):
        view = ExplorationView(EventType.GROWTH)
        StreamingStore(paper_graph, views=[view])
        with pytest.raises(ExplorationError):
            view.current_count()


class TestSessionStreaming:
    def test_append_refreshes_graph_and_cube(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        before = session.cube
        session.append(make_update())
        assert session.graph.timeline.labels == ("t0", "t1", "t2", "t3")
        assert session.cube is not before
        agg = session.aggregate(["gender"], window=("t3",))
        assert agg.node_weight(("f",)) == 2  # u2 and the new u9

    def test_ingest_event_stream(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        session.ingest(
            [
                NodeEvent("t3", "u2", attrs={"publications": 2}),
                NodeEvent("t3", "u9", static={"gender": "f"}),
                EdgeEvent("t3", ("u9", "u2")),
            ]
        )
        assert session.graph.node_times("u9") == ("t3",)
        assert session.stream.version == 1

    def test_stream_is_lazy_and_cached(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        assert session._stream is None
        store = session.stream
        assert session.stream is store

    def test_aggregate_after_append_matches_direct(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        session.append(make_update())
        direct = aggregate(
            session.graph, ["gender"], distinct=True, times=["t3"]
        )
        agg = session.aggregate(["gender"], window=("t3",))
        assert dict(agg.node_weights) == dict(direct.node_weights)
