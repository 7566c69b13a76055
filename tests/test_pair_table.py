"""Reported pairs as a column table, and keys bound against a shared index.

Explore results keep their pairs as integer columns
(:class:`repro.exploration.PairTable`) and build pair objects only on
first read; :meth:`EventCounter._bind_key` reads the index a counter
shares with every key (a packed match row for a static key, hit rows
from the time-major code grid for a time-varying one) and looks for
dangling edges once per index.
"""

import itertools
import pickle
import threading

import numpy as np
import pytest

from repro import GraphTempoSession
from repro.analysis import exploration_report
from repro.core import Interval, union
from repro.core.updates import snapshot_at
from repro.errors import ExplorationError
from repro.exploration import (
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    IntervalPairResult,
    PairTable,
    Semantics,
    Side,
    consecutive_event_counts,
    explore,
    explore_groups,
    suggest_threshold,
)
from repro.datasets import paper_example
from repro.exploration.events import _pack_rows
from repro.serving import QueryServer
from repro.testing.reference import explore_reference

from .test_exploration_events import GHOST, _dangling_graph
from .test_exploration_parity import COUNTER_CONFIGS, TABLE1_CASES

#: ``(statement suffix, entity, attributes, key)`` of every keyed or
#: static counter the served cases below use.
SERVED_CONFIGS = (
    ("on edges", EntityKind.EDGES, (), None),
    ("on edges by gender", EntityKind.EDGES, ("gender",), None),
    ("on edges by gender key f -> f", EntityKind.EDGES, ("gender",), (("f",), ("f",))),
    ("on nodes by gender key f", EntityKind.NODES, ("gender",), ("f",)),
    ("on nodes by publications key 1", EntityKind.NODES, ("publications",), (1,)),
)


def _statement(case, k, suffix):
    event, goal, extend = case
    return f"explore {event} {goal} extend {extend} k {k} {suffix}"


class _Constructions:
    """Counts the pair objects built while installed."""

    def __init__(self, monkeypatch):
        self.counts = {cls.__name__: 0 for cls in (IntervalPairResult, Side, Interval)}
        for cls in (IntervalPairResult, Side, Interval):
            original = cls.__init__

            def counting(self_, *args, _original=original, _name=cls.__name__, **kwargs):
                self.counts[_name] += 1
                _original(self_, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

    @property
    def total(self):
        return sum(self.counts.values())


class TestServedPairs:
    def test_serving_builds_no_pair_objects(self, small_dblp, monkeypatch):
        server = QueryServer(small_dblp)
        served = []
        built = _Constructions(monkeypatch)
        for case in TABLE1_CASES:
            for suffix, *config in SERVED_CONFIGS:
                result = server.serve(_statement(case, 2, suffix)).result
                assert len(result.pairs) == len(result.pairs.counts)
                served.append((case, config, result))
        assert built.total == 0, built.counts
        monkeypatch.undo()
        for case, (entity, attributes, key), result in served:
            expected = explore_reference(
                small_dblp, *case, 2, entity=entity, attributes=attributes, key=key
            )
            assert result.best() == expected.best()
            first = tuple(result.pairs)
            assert first == tuple(expected.pairs), (case, entity, attributes, key)
            assert all(type(pair.count) is int for pair in first)
            assert result.pairs.as_tuple() is result.pairs.as_tuple()
            assert all(a is b for a, b in zip(result.pairs, first))

    def test_concurrent_first_reads_share_one_tuple(self, small_dblp):
        result = explore(
            small_dblp, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1
        )
        assert len(result.pairs) > 1
        barrier = threading.Barrier(8)
        reads = []

        def read():
            barrier.wait(timeout=10)
            reads.append(result.pairs.as_tuple())

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(reads) == 8
        assert all(pairs is reads[0] for pairs in reads)
        assert reads[0] == tuple(
            explore_reference(
                small_dblp, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1
            ).pairs
        )

    def test_results_behave_as_the_reference_results(self, paper_graph):
        for case in TABLE1_CASES:
            for config in COUNTER_CONFIGS["paper_graph"]:
                fast = explore(paper_graph, *case, 1, *config)
                slow = explore_reference(paper_graph, *case, 1, *config)
                clone = pickle.loads(pickle.dumps(fast))
                assert fast == slow == clone
                assert fast.diff(slow) == () and clone.diff(slow) == ()
                assert str(fast) == str(slow) == str(clone)
                assert hash(fast) == hash(slow) == hash(clone)
                assert fast.best() == slow.best() == clone.best()
                assert clone.pairs.as_tuple() == slow.pairs.as_tuple()


class TestPairTable:
    def test_empty_tables_are_equal_whatever_the_semantics(self):
        empty = PairTable.of([], [], [], [], [])
        other = PairTable.of([], [], [], [], [], Semantics.INTERSECTION)
        assert empty == other == ()
        assert len(empty) == 0 and empty.best() is None

    def test_columns_are_read_only(self):
        table = PairTable.of([0], [0], [1], [2], [5])
        with pytest.raises(ValueError):
            table.columns[4, 0] = 6
        assert table[0] == table[-1] == table.best()
        with pytest.raises(IndexError):
            table[1]

    def test_mixed_semantics_are_rejected(self):
        point = Side.point(0)
        span = Side(Interval(1, 2), Semantics.INTERSECTION)
        with pytest.raises(ExplorationError):
            PairTable.from_pairs([(point, span, 1), (point, Side.point(1), 1)])


def _node_match(graph, attributes, wanted):
    """``(nodes, times)``: the node's tuple at each time equals ``wanted``."""
    match = np.ones(graph.node_presence.shape, dtype=bool)
    for name, value in zip(attributes, wanted):
        if graph.is_static(name):
            values = graph.static_attrs.column(name)[:, None]
        else:
            values = graph.varying_attrs[name].values
        match &= np.asarray(values == value, dtype=bool)
    return match


def _expected_hits(graph, entity, attributes, key):
    """A key's hits from the frames: ``(entities, times)`` for
    time-varying attributes (present, and the tuple matches), one
    boolean per entity for static ones."""
    static = all(graph.is_static(name) for name in attributes)
    if entity is EntityKind.NODES:
        match = _node_match(graph, attributes, key)
        return match[:, 0] if static else match & graph.node_presence.values.astype(bool)
    rows = {node: row for row, node in enumerate(graph.nodes)}
    src = np.array([rows.get(edge[0], -1) for edge in graph.edges], dtype=np.intp)
    dst = np.array([rows.get(edge[1], -1) for edge in graph.edges], dtype=np.intp)
    resolved = ((src >= 0) & (dst >= 0))[:, None]
    sides = []
    for endpoints, wanted in ((src, key[0]), (dst, key[1])):
        match = _node_match(graph, attributes, wanted)
        if not static:
            match &= graph.node_presence.values.astype(bool)
        sides.append(np.where(resolved, match[endpoints], False))
    hits = sides[0] & sides[1]
    if static:
        return hits[:, 0] if hits.shape[1] else np.zeros(len(graph.edges), bool)
    return hits & graph.edge_presence.values.astype(bool)


def _graphs(request):
    """Every fixture graph, a take whose entity counts are not multiples
    of 64, and 1- and 2-point timelines."""
    dblp = request.getfixturevalue("small_dblp")
    graphs = [
        (name, request.getfixturevalue(name), COUNTER_CONFIGS[name])
        for name in sorted(COUNTER_CONFIGS)
    ]
    odd = dblp.take(range(dblp.n_nodes), range(130), dblp.timeline.labels)
    assert odd.n_nodes % 64 and odd.n_edges % 64
    graphs.append(("odd", odd, COUNTER_CONFIGS["small_dblp"]))
    for n_times in (1, 2):
        short = dblp.take(
            range(dblp.n_nodes), range(dblp.n_edges), dblp.timeline.labels[:n_times]
        )
        graphs.append((f"{n_times} points", short, COUNTER_CONFIGS["small_dblp"]))
    return graphs


class TestKeyBinding:
    def test_bound_rows_equal_packed_frames_bit_for_bit(self, request):
        for name, graph, configs in _graphs(request):
            for entity, attributes, key in configs:
                if key is None:
                    continue
                shared = EventCounter(graph, entity, attributes)
                for counter in (
                    EventCounter(graph, entity, attributes, key),
                    shared.with_key(key),
                ):
                    where = (name, entity, attributes, key)
                    expected = _expected_hits(graph, entity, attributes, key)
                    if expected.ndim == 1:
                        want = _pack_rows(expected[:, None])[0]
                        got = counter._match_row
                        assert np.array_equal(counter._match_mask, expected), where
                        assert counter._hit_rows.shape == (len(graph.timeline), 0)
                    else:
                        want = _pack_rows(expected)
                        got = counter._hit_rows
                        assert counter._match_row is None, where
                    assert got.dtype == want.dtype and got.shape == want.shape, where
                    assert got.tobytes() == want.tobytes(), where
                assert shared.with_key(key)._code_grid is shared._code_grid

    def test_unseen_keys_hit_nothing(self, small_dblp):
        for entity, attributes, key in (
            (EntityKind.NODES, ("gender",), ("x",)),
            (EntityKind.NODES, ("publications",), (99,)),
            (EntityKind.EDGES, ("gender",), (("x",), ("f",))),
            (EntityKind.EDGES, ("gender", "publications"), (("f", 99), ("m", 1))),
        ):
            counter = EventCounter(small_dblp, entity, attributes, key)
            rows = counter._match_row if counter._match_row is not None else counter._hit_rows
            assert not rows.any(), (entity, attributes, key)

    @pytest.mark.parametrize("entity", EntityKind)
    def test_dangling_edges_raise_for_exactly_the_same_binds(self, entity):
        graph = _dangling_graph(GHOST)
        expected_message = None
        for attributes, key in itertools.product(
            [(), ("gender",), ("level",), ("gender", "level")],
            [None, "key"],
        ):
            if key is not None:
                if not attributes:
                    continue
                node_key = tuple({"gender": "f", "level": 1}[a] for a in attributes)
                key = node_key if entity is EntityKind.NODES else (node_key, node_key)
            reads_endpoints = (
                entity is EntityKind.EDGES
                and attributes
                and (key is not None or "level" in attributes)
            )
            keyless_raises = entity is EntityKind.EDGES and "level" in attributes
            if reads_endpoints:
                with pytest.raises(ExplorationError, match="'ghost'") as raised:
                    EventCounter(graph, entity, attributes, key)
                expected_message = expected_message or str(raised.value)
                assert str(raised.value) == expected_message
            else:
                EventCounter(graph, entity, attributes, key)
            if keyless_raises:
                continue
            shared = EventCounter(graph, entity, attributes)
            for _ in range(2):  # the index's finding holds for every bind
                if reads_endpoints:
                    with pytest.raises(ExplorationError, match="'ghost'"):
                        shared.with_key(key)
                else:
                    shared.with_key(key)


class TestOneCounterPerLadder:
    @pytest.fixture
    def builds(self, monkeypatch):
        counts = []
        original = EventCounter.__init__

        def counting(self, *args, **kwargs):
            counts.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(EventCounter, "__init__", counting)
        return counts

    @pytest.mark.parametrize("ladder", [[1], [1, 2, 3, 5, 8, 13]])
    def test_report_builds_one_counter(self, small_dblp, builds, ladder):
        case = (EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW)
        what = dict(attributes=["gender"], key=(("f",), ("f",)))
        report = exploration_report(small_dblp, *case, ladder, **what)
        assert len(builds) == 1
        for k in ladder:
            assert report.results[k] == explore(small_dblp, *case, k, **what)

    def test_session_builds_one_counter_per_graph_version(self, small_dblp, builds):
        labels = small_dblp.timeline.labels
        session = GraphTempoSession(union(small_dblp, labels[:-1]))
        case = ("stability", "maximal", "new")
        what = dict(entity="edges", attributes=["gender"], key=(("f",), ("m",)))
        ladder = (1, 2, 3, 5)
        for version in range(2):
            if version:
                session.append(snapshot_at(small_dblp, labels[-1]))
            before = len(builds)
            results = [session.explore(*case, k=k, **what) for k in ladder]
            assert len(builds) == before + 1, version
            for k, result in zip(ladder, results):
                assert result == explore(
                    session.graph,
                    EventType.STABILITY,
                    Goal.MAXIMAL,
                    ExtendSide.NEW,
                    k,
                    entity=EntityKind.EDGES,
                    attributes=["gender"],
                    key=(("f",), ("m",)),
                )

    def test_session_threshold_suggestions_use_the_cube_counter(self, builds):
        graph = paper_example()
        session = GraphTempoSession(graph)
        case = ("stability", "maximal", "new")
        what = dict(entity="edges", attributes=["gender"], key=(("f",), ("m",)))
        results = [session.explore(*case, **what) for _ in range(3)]
        assert len(builds) == 1
        keyed = dict(entity=EntityKind.EDGES, attributes=["gender"], key=(("f",), ("m",)))
        k = suggest_threshold(graph, EventType.STABILITY, mode="max", **keyed)
        expected = explore(
            graph, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, k, **keyed
        )
        assert results == [expected] * 3

    def test_session_groups_share_the_explore_counter(self, builds):
        graph = paper_example()
        session = GraphTempoSession(graph)
        case = ("growth", "minimal", "new")
        session.explore(*case, k=1, entity="edges", attributes=["gender"])
        groups = [session.explore_groups(*case, 1, ["gender"]) for _ in range(2)]
        assert len(builds) == 1
        expected = explore_groups(
            graph, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1, ["gender"]
        )
        assert groups[0].pairs_by_group == groups[1].pairs_by_group
        assert groups[0].pairs_by_group == expected.pairs_by_group
        assert groups[0].evaluations == expected.evaluations

    def test_a_counter_must_fit_the_call(self):
        graph = paper_example()
        keyless = EventCounter(graph, EntityKind.EDGES, ["gender"])
        keyed = keyless.with_key((("f",), ("m",)))
        event = EventType.STABILITY
        assert consecutive_event_counts(
            graph, event, attributes=["gender"], counter=keyless
        ) == consecutive_event_counts(graph, event, attributes=["gender"])
        case = (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1, ["gender"])
        assert (
            explore_groups(graph, *case, counter=keyless).pairs_by_group
            == explore_groups(graph, *case).pairs_by_group
        )
        with pytest.raises(ExplorationError, match="counter was built"):
            consecutive_event_counts(graph, event, attributes=["gender"], counter=keyed)
        with pytest.raises(ExplorationError, match="counter was built"):
            suggest_threshold(graph, event, entity=EntityKind.NODES, counter=keyless)
        with pytest.raises(ExplorationError, match="counter was built"):
            explore_groups(graph, *case, counter=keyed)
