"""Parity suite: the packed chain walks vs. the per-pair reference.

The production engine (batched depth-at-a-time walks over packed
presence rows, vectorized appearance counting) must be *bit-identical*
to the per-pair evaluation of :mod:`repro.testing.reference` across all
Table-1 strategy cases and threshold ladders, on the example graph and
on the MovieLens/DBLP fixtures, with static and time-varying
attributes, with and without keys.  Any drift here is a correctness
bug, never a matter of tolerance.
"""

import itertools

import numpy as np
import pytest

from repro.core import Interval
from repro.core.aggregation import _node_tuple_table
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    Side,
    consecutive_event_counts,
    exhaustive_explore,
    explore,
)
from repro.exploration.events import _unpack_row, event_mask_from
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.testing.reference import (
    exhaustive_reference,
    explore_reference,
    reference_chain,
    reference_consecutive,
    reference_longest,
)

TABLE1_CASES = list(itertools.product(EventType, Goal, ExtendSide))

# (fixture name, [(entity, attributes, key), ...]) — static-only,
# time-varying, keyed and keyless configurations per dataset.
COUNTER_CONFIGS = {
    "paper_graph": [
        (EntityKind.EDGES, (), None),
        (EntityKind.NODES, ("gender",), ("f",)),
        (EntityKind.EDGES, ("gender",), (("f",), ("f",))),
        (EntityKind.NODES, ("gender", "publications"), ("f", 1)),
        (EntityKind.EDGES, ("publications",), None),
        # A time-varying key that never occurs.
        (EntityKind.NODES, ("publications",), (99,)),
    ],
    "small_movielens": [
        (EntityKind.EDGES, (), None),
        (EntityKind.EDGES, ("gender",), (("f",), ("f",))),
        (EntityKind.EDGES, ("gender", "rating"), None),
    ],
    "small_dblp": [
        (EntityKind.EDGES, (), None),
        (EntityKind.NODES, ("gender",), ("f",)),
        (EntityKind.EDGES, ("publications",), None),
        # Time-varying keyed edges and nodes, time-varying keyless
        # nodes, and a static key that never occurs.
        (EntityKind.EDGES, ("gender", "publications"), (("f", 1), ("m", 2))),
        (EntityKind.NODES, ("publications",), (1,)),
        (EntityKind.NODES, ("publications",), None),
        (EntityKind.EDGES, ("gender",), (("x",), ("f",))),
    ],
}

DATASETS = sorted(COUNTER_CONFIGS)


def _graph(request, name):
    return request.getfixturevalue(name)


class TestExploreParity:
    """explore() — all eight Table-1 cases, packed walks vs. per-pair."""

    @pytest.mark.parametrize("event,goal,extend", TABLE1_CASES)
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_table1_case(self, request, dataset, event, goal, extend):
        graph = _graph(request, dataset)
        fast = explore(graph, event, goal, extend, 1)
        slow = explore_reference(graph, event, goal, extend, 1)
        assert fast == slow

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_attribute_configs(self, request, dataset):
        graph = _graph(request, dataset)
        for entity, attributes, key in COUNTER_CONFIGS[dataset]:
            for event, goal, extend in (
                (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW),
                (EventType.GROWTH, Goal.MINIMAL, ExtendSide.OLD),
                (EventType.SHRINKAGE, Goal.MAXIMAL, ExtendSide.OLD),
            ):
                kwargs = dict(entity=entity, attributes=attributes, key=key)
                fast = explore(graph, event, goal, extend, 1, **kwargs)
                slow = explore_reference(graph, event, goal, extend, 1, **kwargs)
                assert fast == slow, (entity, attributes, key, event, goal, extend)


#: The exploration counters both paths must move by the same amounts.
EXPLORATION_COUNTERS = (
    "exploration.chains",
    "exploration.chain_steps",
    "exploration.pruned_steps",
)


def _counted_explore(graph, case, k, config, explorer=explore):
    """``explorer`` under a fresh metrics registry: the result, and the
    registry holding the metrics it moved."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        result = explorer(graph, *case, k, *config)
    finally:
        set_metrics(previous)
    return result, registry


def _ladder(graph, event, config):
    """k in {1, 2, the median consecutive count, the maximum + 1}."""
    counts = consecutive_event_counts(graph, event, *config)
    ladder = {1, 2}
    if counts:
        ladder |= {max(1, round(float(np.median(counts)))), max(counts) + 1}
    return sorted(ladder)


def _assert_ladders_agree(graph, configs):
    """Every Table-1 case, counter configuration and ladder threshold:
    the batched walk equals the per-pair reference, counts, evaluations,
    sides, order and exploration counters alike."""
    for config in configs:
        for case in TABLE1_CASES:
            for k in _ladder(graph, case[0], config):
                fast, fast_metrics = _counted_explore(graph, case, k, config)
                slow, slow_metrics = _counted_explore(
                    graph, case, k, config, explorer=explore_reference
                )
                assert fast == slow, (config, case, k)
                assert all(type(pair.count) is int for pair in fast.pairs)
                for name in EXPLORATION_COUNTERS:
                    assert fast_metrics.counter(name) == slow_metrics.counter(
                        name
                    ), (name, config, case, k)


def _reported(walk):
    """A batched walk's pair table as ``(old, new, count)`` triples, and
    the number of pairs it evaluated."""
    table, evaluations = walk
    triples = [(pair.old, pair.new, pair.count) for pair in table]
    assert all(type(count) is int for _, _, count in triples)
    return triples, evaluations


def _stepped(steps, k):
    """A per-pair walk's ``(old, new, count)`` triples reaching ``k``,
    and the number of pairs it evaluated."""
    steps = list(steps)
    return [(s.old, s.new, s.count) for s in steps if s.count >= k], len(steps)


def _stepped_chains(counter, event, start, stop, extend, semantics, k):
    """U-Explore (union) or I-Explore (intersection) over the chains of
    references ``start .. stop-1``, one per-pair chain walk at a time:
    a union chain stops at its first pair reaching ``k`` and reports
    it, an intersection chain stops at its first failure and reports
    the last passing pair."""
    pairs, evaluations = [], 0
    for reference in range(start, stop):
        found = None
        for step in reference_chain(counter, event, reference, extend, semantics):
            evaluations += 1
            passed = step.count >= k
            if passed:
                found = (step.old, step.new, step.count)
            if passed == (semantics is Semantics.UNION):
                break
        if found is not None:
            pairs.append(found)
    return pairs, evaluations


class TestThresholdLadders:
    """The batched walk vs. the per-pair reference past k=1, where
    chains run deep before U-Explore passes or I-Explore fails."""

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_every_case_and_counter(self, request, dataset):
        graph = _graph(request, dataset)
        _assert_ladders_agree(graph, COUNTER_CONFIGS[dataset])

    def test_entity_count_not_a_multiple_of_64(self, small_dblp):
        graph = small_dblp.take(
            range(small_dblp.n_nodes), range(130), small_dblp.timeline.labels
        )
        assert graph.n_edges == 130 and graph.n_nodes > 64
        _assert_ladders_agree(graph, COUNTER_CONFIGS["small_dblp"])

    @pytest.mark.parametrize("n_times", [1, 2])
    def test_short_timelines(self, small_dblp, n_times):
        graph = small_dblp.take(
            range(small_dblp.n_nodes),
            range(small_dblp.n_edges),
            small_dblp.timeline.labels[:n_times],
        )
        _assert_ladders_agree(graph, COUNTER_CONFIGS["small_dblp"])

    def test_pool_route_slices_start_mid_timeline(self, small_dblp):
        """Every batched walk over a reference slice that starts
        mid-timeline reports what the per-step walks report over the
        same slice: pairs, counts, order and evaluations."""
        last = len(small_dblp.timeline) - 1
        slices = [(1, last), (last // 2, last), (2, last - 1), (last - 1, last)]
        assert all(0 < start < stop for start, stop in slices)
        for config in [COUNTER_CONFIGS["small_dblp"][i] for i in (1, 3, 5)]:
            counter = EventCounter(small_dblp, *config)
            for event in EventType:
                batched = ChainEvaluator(counter, event)
                for k, (start, stop) in itertools.product(
                    _ladder(small_dblp, event, config), slices
                ):
                    where = (config, event, k, start, stop)
                    assert _reported(
                        batched.walk_consecutive(start, stop, k)
                    ) == _stepped(
                        reference_consecutive(counter, event, start, stop), k
                    ), where
                    for extend in ExtendSide:
                        assert _reported(
                            batched.walk_longest(extend, start, stop, k)
                        ) == (
                            _stepped(
                                reference_longest(counter, event, extend, start, stop),
                                k,
                            )
                        ), (where, extend)
                        for semantics in Semantics:
                            assert _reported(
                                batched.walk_chains(start, stop, extend, semantics, k)
                            ) == _stepped_chains(
                                counter, event, start, stop, extend, semantics, k
                            ), (where, extend, semantics)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_every_batched_pair_matches_its_count(self, request, dataset):
        """Every event on every walk, including the (event, side)
        combinations no Table-1 case routes there: with ``k=0`` every
        consecutive and longest pair is reported, and I-Explore reports
        each chain's full extension."""
        graph = _graph(request, dataset)
        last = len(graph.timeline) - 1
        for config in COUNTER_CONFIGS[dataset]:
            counter = EventCounter(graph, *config)
            for event in EventType:
                evaluator = ChainEvaluator(counter, event)
                walks = [
                    evaluator.walk_consecutive(0, last, 0),
                    evaluator.walk_longest(ExtendSide.OLD, 0, last, 0),
                    evaluator.walk_longest(ExtendSide.NEW, 0, last, 0),
                ] + [
                    evaluator.walk_chains(0, last, extend, Semantics.INTERSECTION, 0)
                    for extend in ExtendSide
                ]
                for walk in walks:
                    pairs, _ = _reported(walk)
                    assert len(walk[0]) == len(pairs) == last
                    for old, new, count in pairs:
                        assert count == counter.count(event, old, new), (
                            config, event, old, new
                        )


class TestExhaustiveParity:
    @pytest.mark.parametrize("event,goal,extend", TABLE1_CASES)
    def test_paper_graph(self, paper_graph, event, goal, extend):
        fast = exhaustive_explore(paper_graph, event, goal, extend, 1)
        slow = exhaustive_reference(paper_graph, event, goal, extend, 1)
        assert fast == slow

    @pytest.mark.parametrize("dataset", ["small_movielens", "small_dblp"])
    @pytest.mark.parametrize("extend", ExtendSide)
    def test_fixtures(self, request, dataset, extend):
        graph = _graph(request, dataset)
        fast = exhaustive_explore(
            graph, EventType.STABILITY, Goal.MAXIMAL, extend, 1
        )
        slow = exhaustive_reference(
            graph, EventType.STABILITY, Goal.MAXIMAL, extend, 1
        )
        assert fast == slow


class TestChainStepMasks:
    """Every pair of the packed depth walk must reduce to the event mask
    and count the counter computes from scratch for the same pair."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("extend", ExtendSide)
    @pytest.mark.parametrize("semantics", Semantics)
    def test_chain_masks_bit_identical(self, request, dataset, extend, semantics):
        graph = _graph(request, dataset)
        entity, attributes, key = COUNTER_CONFIGS[dataset][1]
        counter = EventCounter(
            graph, entity=entity, attributes=attributes, key=key
        )
        n_rows = counter._presence_matrix.shape[0]
        stop = min(len(graph.timeline) - 1, 4)
        for event in EventType:
            evaluator = ChainEvaluator(counter, event)
            walk = evaluator.walk_depths(0, stop, extend, semantics)
            counts = evaluator.walk_counts(0, stop, extend, semantics)
            for (depth, live, pair, _, _), (_, _, depth_counts, _) in zip(
                walk, counts, strict=True
            ):
                words = event_mask_from(event, *pair)
                for row, reference, count in zip(
                    words, live.tolist(), depth_counts.tolist(), strict=True
                ):
                    old, new = evaluator.chain_sides(
                        reference, depth, extend, semantics
                    )
                    expected_mask = counter.event_mask(event, old, new)
                    assert np.array_equal(_unpack_row(row, n_rows), expected_mask)
                    assert count == counter.count(event, old, new)

    def test_evaluations_match_between_modes(self, small_dblp):
        """Pruning decisions are identical, so the packed walks and the
        per-pair reference evaluate the same number of pairs."""
        for event, goal, extend in TABLE1_CASES:
            fast = explore(small_dblp, event, goal, extend, 2)
            slow = explore_reference(small_dblp, event, goal, extend, 2)
            assert fast.evaluations == slow.evaluations


class TestVectorizedAppearanceParity:
    """The tuple-code counting path vs. a reimplementation of the seed's
    nested-loop ``_count_appearances`` (kept verbatim as reference)."""

    @staticmethod
    def _seed_count(counter, event, old, new, mask):
        labels = counter.graph.timeline.labels
        if event is EventType.GROWTH:
            window = [labels[i] for i in new.interval.indices()]
        elif event is EventType.SHRINKAGE:
            window = [labels[i] for i in old.interval.indices()]
        else:
            window = [
                labels[i]
                for i in sorted(
                    set(old.interval.indices()) | set(new.interval.indices())
                )
            ]
        node_table = _node_tuple_table(
            counter.graph, counter.attributes, tuple(window)
        )
        if counter.entity is EntityKind.NODES:
            kept = {
                node
                for node, keep in zip(
                    counter.graph.node_presence.row_labels, mask
                )
                if keep
            }
            appearances = {
                (node, values)
                for node, _, values in node_table.rows
                if node in kept
            }
            if counter.key is None:
                return len(appearances)
            wanted = tuple(counter.key)
            return sum(1 for _, values in appearances if values == wanted)
        lookup = {(node, t): values for node, t, values in node_table.rows}
        positions = [counter.graph.timeline.index_of(t) for t in window]
        presence = counter.graph.edge_presence.values
        appearances = set()
        for row, edge in enumerate(counter.graph.edge_presence.row_labels):
            if not mask[row]:
                continue
            u, v = edge
            for t, pos in zip(window, positions):
                if not presence[row, pos]:
                    continue
                source = lookup.get((u, t))
                target = lookup.get((v, t))
                if source is None or target is None:
                    continue
                appearances.add((edge, (source, target)))
        if counter.key is None:
            return len(appearances)
        wanted = (tuple(counter.key[0]), tuple(counter.key[1]))
        return sum(1 for _, pair in appearances if pair == wanted)

    @pytest.mark.parametrize(
        "entity,attributes,key",
        [
            (EntityKind.NODES, ("publications",), None),
            (EntityKind.NODES, ("gender", "publications"), ("f", 1)),
            (EntityKind.EDGES, ("publications",), None),
            (EntityKind.EDGES, ("gender", "publications"), (("f", 1), ("f", 1))),
        ],
    )
    def test_paper_graph_all_pairs(self, paper_graph, entity, attributes, key):
        counter = EventCounter(
            paper_graph, entity=entity, attributes=attributes, key=key
        )
        n = len(paper_graph.timeline)
        spans = list(itertools.combinations(range(n + 1), 2))
        for (a, b), (c, d) in itertools.product(spans, repeat=2):
            for semantics in Semantics:
                old = Side(Interval(a, b - 1), semantics)
                new = Side(Interval(c, d - 1), semantics)
                for event in EventType:
                    mask = counter.event_mask(event, old, new)
                    assert counter.count(event, old, new) == self._seed_count(
                        counter, event, old, new, mask
                    )

    @pytest.mark.parametrize("dataset", ["small_movielens", "small_dblp"])
    def test_fixtures_spot_pairs(self, request, dataset):
        graph = _graph(request, dataset)
        attrs = ("rating",) if dataset == "small_movielens" else ("publications",)
        for entity in EntityKind:
            counter = EventCounter(graph, entity=entity, attributes=attrs)
            n = len(graph.timeline)
            pairs = [
                (Side.point(0), Side.point(1)),
                (Side(Interval(0, 1), Semantics.UNION),
                 Side(Interval(2, min(3, n - 1)), Semantics.UNION)),
                (Side(Interval(0, 2), Semantics.INTERSECTION),
                 Side(Interval(1, min(3, n - 1)), Semantics.INTERSECTION)),
            ]
            for old, new in pairs:
                for event in EventType:
                    mask = counter.event_mask(event, old, new)
                    assert counter.count(event, old, new) == self._seed_count(
                        counter, event, old, new, mask
                    )


class TestDownstreamParity:
    def test_consecutive_counts_match_manual(self, small_dblp):
        for event in EventType:
            counter = EventCounter(small_dblp)
            manual = [
                counter.count(event, Side.point(i), Side.point(i + 1))
                for i in range(len(small_dblp.timeline) - 1)
            ]
            assert consecutive_event_counts(small_dblp, event) == manual

    def test_two_sided_counts_match_counter(self, paper_graph):
        from repro.exploration import two_sided_counts

        for event in EventType:
            for semantics in Semantics:
                counter = EventCounter(paper_graph)
                for pair in two_sided_counts(paper_graph, event, semantics):
                    expected = counter.count(
                        event,
                        Side(pair.old, semantics),
                        Side(pair.new, semantics),
                    )
                    assert pair.count == expected
