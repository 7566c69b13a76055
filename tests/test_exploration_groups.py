"""Tests for the multi-group explorer (intervals AND groups of interest)."""

import itertools

import pytest

from repro.errors import ExplorationError
from repro.exploration import (
    EntityKind,
    EventType,
    ExtendSide,
    Goal,
    explore,
    explore_groups,
)
from repro.testing.generators import graph_from_maps


class TestEquivalenceWithSingleGroup:
    @pytest.mark.parametrize(
        "event,goal,extend",
        list(itertools.product(list(EventType), list(Goal), list(ExtendSide))),
    )
    def test_matches_explore_per_group(self, small_dblp, event, goal, extend):
        multi = explore_groups(
            small_dblp, event, goal, extend, 3, ["gender"]
        )
        for key, pairs in multi.pairs_by_group.items():
            single = explore(
                small_dblp, event, goal, extend, 3,
                attributes=["gender"], key=key,
            )
            assert pairs == single.pairs, (event, goal, extend, key)

    def test_node_entity(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW,
            5, ["gender"], entity=EntityKind.NODES,
        )
        for key, pairs in multi.pairs_by_group.items():
            single = explore(
                small_dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW,
                5, entity=EntityKind.NODES, attributes=["gender"], key=key,
            )
            assert pairs == single.pairs

    def test_single_walk_is_cheaper(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW,
            3, ["gender"],
        )
        total_single = 0
        for key in multi.pairs_by_group:
            total_single += explore(
                small_dblp, EventType.STABILITY, Goal.MINIMAL, ExtendSide.NEW,
                3, attributes=["gender"], key=key,
            ).evaluations
        assert multi.evaluations < total_single


class TestGroupKeys:
    def test_edge_groups_are_tuple_pairs(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            1, ["gender"],
        )
        assert set(multi.pairs_by_group) <= {
            (("f",), ("f",)), (("f",), ("m",)),
            (("m",), ("f",)), (("m",), ("m",)),
        }

    def test_node_groups_are_tuples(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            1, ["gender"], entity=EntityKind.NODES,
        )
        assert set(multi.pairs_by_group) == {("f",), ("m",)}

    def test_multi_attribute_groups(self, small_movielens):
        multi = explore_groups(
            small_movielens, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            1, ["gender", "age"], entity=EntityKind.NODES,
        )
        assert all(len(key) == 2 for key in multi.pairs_by_group)


class TestRanking:
    def test_interesting_groups_sorted_by_best_count(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            1, ["gender"],
        )
        ranked = multi.interesting_groups
        bests = [multi.best_pair(key).count for key in ranked]
        assert bests == sorted(bests, reverse=True)

    def test_majority_group_dominates(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
            1, ["gender"],
        )
        # Male-male collaborations vastly outnumber the rest.
        assert multi.interesting_groups[0] == (("m",), ("m",))

    def test_best_pair_none_for_empty_group(self, small_dblp):
        multi = explore_groups(
            small_dblp, EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW,
            10 ** 9, ["gender"],
        )
        for key in multi.pairs_by_group:
            assert multi.best_pair(key) is None
        assert multi.interesting_groups == ()


class TestValidation:
    def test_requires_attributes(self, small_dblp):
        with pytest.raises(ValueError):
            explore_groups(
                small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
                1, [],
            )

    def test_rejects_time_varying_attribute(self, small_dblp):
        with pytest.raises(ValueError):
            explore_groups(
                small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
                1, ["publications"],
            )

    def test_dangling_edge_raises_taxonomy_error(self):
        graph = graph_from_maps(
            ["t0", "t1"],
            {"u1": ["t0", "t1"], "u2": ["t0", "t1"]},
            {("u1", "u2"): ["t1"], ("u2", "ghost"): ["t1"]},
            static={"u1": {"gender": "m"}, "u2": {"gender": "f"}},
            allow_dangling=True,
        )
        args = (EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, 1, ["gender"])
        with pytest.raises(ExplorationError, match="'ghost'"):
            explore_groups(graph, *args)
        nodes = explore_groups(graph, *args, entity=EntityKind.NODES)
        assert set(nodes.pairs_by_group) == {("m",), ("f",)}

    def test_rejects_bad_k(self, small_dblp):
        with pytest.raises(ValueError):
            explore_groups(
                small_dblp, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW,
                0, ["gender"],
            )
