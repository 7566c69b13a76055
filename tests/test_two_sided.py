"""Tests for two-sided exploration and the non-monotonicity claim."""

import math
import time

import pytest

from repro.core import Interval, TemporalGraphBuilder, project
from repro.exploration import (
    EntityKind,
    EventType,
    Goal,
    Semantics,
    TwoSidedPair,
    explore,
    ExtendSide,
    find_non_monotonic_path,
    two_sided_counts,
    two_sided_explore,
)


class TestTwoSidedCounts:
    def test_enumerates_non_overlapping_pairs(self, paper_graph):
        pairs = two_sided_counts(
            paper_graph, EventType.GROWTH, Semantics.UNION
        )
        for pair in pairs:
            assert pair.old.precedes(pair.new)
        # n=3: old/new split possibilities: 5 pairs.
        assert len(pairs) == 5

    def test_counts_match_event_counter(self, paper_graph):
        pairs = {
            (p.old, p.new): p.count
            for p in two_sided_counts(
                paper_graph, EventType.GROWTH, Semantics.UNION
            )
        }
        # t0 -> t1 growth: 1 edge; t1 -> t2: 2 edges.
        assert pairs[(Interval(0, 0), Interval(1, 1))] == 1
        assert pairs[(Interval(1, 1), Interval(2, 2))] == 2

    def test_guard_on_space_size(self, small_dblp):
        with pytest.raises(ValueError):
            two_sided_counts(
                small_dblp, EventType.GROWTH, Semantics.UNION, max_pairs=10
            )

    def test_guard_fails_fast_on_long_timeline(self):
        """Regression: the candidate count is computed arithmetically
        (``C(n+2, 4)``) *before* enumeration, so a long timeline fails
        immediately instead of materializing an O(n^4) pair list first."""
        n = 200  # C(202, 4) ~ 67 million quadruples: enumeration would hang
        builder = TemporalGraphBuilder(list(range(n)))
        builder.add_node("a")
        builder.add_node("b")
        for t in range(n):
            builder.set_node_presence("a", t)
            builder.set_node_presence("b", t)
        builder.add_edge("a", "b", range(n))
        graph = builder.build()
        start = time.perf_counter()
        with pytest.raises(ValueError) as excinfo:
            two_sided_counts(graph, EventType.GROWTH, Semantics.UNION)
        assert time.perf_counter() - start < 1.0
        assert str(math.comb(n + 2, 4)) in str(excinfo.value)

    def test_guard_count_matches_enumeration(self, paper_graph):
        """The arithmetic size formula agrees with what is enumerated."""
        n = len(paper_graph.timeline)
        pairs = two_sided_counts(
            paper_graph, EventType.GROWTH, Semantics.UNION
        )
        assert len(pairs) == math.comb(n + 2, 4)


class TestNonMonotonicity:
    def test_paper_claim_on_movielens(self, small_movielens):
        """Section 3.3: with both sides extending, the difference
        operator is non-monotonic.  A concrete witness must exist on
        ordinary data."""
        witness = find_non_monotonic_path(
            small_movielens, EventType.GROWTH, Semantics.UNION
        )
        assert witness is not None
        a, b, c = witness
        assert b.contains(a) or (b.old.contains(a.old) and b.new.contains(a.new))
        not_monotone_up = not (a.count <= b.count <= c.count)
        not_monotone_down = not (a.count >= b.count >= c.count)
        assert not_monotone_up and not_monotone_down

    def test_witness_shape(self, small_movielens):
        witness = find_non_monotonic_path(
            small_movielens, EventType.GROWTH, Semantics.UNION
        )
        a, b, c = witness
        # The chain grows old side then new side.
        assert b.old == a.old.extend_left()
        assert c.new == b.new.extend_right()


class TestTwoSidedExplore:
    def test_minimal_pairs_not_dominated(self, small_movielens):
        pairs = two_sided_explore(
            small_movielens, EventType.GROWTH, Goal.MINIMAL, 50
        )
        assert pairs
        for pair in pairs:
            for other in pairs:
                if other is not pair:
                    assert not pair.contains(other)

    def test_maximal_pairs_not_dominated(self, small_movielens):
        pairs = two_sided_explore(
            small_movielens, EventType.STABILITY, Goal.MAXIMAL, 1
        )
        assert pairs
        for pair in pairs:
            for other in pairs:
                if other is not pair:
                    assert not other.contains(pair)

    def test_threshold_respected(self, small_movielens):
        for pair in two_sided_explore(
            small_movielens, EventType.SHRINKAGE, Goal.MINIMAL, 30
        ):
            assert pair.count >= 30

    def test_single_sided_results_are_in_the_passing_space(self, small_movielens):
        """The paper's reference-point pairs are a subset of the
        two-sided passing space (they may not all be two-sided-minimal)."""
        k = 30
        single = explore(
            small_movielens, EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, k
        )
        passing = {
            (p.old, p.new)
            for p in two_sided_counts(
                small_movielens, EventType.GROWTH, Semantics.UNION
            )
            if p.count >= k
        }
        for pair in single.pairs:
            assert (pair.old.interval, pair.new.interval) in passing

    def test_bad_k(self, small_movielens):
        with pytest.raises(ValueError):
            two_sided_explore(
                small_movielens, EventType.GROWTH, Goal.MINIMAL, 0
            )


def loop_filter(passing, goal):
    """The pairs of ``passing`` that no other passing pair is contained
    in (minimal) or contains (maximal): the quadratic loop that
    ``two_sided_explore`` replaced, kept as its oracle."""
    kept = []
    for candidate in passing:
        if goal is Goal.MINIMAL:
            dominated = any(
                other is not candidate and candidate.contains(other)
                for other in passing
            )
        else:
            dominated = any(
                other is not candidate and other.contains(candidate)
                for other in passing
            )
        if not dominated:
            kept.append(candidate)
    return kept


class TestAgainstTheLoop:
    @pytest.fixture()
    def dblp_10(self, small_dblp):
        """The first 10 points of DBLP: 495 pairs, quick for the loop."""
        return project(small_dblp, small_dblp.timeline.labels[:10])

    @pytest.mark.parametrize("entity", list(EntityKind))
    @pytest.mark.parametrize("goal", [Goal.MINIMAL, Goal.MAXIMAL])
    @pytest.mark.parametrize("event", list(EventType))
    @pytest.mark.parametrize(
        "fixture", ["paper_graph", "tiny_graph", "small_movielens", "dblp_10"]
    )
    def test_same_pairs_in_the_same_order(
        self, request, fixture, event, goal, entity
    ):
        graph = request.getfixturevalue(fixture)
        semantics = (
            Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
        )
        pairs = two_sided_counts(graph, event, semantics, entity=entity)
        counts = sorted(pair.count for pair in pairs)
        # Thresholds from 1 to past the largest count, by quartile.
        thresholds = {1, counts[-1] + 1} | {
            max(1, counts[len(counts) * q // 4]) for q in range(4)
        }
        for k in sorted(thresholds):
            passing = [pair for pair in pairs if pair.count >= k]
            assert two_sided_explore(
                graph, event, goal, k, entity=entity
            ) == loop_filter(passing, goal)


class TestTwoSidedPair:
    def test_contains(self):
        big = TwoSidedPair(Interval(0, 2), Interval(3, 5), 10)
        small = TwoSidedPair(Interval(1, 2), Interval(3, 4), 5)
        assert big.contains(small)
        assert not small.contains(big)
