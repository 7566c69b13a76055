"""Tests for graph aggregation (Definition 2.6, Algorithm 2)."""

import pytest

from repro.core import AggregateGraph, aggregate, union
from repro.testing import assert_same_aggregate
from repro.testing.reference import _aggregate_general, _aggregate_static_fast


class TestTimePointAggregation:
    def test_figure3a_t0(self, paper_graph):
        agg = aggregate(paper_graph, ["gender", "publications"], times=["t0"])
        assert agg.node_weight(("m", 3)) == 1  # u1
        assert agg.node_weight(("f", 1)) == 2  # u2, u3
        assert agg.node_weight(("f", 2)) == 1  # u4

    def test_figure3b_t1(self, paper_graph):
        agg = aggregate(paper_graph, ["gender", "publications"], times=["t1"])
        assert agg.node_weight(("m", 1)) == 1
        assert agg.node_weight(("f", 1)) == 2  # u2, u4

    def test_timepoint_dist_equals_all(self, paper_graph):
        """On a single time point DIST and ALL coincide (Section 2.2)."""
        for time in paper_graph.timeline.labels:
            dist = aggregate(
                paper_graph, ["gender", "publications"], distinct=True, times=[time]
            )
            non_dist = aggregate(
                paper_graph, ["gender", "publications"], distinct=False, times=[time]
            )
            assert dict(dist.node_weights) == dict(non_dist.node_weights)
            assert dict(dist.edge_weights) == dict(non_dist.edge_weights)

    def test_edge_weights_t0(self, paper_graph):
        agg = aggregate(paper_graph, ["gender"], times=["t0"])
        # Edges at t0: (u1,u2), (u2,u3), (u1,u4) -> m->f, f->f, m->f.
        assert agg.edge_weight(("m",), ("f",)) == 2
        assert agg.edge_weight(("f",), ("f",)) == 1


class TestUnionAggregation:
    def test_figure3d_distinct(self, paper_graph):
        u = union(paper_graph, ["t0"], ["t1"])
        agg = aggregate(u, ["gender", "publications"], distinct=True)
        assert agg.node_weight(("f", 1)) == 3  # u2, u3, u4

    def test_figure3e_non_distinct(self, paper_graph):
        u = union(paper_graph, ["t0"], ["t1"])
        agg = aggregate(u, ["gender", "publications"], distinct=False)
        assert agg.node_weight(("f", 1)) == 4  # u2 twice, u3, u4

    def test_distinct_never_exceeds_all(self, paper_graph):
        u = union(paper_graph, ["t0", "t1", "t2"])
        dist = aggregate(u, ["gender", "publications"], distinct=True)
        non_dist = aggregate(u, ["gender", "publications"], distinct=False)
        for key, weight in dist.node_weights.items():
            assert weight <= non_dist.node_weight(key)
        for (s, t), weight in dist.edge_weights.items():
            assert weight <= non_dist.edge_weight(s, t)

    def test_static_distinct_counts_distinct_entities(self, paper_graph):
        u = union(paper_graph, ["t0"], ["t1"])
        agg = aggregate(u, ["gender"], distinct=True)
        assert agg.node_weight(("f",)) == 3
        assert agg.node_weight(("m",)) == 1

    def test_static_all_counts_appearances(self, paper_graph):
        u = union(paper_graph, ["t0"], ["t1"])
        agg = aggregate(u, ["gender"], distinct=False)
        # f appearances: u2(t0,t1), u3(t0), u4(t0,t1) = 5.
        assert agg.node_weight(("f",)) == 5
        assert agg.node_weight(("m",)) == 2


class TestStaticFastPath:
    """The reference's Section 4.2 static path and its Algorithm 2 path
    agree with each other and with the production kernel."""

    @staticmethod
    def _agree(graph, attributes, times, distinct):
        fast = _aggregate_static_fast(graph, attributes, times, distinct)
        general = _aggregate_general(graph, attributes, times, distinct)
        assert_same_aggregate(fast, general)
        assert_same_aggregate(
            aggregate(graph, attributes, distinct=distinct, times=times), general
        )

    def test_matches_general_path_dist(self, small_dblp):
        self._agree(small_dblp, ["gender"], small_dblp.timeline.labels[:4], True)

    def test_matches_general_path_all(self, small_dblp):
        self._agree(small_dblp, ["gender"], small_dblp.timeline.labels[:4], False)

    def test_multiple_static_attributes(self, small_movielens):
        self._agree(
            small_movielens,
            ["gender", "age"],
            small_movielens.timeline.labels[:2],
            True,
        )


class TestAggregateValidation:
    def test_empty_attributes_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate(paper_graph, [])

    def test_duplicate_attributes_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            aggregate(paper_graph, ["gender", "gender"])

    def test_unknown_attribute_rejected(self, paper_graph):
        with pytest.raises(KeyError):
            aggregate(paper_graph, ["height"])

    def test_unknown_time_rejected(self, paper_graph):
        with pytest.raises(KeyError):
            aggregate(paper_graph, ["gender"], times=["t9"])

    def test_default_times_whole_timeline(self, paper_graph):
        agg = aggregate(paper_graph, ["gender"], distinct=True)
        assert agg.node_weight(("m",)) == 2
        assert agg.node_weight(("f",)) == 3

    def test_attribute_order_defines_tuple_order(self, paper_graph):
        a = aggregate(paper_graph, ["gender", "publications"], times=["t0"])
        b = aggregate(paper_graph, ["publications", "gender"], times=["t0"])
        assert a.node_weight(("f", 1)) == b.node_weight((1, "f"))


class TestAggregateGraphValueObject:
    @pytest.fixture()
    def agg(self, paper_graph):
        return aggregate(paper_graph, ["gender", "publications"], times=["t0"])

    def test_counts(self, agg):
        assert agg.n_aggregate_nodes == 3
        assert agg.total_node_weight() == 4  # 4 nodes at t0

    def test_missing_keys_are_zero(self, agg):
        assert agg.node_weight(("x", 99)) == 0
        assert agg.edge_weight(("x",), ("y",)) == 0

    def test_to_tables_sorted(self, agg):
        nodes, edges = agg.to_tables()
        weights = [row[-1] for row in nodes.rows]
        assert weights == sorted(weights, reverse=True)
        assert edges.columns == ("source", "target", "weight")

    def test_repr(self, agg):
        assert "DIST" in repr(agg)
        assert "ALL" in repr(
            AggregateGraph(("g",), {}, {}, distinct=False)
        )


class TestRollup:
    def test_rollup_node_weights(self, paper_graph):
        full = aggregate(paper_graph, ["gender", "publications"], times=["t0"])
        rolled = full.rollup(["gender"])
        direct = aggregate(paper_graph, ["gender"], times=["t0"])
        assert dict(rolled.node_weights) == dict(direct.node_weights)

    def test_rollup_edge_weights(self, paper_graph):
        full = aggregate(paper_graph, ["gender", "publications"], times=["t0"])
        rolled = full.rollup(["gender"])
        direct = aggregate(paper_graph, ["gender"], times=["t0"])
        assert dict(rolled.edge_weights) == dict(direct.edge_weights)

    def test_rollup_reorders(self, paper_graph):
        full = aggregate(paper_graph, ["gender", "publications"], times=["t0"])
        rolled = full.rollup(["publications", "gender"])
        assert rolled.attributes == ("publications", "gender")
        assert rolled.node_weight((1, "f")) == 2

    def test_rollup_unknown_attribute(self, paper_graph):
        full = aggregate(paper_graph, ["gender"], times=["t0"])
        with pytest.raises(KeyError):
            full.rollup(["height"])

    def test_rollup_identity(self, paper_graph):
        full = aggregate(paper_graph, ["gender"], times=["t0"])
        assert dict(full.rollup(["gender"]).node_weights) == dict(full.node_weights)


class TestCombine:
    def test_t_distributive_sum(self, paper_graph):
        a = aggregate(paper_graph, ["gender"], distinct=False, times=["t0"])
        b = aggregate(paper_graph, ["gender"], distinct=False, times=["t1"])
        combined = a + b
        direct = aggregate(
            union(paper_graph, ["t0", "t1"]), ["gender"], distinct=False
        )
        assert dict(combined.node_weights) == dict(direct.node_weights)
        assert dict(combined.edge_weights) == dict(direct.edge_weights)

    def test_distinct_rejected(self, paper_graph):
        a = aggregate(paper_graph, ["gender"], distinct=True, times=["t0"])
        b = aggregate(paper_graph, ["gender"], distinct=True, times=["t1"])
        with pytest.raises(ValueError):
            a.combine(b)

    def test_attribute_mismatch_rejected(self, paper_graph):
        a = aggregate(paper_graph, ["gender"], distinct=False, times=["t0"])
        b = aggregate(
            paper_graph, ["publications"], distinct=False, times=["t0"]
        )
        with pytest.raises(ValueError):
            a.combine(b)

    def test_combine_keeps_all_mode(self, paper_graph):
        a = aggregate(paper_graph, ["gender"], distinct=False, times=["t0"])
        b = aggregate(paper_graph, ["gender"], distinct=False, times=["t1"])
        assert (a + b).distinct is False
