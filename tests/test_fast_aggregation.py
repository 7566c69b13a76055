"""Tests for the aggregation kernel: equivalence with the faithful
Algorithm 2 transcription kept in :mod:`repro.testing.reference`."""

import pytest
from hypothesis import given, settings

from repro.core import aggregate, union
from repro.testing.reference import aggregate_reference
from tests.test_properties import graph_and_windows


def assert_same(a, b):
    assert dict(a.node_weights) == dict(b.node_weights)
    assert dict(a.edge_weights) == dict(b.edge_weights)
    assert a.attributes == b.attributes
    assert a.distinct == b.distinct


class TestEquivalence:
    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize(
        "attrs",
        [["gender"], ["publications"], ["gender", "publications"]],
        ids=lambda a: "+".join(a),
    )
    def test_paper_example_full_timeline(self, paper_graph, attrs, distinct):
        assert_same(
            aggregate(paper_graph, attrs, distinct=distinct),
            aggregate_reference(paper_graph, attrs, distinct=distinct),
        )

    @pytest.mark.parametrize("time", ["t0", "t1", "t2"])
    def test_paper_example_per_point(self, paper_graph, time):
        assert_same(
            aggregate(paper_graph, ["gender", "publications"], times=[time]),
            aggregate_reference(paper_graph, ["gender", "publications"], times=[time]),
        )

    @pytest.mark.parametrize("distinct", [True, False])
    def test_dblp_window(self, small_dblp, distinct):
        window = small_dblp.timeline.labels[:8]
        sub = union(small_dblp, window)
        for attrs in (["gender"], ["publications"], ["gender", "publications"]):
            assert_same(
                aggregate(sub, attrs, distinct=distinct),
                aggregate_reference(sub, attrs, distinct=distinct),
            )

    def test_movielens_all_attributes(self, small_movielens):
        attrs = ["gender", "age", "occupation", "rating"]
        assert_same(
            aggregate(small_movielens, attrs, distinct=True),
            aggregate_reference(small_movielens, attrs, distinct=True),
        )

    def test_empty_window_of_entities(self, paper_graph):
        sub = paper_graph.restricted([], [], ["t0"])
        for engine in (aggregate, aggregate_reference):
            result = engine(sub, ["gender"])
            assert result.node_weights == {}
            assert result.edge_weights == {}


ENGINES = (aggregate, aggregate_reference)


class TestValidation:
    """Kernel and reference reject the same inputs with the same errors."""

    def test_empty_attributes(self, paper_graph):
        for engine in ENGINES:
            with pytest.raises(ValueError):
                engine(paper_graph, [])

    def test_duplicate_attributes(self, paper_graph):
        for engine in ENGINES:
            with pytest.raises(ValueError):
                engine(paper_graph, ["gender", "gender"])

    def test_unknown_attribute(self, paper_graph):
        for engine in ENGINES:
            with pytest.raises(KeyError):
                engine(paper_graph, ["height"])

    def test_unknown_time(self, paper_graph):
        for engine in ENGINES:
            with pytest.raises(KeyError):
                engine(paper_graph, ["gender"], times=["t9"])


@settings(max_examples=60, deadline=None)
@given(graph_and_windows())
def test_fast_engine_property_equivalence(data):
    graph, t1, t2 = data
    sub = union(graph, t1, t2)
    for attrs in (["gender"], ["level"], ["gender", "level"]):
        for distinct in (True, False):
            assert_same(
                aggregate(sub, attrs, distinct=distinct),
                aggregate_reference(sub, attrs, distinct=distinct),
            )
