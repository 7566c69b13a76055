"""The aggregation/evolution kernel against its references.

Pins the rules the kernel shares with the Algorithm-2 reference:

* an aggregate raises if and only if a dangling edge is present in the
  aggregated window, so ``aggregate(G, A, times=W)`` equals
  ``aggregate(union(G, W), A)`` — including the error — and the served
  answer equals the naive one;
* a present node without a time-varying value counts as ``None``;
* the evolution kernel reproduces the appearance-set weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregate, aggregate_evolution, fast, union
from repro.datasets import paper_example
from repro.errors import AggregationError
from repro.query import run_query
from repro.serving import QueryServer
from repro.streaming import NodeEvent, StreamingStore
from repro.testing import (
    GraphSpec,
    assert_same_aggregate,
    graph_from_maps,
    graph_to_maps,
    random_temporal_graph,
    temporal_graphs,
)
from repro.testing.reference import (
    aggregate_evolution_reference,
    aggregate_reference,
)

ATTRIBUTE_SETS = (["gender"], ["level"], ["gender", "level"], ["level", "gender"])


@st.composite
def hostile_graph_and_window(draw):
    """A random graph plus up to two dangling edges, and a window."""
    maps = graph_to_maps(draw(temporal_graphs()))
    labels = maps["times"]
    for ghost in range(draw(st.integers(0, 2))):
        anchor = draw(st.sampled_from(sorted(maps["node_times"])))
        active = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        maps["edge_times"][(anchor, f"ghost{ghost}")] = active
    window = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    return graph_from_maps(**maps, allow_dangling=True), window


def _outcome(engine, *args, **kwargs):
    try:
        return engine(*args, **kwargs)
    except AggregationError:
        return AggregationError


@settings(max_examples=80, deadline=None)
@given(
    hostile_graph_and_window(),
    st.sampled_from(ATTRIBUTE_SETS),
    st.booleans(),
)
def test_in_place_aggregate_equals_union_aggregate(data, attributes, distinct):
    graph, window = data
    in_place = _outcome(aggregate, graph, attributes, distinct, times=window)
    on_union = _outcome(aggregate, union(graph, window), attributes, distinct)
    reference = _outcome(
        aggregate_reference, graph, attributes, distinct, times=window
    )
    if in_place is AggregationError:
        assert on_union is AggregationError and reference is AggregationError
        return
    assert_same_aggregate(in_place, on_union)
    assert_same_aggregate(in_place, reference)


@pytest.fixture()
def ghost_graph():
    """``u1``/``u2`` over two points; the edge ``(u1, ghost)`` dangles at
    ``t0`` only."""
    return graph_from_maps(
        ("t0", "t1"),
        {"u1": ("t0", "t1"), "u2": ("t0", "t1")},
        {("u1", "u2"): ("t1",), ("u1", "ghost"): ("t0",)},
        static={"u1": {"gender": "f"}, "u2": {"gender": "m"}},
        allow_dangling=True,
    )


class TestDanglingWindowRule:
    def test_served_equals_naive_outside_the_dangling_window(self, ghost_graph):
        query = "aggregate gender over union [t1]"
        naive = run_query(ghost_graph, query)
        assert dict(naive.node_weights) == {("f",): 1, ("m",): 1}
        with QueryServer(ghost_graph) as server:
            assert_same_aggregate(server.serve(query).result, naive)

    def test_dangling_edge_inside_the_window_raises(self, ghost_graph):
        for engine in (aggregate, aggregate_reference):
            with pytest.raises(AggregationError, match="ghost"):
                engine(ghost_graph, ["gender"], times=["t0"])
        with pytest.raises(AggregationError):
            run_query(ghost_graph, "aggregate gender over union [t0]")
        with QueryServer(ghost_graph) as server:
            with pytest.raises(AggregationError):
                server.serve("aggregate gender over union [t0]")


class TestMissingValues:
    def test_node_event_without_attrs_counts_as_none(self):
        store = StreamingStore(paper_example())
        store.update(
            [NodeEvent("t3", "u1"), NodeEvent("t3", "u9", static={"gender": "m"})]
        )
        graph = store.graph
        assert graph.attribute_value("u1", "publications", "t3") is None
        with QueryServer(store) as server:
            for distinct in ("distinct", "all"):
                served = server.serve(
                    f"aggregate gender, publications {distinct} over union [t2..t3]"
                ).result
                expected = aggregate_reference(
                    graph,
                    ["gender", "publications"],
                    distinct=distinct == "distinct",
                    times=["t2", "t3"],
                )
                assert_same_aggregate(served, expected)
                assert served.node_weight(("m", None)) == 2

    @pytest.mark.parametrize("distinct", [True, False])
    def test_generated_missing_values_match_reference(self, test_seed, distinct):
        spec = GraphSpec(n_times=5, n_nodes=8, missing_values=0.4)
        graph = random_temporal_graph(spec, seed=test_seed)
        values = graph.varying_attrs["level"].values
        present = graph.node_presence.values.astype(bool)
        assert any(v is None for v in values[present])
        for attributes in ATTRIBUTE_SETS:
            assert_same_aggregate(
                aggregate(graph, attributes, distinct=distinct),
                aggregate_reference(graph, attributes, distinct=distinct),
            )


class TestEvolutionKernel:
    def test_paper_example(self):
        graph = paper_example()
        for old, new in ((["t0"], ["t1"]), (["t0", "t1"], ["t2"]), (["t1"], ["t0"])):
            kernel = aggregate_evolution(graph, old, new, ["gender", "publications"])
            reference = aggregate_evolution_reference(
                graph, old, new, ["gender", "publications"]
            )
            assert kernel.diff(reference) == ()

    @settings(max_examples=60, deadline=None)
    @given(
        hostile_graph_and_window(),
        st.data(),
        st.sampled_from(ATTRIBUTE_SETS),
    )
    def test_matches_appearance_sets(self, data, draw, attributes):
        graph, old = data
        new = draw.draw(
            st.lists(st.sampled_from(graph.timeline.labels), min_size=1, unique=True)
        )
        kernel = aggregate_evolution(graph, old, new, attributes)
        reference = aggregate_evolution_reference(graph, old, new, attributes)
        assert kernel.diff(reference) == ()


def test_kernel_keys_keep_value_types(paper_graph):
    """Decoded keys are the stored values, not numpy scalars of codes."""
    result = aggregate(paper_graph, ["gender", "publications"])
    for key in result.node_weights:
        assert isinstance(key[0], str) and not isinstance(key[1], np.generic)


def test_wide_tuple_keys_are_redensified(monkeypatch, small_movielens):
    """Mixed-radix tuple keys are re-densified before they could overflow;
    a tiny limit forces that path on every attribute."""
    monkeypatch.setattr(fast, "_KEY_LIMIT", 4)
    attributes = ["gender", "age", "occupation", "rating"]
    for distinct in (True, False):
        assert_same_aggregate(
            aggregate(small_movielens, attributes, distinct=distinct),
            aggregate_reference(small_movielens, attributes, distinct=distinct),
        )
