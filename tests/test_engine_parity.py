"""Engine-parity suite: the aggregation kernel vs. the Algorithm-2
reference on hostile inputs.

The production kernel (``aggregate``) and the literal Algorithm 2
transcription (``aggregate_reference``) must agree everywhere —
including duplicate/unordered time windows (which once double-counted
in ALL mode), float attribute frames carrying NaN at absent cells, and
dangling edges (which once escaped as bare ``KeyError``).

A hypothesis property additionally pins the observability invariant:
running any pipeline under an enabled tracer produces bit-identical
results to running it disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    TemporalGraph,
    Timeline,
    aggregate,
)
from repro.errors import AggregationError
from repro.exploration import EventType, ExtendSide, Goal, explore
from repro.frames import LabeledFrame
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer
from repro.testing import assert_same_aggregate, temporal_graphs
from repro.testing.reference import aggregate_reference

ENGINES = [aggregate, aggregate_reference]


def _engine_id(engine):
    return engine.__name__


@pytest.fixture()
def float_attr_graph():
    """Three nodes over two times; ``score`` is a float frame with NaN
    exactly at absent appearances (the paper's "-" cells)."""
    times = ("t0", "t1")
    nodes = ("u1", "u2", "u3")
    node_presence = LabeledFrame(
        nodes, times, np.array([[1, 1], [1, 0], [0, 1]], dtype=np.uint8)
    )
    edge_presence = LabeledFrame(
        (("u1", "u2"), ("u1", "u3")),
        times,
        np.array([[1, 0], [0, 1]], dtype=np.uint8),
    )
    static = LabeledFrame(
        nodes, ("gender",), np.array([["f"], ["m"], ["f"]], dtype=object)
    )
    score = LabeledFrame(
        nodes,
        times,
        np.array([[1.0, 2.0], [1.0, np.nan], [np.nan, 2.0]], dtype=float),
    )
    return TemporalGraph(
        Timeline(times), node_presence, edge_presence, static, {"score": score}
    )


@pytest.fixture()
def dangling_graph():
    """An edge referencing a node absent from node presence (only
    constructible with ``validate=False`` — the CSV-loading path)."""
    times = ("t0", "t1")
    nodes = ("u1", "u2")
    node_presence = LabeledFrame(
        nodes, times, np.array([[1, 1], [1, 1]], dtype=np.uint8)
    )
    edge_presence = LabeledFrame(
        (("u1", "u2"), ("u1", "ghost")),
        times,
        np.array([[1, 1], [1, 0]], dtype=np.uint8),
    )
    static = LabeledFrame(
        nodes, ("gender",), np.array([["f"], ["m"]], dtype=object)
    )
    return TemporalGraph(
        Timeline(times),
        node_presence,
        edge_presence,
        static,
        {},
        validate=False,
    )


class TestDuplicateTimes:
    """Regression: a duplicated or unordered ``times`` argument must
    behave as the *set* of time points (pre-fix, ALL mode counted every
    repetition)."""

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    @pytest.mark.parametrize("distinct", [True, False])
    def test_duplicates_equal_dedup_window(self, paper_graph, engine, distinct):
        messy = engine(
            paper_graph,
            ["gender"],
            distinct=distinct,
            times=["t1", "t0", "t1", "t1"],
        )
        clean = engine(
            paper_graph, ["gender"], distinct=distinct, times=["t0", "t1"]
        )
        assert_same_aggregate(messy, clean)

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_unordered_window_is_normalized(self, paper_graph, engine):
        backwards = engine(
            paper_graph, ["publications"], distinct=False, times=["t2", "t0"]
        )
        forwards = engine(
            paper_graph, ["publications"], distinct=False, times=["t0", "t2"]
        )
        assert_same_aggregate(backwards, forwards)

    @pytest.mark.parametrize("distinct", [True, False])
    def test_engines_agree_on_duplicate_windows(self, paper_graph, distinct):
        times = ["t1", "t1", "t0"]
        assert_same_aggregate(
            aggregate(paper_graph, ["gender"], distinct=distinct, times=times),
            aggregate_reference(
                paper_graph, ["gender"], distinct=distinct, times=times
            ),
        )


class TestFloatAttributeParity:
    @pytest.mark.parametrize("distinct", [True, False])
    def test_engines_agree_with_nan_cells(self, float_attr_graph, distinct):
        assert_same_aggregate(
            aggregate(float_attr_graph, ["score"], distinct=distinct),
            aggregate_reference(float_attr_graph, ["score"], distinct=distinct),
        )

    @pytest.mark.parametrize("distinct", [True, False])
    def test_engines_agree_on_mixed_attrs(self, float_attr_graph, distinct):
        assert_same_aggregate(
            aggregate(float_attr_graph, ["gender", "score"], distinct=distinct),
            aggregate_reference(
                float_attr_graph, ["gender", "score"], distinct=distinct
            ),
        )

    def test_nan_weights_are_finite_counts(self, float_attr_graph):
        result = aggregate(float_attr_graph, ["score"], distinct=False)
        # Only present appearances carry tuples; NaN never becomes a key.
        assert all(
            not (isinstance(v, float) and np.isnan(v))
            for key in result.node_weights
            for v in key
        )
        assert result.total_node_weight() == 4  # 4 present appearances


class TestDanglingEdges:
    """Regression: both engines fail from the exception taxonomy,
    naming the offending edge, instead of a bare ``KeyError``."""

    @pytest.mark.parametrize("engine", ENGINES, ids=_engine_id)
    def test_dangling_edge_raises_aggregation_error(self, dangling_graph, engine):
        with pytest.raises(AggregationError) as excinfo:
            engine(dangling_graph, ["gender"], distinct=True)
        message = str(excinfo.value)
        assert "ghost" in message and "dangling" in message

    def test_diagnostics_reports_dangling_edge(self, dangling_graph):
        from repro.diagnostics import check_graph

        findings = check_graph(dangling_graph)
        assert any(f.code == "dangling-edge" for f in findings)


class TestTracingParity:
    """Observability must be read-only: enabling the tracer never
    changes any pipeline result."""

    @settings(max_examples=25, deadline=None)
    @given(graph=temporal_graphs())
    def test_tracing_never_changes_aggregates(self, graph):
        def run():
            return (
                aggregate(graph, ["gender"], distinct=True),
                aggregate(graph, ["gender", "level"], distinct=False),
                aggregate_reference(graph, ["gender"], distinct=False),
            )

        baseline = run()
        previous_tracer = set_tracer(Tracer(enabled=True))
        previous_metrics = set_metrics(MetricsRegistry())
        try:
            traced_results = run()
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
        for before, after in zip(baseline, traced_results):
            assert_same_aggregate(before, after)

    @settings(max_examples=10, deadline=None)
    @given(graph=temporal_graphs(min_times=3))
    def test_tracing_never_changes_exploration(self, graph):
        def run():
            result = explore(
                graph,
                EventType.GROWTH,
                Goal.MINIMAL,
                ExtendSide.NEW,
                k=1,
            )
            return (result.pairs, result.evaluations)

        baseline = run()
        previous_tracer = set_tracer(Tracer(enabled=True))
        previous_metrics = set_metrics(MetricsRegistry())
        try:
            traced_result = run()
        finally:
            set_tracer(previous_tracer)
            set_metrics(previous_metrics)
        assert baseline == traced_result
