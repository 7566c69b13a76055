"""Unit and integration tests for the observability layer (repro.obs)."""

import ast
import json
import re
import sys
import threading
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro.core import aggregate, union
from repro.errors import ConfigurationError
from repro.materialize import MaterializedStore
from repro.obs import (
    MetricsRegistry,
    NullSpanHandle,
    Span,
    Tracer,
    TimingHistogram,
    get_metrics,
    get_tracer,
    observability_snapshot,
    render_metrics,
    render_span_tree,
    set_metrics,
    set_tracer,
    to_json,
    trace_span,
    trace_to_dict,
    traced,
)
from repro.session import GraphTempoSession
from repro.testing.reference import aggregate_reference


@pytest.fixture()
def fresh_obs():
    """Install a fresh enabled tracer + registry; restore afterwards."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry)
    yield tracer, registry
    set_tracer(previous_tracer)
    set_metrics(previous_metrics)


class TestTracer:
    def test_disabled_returns_shared_null_handle(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a")
        second = tracer.span("b", attr=1)
        assert isinstance(first, NullSpanHandle)
        assert first is second  # no allocation on the fast path

    def test_null_handle_is_a_context_manager(self):
        with Tracer(enabled=False).span("a") as span:
            assert span is None

    def test_nested_spans_build_a_tree(self, fresh_obs):
        tracer, _ = fresh_obs
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        root = tracer.last_root
        assert root is not None
        assert root.span_names() == ["root", "child", "grandchild", "sibling"]
        assert root.find("grandchild") is not None
        assert root.wall_s >= root.children[0].wall_s >= 0.0

    def test_attributes_recorded(self, fresh_obs):
        tracer, _ = fresh_obs
        with tracer.span("op", n_times=3, engine="fast"):
            pass
        assert tracer.last_root.attributes == {"n_times": 3, "engine": "fast"}

    def test_exception_marks_span_and_propagates(self, fresh_obs):
        tracer, _ = fresh_obs
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.last_root.attributes["error"] == "ValueError"

    def test_trace_span_uses_singleton(self, fresh_obs):
        tracer, _ = fresh_obs
        with trace_span("via-module"):
            pass
        assert tracer.last_root.name == "via-module"

    def test_traced_decorator(self, fresh_obs):
        tracer, _ = fresh_obs

        @traced()
        def work(x):
            return x + 1

        assert work(1) == 2
        assert tracer.last_root.name.endswith("work")

    def test_span_wall_time_feeds_metrics(self, fresh_obs):
        tracer, registry = fresh_obs
        with tracer.span("timed"):
            pass
        histogram = registry.timing("span.timed")
        assert histogram is not None and histogram.count == 1

    def test_reset_clears_state(self, fresh_obs):
        tracer, _ = fresh_obs
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.last_root is None

    def test_set_tracer_returns_previous(self):
        current = get_tracer()
        replacement = Tracer()
        assert set_tracer(replacement) is current
        assert set_tracer(current) is replacement


class TestMetrics:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1.5)
        registry.gauge("g", 2.5)
        assert registry.gauge_value("g") == 2.5
        assert registry.gauge_value("missing") == 0.0

    def test_timing_histogram_summary(self):
        histogram = TimingHistogram()
        for s in (0.001, 0.002, 0.003):
            histogram.observe(s)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(0.002)
        snap = histogram.snapshot()
        assert snap["min_s"] == 0.001 and snap["max_s"] == 0.003
        assert sum(snap["buckets"].values()) == 3

    def test_empty_histogram_snapshot(self):
        snap = TimingHistogram().snapshot()
        assert snap["count"] == 0 and snap["min_s"] == 0.0

    def test_snapshot_shape_and_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.gauge("g", 1.0)
        registry.observe("t", 0.5)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "timings"}
        assert snap["counters"] == {"c": 1}
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_set_metrics_returns_previous(self):
        current = get_metrics()
        replacement = MetricsRegistry()
        assert set_metrics(replacement) is current
        assert set_metrics(current) is replacement

    def test_concurrent_increments_are_never_lost(self):
        # A tiny switch interval makes threads preempt each other inside
        # an unlocked read-add-write, which then loses increments.
        registry = MetricsRegistry()

        def bump():
            for _ in range(20_000):
                registry.inc("hits")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert registry.counter("hits") == 160_000


class TestExport:
    def test_trace_to_dict_none_passthrough(self):
        assert trace_to_dict(None) is None

    def test_snapshot_round_trips_through_json(self, fresh_obs):
        tracer, registry = fresh_obs
        with tracer.span("root", label="x"):
            registry.inc("work")
        payload = observability_snapshot(tracer.last_root, registry)
        decoded = json.loads(to_json(payload))
        assert decoded["trace"]["name"] == "root"
        assert decoded["metrics"]["counters"]["work"] == 1

    def test_render_span_tree(self):
        root = Span("root", wall_s=0.01)
        root.children.append(Span("child", wall_s=0.004))
        text = render_span_tree(root)
        assert "root" in text and "  child" in text and "%" in text

    def test_render_span_tree_none(self):
        assert "no trace" in render_span_tree(None)

    def test_render_metrics(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.observe("t", 0.001)
        text = render_metrics(registry.snapshot())
        assert "c" in text and "n=1" in text

    def test_render_metrics_empty(self):
        assert render_metrics(MetricsRegistry().snapshot()) == "no metrics recorded"


class TestPipelineIntegration:
    def test_span_tree_covers_operator_aggregate_explore(
        self, paper_graph, fresh_obs
    ):
        tracer, registry = fresh_obs
        session = GraphTempoSession(paper_graph)
        with tracer.span("workload"):
            window = union(paper_graph, paper_graph.timeline.labels)
            aggregate(window, ["gender"], distinct=False)
            session.explore("growth", "minimal", "new")
        root = tracer.last_root
        names = root.span_names()
        assert "operator.union" in names
        assert "aggregate" in names
        assert "explore" in names
        # The session facade's span wraps the exploration span.
        session_span = root.find("session.explore")
        assert session_span is not None
        assert session_span.find("explore") is not None

    def test_session_stats_and_last_trace(self, paper_graph, fresh_obs):
        tracer, registry = fresh_obs
        session = GraphTempoSession(paper_graph)
        session.aggregate(["gender"])
        assert session.last_trace() is tracer.last_root
        assert session.last_trace().name == "session.aggregate"
        stats = session.stats()
        assert stats["counters"]["aggregate.calls"] >= 1

    def test_algorithm2_step_counters(self, paper_graph, fresh_obs):
        _, registry = fresh_obs
        # publications is time-varying, forcing the reference's general
        # Algorithm 2 path with its unpivot/dedup/group-count
        # instrumentation; the production kernel emits none of it.
        aggregate(paper_graph, ["publications"], distinct=True)
        assert registry.counter("algo2.unpivot_rows") == 0
        aggregate_reference(paper_graph, ["publications"], distinct=True)
        assert registry.counter("algo2.unpivot_rows") > 0
        assert registry.counter("algo2.dedup_rows") > 0
        assert registry.counter("algo2.group_count_groups") > 0
        assert registry.counter("algo2.merge_rows") > 0

    def test_frames_rows_scanned(self, paper_graph, fresh_obs):
        _, registry = fresh_obs
        aggregate_reference(paper_graph, ["publications"], distinct=True)
        assert registry.counter("frames.rows_scanned") > 0
        assert registry.counter("frames.table_ops") > 0

    def test_aggregate_span_names_the_engine(self, paper_graph, fresh_obs):
        tracer, _ = fresh_obs
        aggregate(paper_graph, ["publications"], distinct=True)
        assert tracer.last_root.attributes["engine"] == "kernel"
        assert tracer.last_root.children == []
        aggregate_reference(paper_graph, ["publications"], distinct=True)
        assert tracer.last_root.attributes["engine"] == "algo2"
        assert "aggregate.unpivot" in tracer.last_root.span_names()

    def test_exploration_counters(self, paper_graph, fresh_obs):
        _, registry = fresh_obs
        session = GraphTempoSession(paper_graph)
        session.explore("stability", "maximal", "new")
        assert registry.counter("exploration.runs") == 1
        assert registry.counter("exploration.chains") >= 1
        assert registry.counter("exploration.chain_steps") >= 1

    def test_store_stats_mirror_metrics(self, paper_graph, fresh_obs):
        _, registry = fresh_obs
        store = MaterializedStore(paper_graph)
        store.union_aggregate(["gender"], paper_graph.timeline.labels)
        store.union_aggregate(["gender"], paper_graph.timeline.labels)
        assert registry.counter("materialize.cache_hits") == store.stats.hits
        assert registry.counter("materialize.cache_misses") == store.stats.misses
        assert registry.counter("materialize.derivations") == store.stats.derived
        assert store.stats.hits > 0 and store.stats.misses > 0

    def test_disabled_tracer_still_counts(self, paper_graph):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            aggregate(paper_graph, ["gender"], distinct=False)
        finally:
            set_metrics(previous)
        # Counters are always on, even with the default disabled tracer.
        assert registry.counter("aggregate.calls") == 1


class TestProfileRunner:
    def test_run_profile_example(self):
        from repro.obs.profile import run_profile

        report = run_profile("example", "session")
        assert report.summary["aggregate_engines_agree"] is True
        assert report.trace is not None
        assert report.trace.name == "profile.session"
        names = report.trace.span_names()
        assert "operator.union" in names and "aggregate" in names
        assert "explore" in names
        assert report.metrics["counters"]["aggregate.calls"] >= 2
        payload = report.to_dict()
        json.loads(to_json(payload))  # serializable
        assert payload["dataset"] == "example"

    def test_run_profile_restores_singletons(self):
        from repro.obs.profile import run_profile

        tracer_before = get_tracer()
        metrics_before = get_metrics()
        run_profile("example", "aggregate")
        assert get_tracer() is tracer_before
        assert get_metrics() is metrics_before

    def test_unknown_workload_rejected(self):
        from repro.obs.profile import run_profile

        with pytest.raises(ConfigurationError):
            run_profile("example", "nope")

    def test_unknown_dataset_rejected(self):
        from repro.obs.profile import run_profile

        with pytest.raises(ConfigurationError):
            run_profile("nope", "aggregate")


# ----------------------------------------------------------------------
# The catalogue in docs/observability.md against the code
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Calls whose first argument names a counter (``inc``) or a span
#: (``trace_span``, ``Tracer.span``).
_EMITTERS = frozenset({"inc", "trace_span", "span"})


def _emitted_names():
    """Every literal counter/span name passed to an emitter in src/repro.

    An f-string keeps its literal parts and turns each interpolated value
    into ``*``: ``f"serving.route.{route}"`` becomes ``serving.route.*``
    and is matched as a glob.
    """
    names = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            callee = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if callee not in _EMITTERS:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
            elif isinstance(first, ast.JoinedStr):
                names.add(
                    "".join(
                        part.value if isinstance(part, ast.Constant) else "*"
                        for part in first.values
                    )
                )
    return names


def _documented_names():
    """The first-column names of the span and counter tables.

    ``a.b`` / ``c`` reads as ``a.b`` and ``a.c``; a later entry that has
    its own dot is a full name.  ``<placeholder>`` becomes ``*``.
    """
    names = set()
    in_catalogue = False
    text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.startswith("|"):
            in_catalogue = False
            continue
        first = line.split("|")[1].strip()
        if first in ("span", "name"):
            in_catalogue = True
            continue
        if not in_catalogue:
            continue
        prefix = None
        for token in re.findall(r"`([^`]+)`", first):
            if prefix is None or "." in token:
                name = token
                prefix = token.rpartition(".")[0]
            else:
                name = f"{prefix}.{token}"
            names.add(re.sub(r"<[^>]+>", "*", name))
    return names


def _covered(name, patterns):
    return any(
        fnmatchcase(name, pattern) or fnmatchcase(pattern, name)
        for pattern in patterns
    )


class TestCatalogue:
    def test_scan_finds_the_known_emitters(self):
        emitted = _emitted_names()
        assert {"exploration.runs", "serving.query", "aggregate"} <= emitted
        assert {"serving.route.*", "profile.*", "*.hits"} <= emitted
        documented = _documented_names()
        assert {"serving.route.cache", "explore.exhaustive", "profile.*"} <= documented

    def test_every_emitted_name_is_documented(self):
        documented = _documented_names()
        missing = sorted(
            name for name in _emitted_names() if not _covered(name, documented)
        )
        assert not missing, (
            f"emitted but missing from docs/observability.md: {missing}"
        )

    def test_every_documented_name_is_emitted(self):
        emitted = _emitted_names()
        stale = sorted(
            name for name in _documented_names() if not _covered(name, emitted)
        )
        assert not stale, (
            f"documented in docs/observability.md but never emitted: {stale}"
        )
