"""Tests for the serving layer: normalizer, result cache, planner,
server, workload driver, and session integration."""

import pytest

from repro import GraphTempoSession
from repro.core import aggregate, union
from repro.core.operators import presence_signature
from repro.core.updates import SnapshotUpdate
from repro.errors import ConfigurationError, ValidationError
from repro.obs.metrics import get_metrics
from repro.query import run_query
from repro.query.evaluator import QueryBindingError, evaluate
from repro.query.parser import parse
from repro.serving import (
    QueryServer,
    ResultCache,
    mixed_queries,
    normalize_query,
    percentile,
    plan_query,
    run_workload,
)
from repro.streaming import StreamingStore


def _key(graph, text):
    return normalize_query(graph, parse(text)).cache_key


def _same_result(served, naive):
    if hasattr(served, "diff"):
        assert not served.diff(naive), served.diff(naive)
    else:
        assert presence_signature(served) == presence_signature(naive)


UPDATE = SnapshotUpdate(
    time="t3",
    nodes={
        "u1": {"publications": 3},
        "u2": {"publications": 1},
        "u6": {"publications": 2},
    },
    static={"u6": {"gender": "f"}},
    edges=[("u1", "u2"), ("u2", "u6")],
)


class TestNormalize:
    def test_union_window_order_folds(self, paper_graph):
        assert _key(
            paper_graph, "aggregate gender all over union [t1], [t0]"
        ) == _key(paper_graph, "aggregate gender all over union [t0], [t1]")

    def test_single_point_project_is_union(self, paper_graph):
        assert _key(paper_graph, "project [t1]") == _key(
            paper_graph, "union [t1]"
        )

    def test_multi_point_project_stays_project(self, paper_graph):
        assert _key(paper_graph, "project [t0..t1]") != _key(
            paper_graph, "union [t0..t1]"
        )

    def test_intersection_commutes(self, paper_graph):
        assert _key(paper_graph, "intersection [t1], [t0]") == _key(
            paper_graph, "intersection [t0], [t1]"
        )

    def test_difference_keeps_order(self, paper_graph):
        assert _key(paper_graph, "difference [t1], [t0]") != _key(
            paper_graph, "difference [t0], [t1]"
        )

    def test_attribute_order_canonicalized(self, paper_graph):
        forward = normalize_query(
            paper_graph,
            parse("aggregate gender, publications all over union [t0]"),
        )
        swapped = normalize_query(
            paper_graph,
            parse("aggregate publications, gender all over union [t0]"),
        )
        assert forward.cache_key == swapped.cache_key
        assert forward.output != swapped.output
        assert not forward.needs_permutation
        assert swapped.needs_permutation

    def test_span_and_list_windows_fold(self, paper_graph):
        assert _key(
            paper_graph, "aggregate gender all over union [t0..t1]"
        ) == _key(paper_graph, "aggregate gender all over union [t0], [t1]")

    def test_unknown_time_label_raises_binding_error(self, paper_graph):
        with pytest.raises(QueryBindingError):
            normalize_query(paper_graph, parse("union [t9]"))

    def test_unknown_attribute_kept_as_written(self, paper_graph):
        normalized = normalize_query(
            paper_graph, parse("aggregate height all over union [t0]")
        )
        assert normalized.attributes == ("height",)


class TestResultCache:
    def test_hit_and_miss(self):
        cache = ResultCache(capacity=4)
        assert cache.get((0, ("a",))) is None
        cache.put((0, ("a",)), "value")
        assert cache.get((0, ("a",))) == "value"

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put((0, ("a",)), 1)
        cache.put((0, ("b",)), 2)
        cache.get((0, ("a",)))  # refresh a; b becomes LRU
        cache.put((0, ("c",)), 3)
        assert cache.get((0, ("b",))) is None
        assert cache.get((0, ("a",))) == 1
        assert cache.get((0, ("c",))) == 3

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put((0, ("a",)), 1)
        assert cache.get((0, ("a",))) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache(capacity=-1)

    def test_first_put_wins(self):
        cache = ResultCache(capacity=4)
        first = cache.put((0, ("a",)), "first")
        second = cache.put((0, ("a",)), "second")
        assert first == "first"
        assert second == "first"

    def test_invalidate_before_drops_older_versions(self):
        cache = ResultCache(capacity=8)
        cache.put((0, ("a",)), 1)
        cache.put((1, ("a",)), 2)
        cache.put((2, ("a",)), 3)
        assert cache.invalidate_before(2) == 2
        assert cache.get((0, ("a",))) is None
        assert cache.get((1, ("a",))) is None
        assert cache.get((2, ("a",))) == 3

    def test_clear(self):
        cache = ResultCache(capacity=8)
        cache.put((0, ("a",)), 1)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestPlanner:
    @pytest.fixture()
    def server(self, paper_graph):
        return QueryServer(paper_graph)

    def _plan(self, server, text):
        normalized = normalize_query(server.graph, parse(text))
        return plan_query(server.graph, server.cube, normalized)

    def test_cold_aggregate_plans_base(self, server):
        plan = self._plan(server, "aggregate gender all over union [t0]")
        assert plan.route == "base"
        assert plan.cube_route is not None

    def test_warm_aggregate_plans_exact(self, server):
        server.serve("aggregate gender all over union [t0]")
        plan = self._plan(server, "aggregate gender all over union [t0]")
        assert plan.route == "exact"
        assert plan.cost == 0.0

    def test_superset_enables_rollup(self, server):
        server.cube.materialize(["gender", "publications"], times=["t0"])
        plan = self._plan(server, "aggregate gender all over union [t0]")
        assert plan.route == "rollup"
        assert plan.cube_route.source == ("gender", "publications")

    def test_per_point_enables_time_sum(self, server):
        server.cube.materialize(["gender"], per_time_point=True)
        plan = self._plan(server, "aggregate gender all over union [t0..t2]")
        assert plan.route == "time_sum"

    def test_multi_point_project_plans_base(self, server):
        plan = self._plan(server, "aggregate gender all over project [t0..t2]")
        assert plan.route == "base"
        assert plan.cube_route is None

    def test_evolution_and_operator_plan_base(self, server):
        assert self._plan(server, "evolution [t0] -> [t1] by gender").route == "base"
        assert self._plan(server, "union [t0], [t1]").route == "base"

    def test_describe_mentions_route(self, server):
        plan = self._plan(server, "aggregate gender all over union [t0]")
        assert "base" in plan.describe()


class TestServer:
    def test_mixed_parity_cold_and_cached(self, paper_graph):
        server = QueryServer(paper_graph)
        for text in mixed_queries(paper_graph, ["gender", "publications"]):
            naive = run_query(paper_graph, text)
            _same_result(server.serve(text).result, naive)
            again = server.serve(text)
            assert again.route == "cache"
            assert again.cached
            _same_result(again.result, naive)

    def test_permuted_attributes_share_entry_bit_exactly(self, paper_graph):
        server = QueryServer(paper_graph)
        server.serve("aggregate gender, publications all over union [t0..t1]")
        swapped = server.serve(
            "aggregate publications, gender all over union [t0..t1]"
        )
        assert swapped.route == "cache"  # same canonical entry
        naive = run_query(
            paper_graph, "aggregate publications, gender all over union [t0..t1]"
        )
        _same_result(swapped.result, naive)
        assert swapped.result.attributes == ("publications", "gender")

    def test_permuted_evolution_bit_exact(self, paper_graph):
        server = QueryServer(paper_graph)
        server.serve("evolution [t0] -> [t1] by gender, publications")
        swapped = server.serve(
            "evolution [t0] -> [t1] by publications, gender"
        )
        assert swapped.route == "cache"
        naive = run_query(
            paper_graph, "evolution [t0] -> [t1] by publications, gender"
        )
        _same_result(swapped.result, naive)

    def test_commuted_windows_share_entry(self, paper_graph):
        server = QueryServer(paper_graph)
        server.serve("aggregate gender all over union [t0], [t1]")
        assert (
            server.serve("aggregate gender all over union [t1], [t0]").route
            == "cache"
        )
        assert len(server.cache) == 1

    def test_follows_streaming_store(self, paper_graph):
        store = StreamingStore(paper_graph)
        with QueryServer(store) as server:
            text = "aggregate gender all over union [t0..t2]"
            before = server.serve(text)
            assert before.version == 0
            store.append_snapshot(UPDATE)
            assert server.version == 1
            after = server.serve("aggregate gender all over union [t0..t3]")
            assert after.version == 1
            naive = run_query(
                store.graph, "aggregate gender all over union [t0..t3]"
            )
            _same_result(after.result, naive)

    def test_append_evicts_superseded_entries(self, paper_graph):
        store = StreamingStore(paper_graph)
        with QueryServer(store) as server:
            server.serve("aggregate gender all over union [t0]")
            assert len(server.cache) == 1
            store.append_snapshot(UPDATE)
            assert len(server.cache) == 0

    def test_close_stops_following(self, paper_graph):
        store = StreamingStore(paper_graph)
        server = QueryServer(store)
        server.close()
        server.close()  # idempotent
        store.append_snapshot(UPDATE)
        assert server.version == 0

    def test_rebind_bare_graph_bumps_version(self, paper_graph):
        server = QueryServer(paper_graph)
        assert server.version == 0
        new_version = server.rebind(paper_graph)
        assert new_version == 1
        assert server.version == 1

    def test_adopted_cube_must_match_graph(self, paper_graph, tiny_graph):
        from repro.olap import TemporalGraphCube

        with pytest.raises(ConfigurationError):
            QueryServer(paper_graph, cube=TemporalGraphCube(tiny_graph))

    def test_explain_does_not_execute_or_cache(self, paper_graph):
        server = QueryServer(paper_graph)
        text = "aggregate gender all over union [t0]"
        explanation = server.explain(text)
        assert "miss" in explanation and "base" in explanation
        assert len(server.cache) == 0
        server.serve(text)
        assert "hit" in server.explain(text)

    def test_serving_metrics_counted(self, paper_graph):
        metrics = get_metrics()
        before = dict(metrics.snapshot()["counters"])
        server = QueryServer(paper_graph)
        text = "aggregate gender all over union [t0]"
        server.serve(text)
        server.serve(text)
        counters = metrics.snapshot()["counters"]

        def delta(name):
            return counters.get(name, 0) - before.get(name, 0)

        assert delta("serving.queries") == 2
        assert delta("serving.cache.misses") == 1
        assert delta("serving.cache.hits") == 1
        assert delta("serving.route.cache") == 1

    def test_parse_cache_holds_as_many_texts_as_the_result_cache(
        self, paper_graph, monkeypatch
    ):
        """300 distinct statements served twice by a default server: the
        second pass reaches every cached answer without parsing again."""
        import repro.serving.server as server_module

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(server_module, "parse", counting_parse)
        metrics = get_metrics()
        before = metrics.snapshot()["counters"].get("serving.parse.misses", 0)
        server = QueryServer(paper_graph)
        texts = [f"explore growth minimal extend new k {k} on edges" for k in range(1, 301)]
        for text in texts + texts:
            server.serve(text)
        assert len(parsed) == 300
        after = metrics.snapshot()["counters"].get("serving.parse.misses", 0)
        assert after - before == 300

    def test_zero_capacity_parses_every_request(self, paper_graph, monkeypatch):
        import repro.serving.server as server_module

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(server_module, "parse", counting_parse)
        server = QueryServer(paper_graph, cache_capacity=0)
        for _ in range(3):
            server.serve("aggregate gender all over union [t0]")
        assert len(parsed) == 3
        assert len(server.cache) == 0

    def test_query_returns_bare_result(self, paper_graph):
        server = QueryServer(paper_graph)
        result = server.query("aggregate gender all over union [t0]")
        naive = run_query(paper_graph, "aggregate gender all over union [t0]")
        _same_result(result, naive)


EXPLORE_STATEMENTS = (
    "explore growth minimal extend new k 1 on edges by gender key f -> f",
    "explore growth minimal extend new k 2 on edges by gender key m -> f",
    "explore stability maximal extend old k 1 on nodes by gender key f",
    "explore shrinkage minimal extend old k 1 on nodes by publications key 1",
    "explore growth maximal extend new k 1 on edges by gender, publications",
    "explore stability minimal extend new k 1 on nodes",
)

SECOND_UPDATE = SnapshotUpdate(
    time="t4",
    nodes={"u2": {"publications": 2}, "u6": {"publications": 1}},
    edges=[("u2", "u6")],
)


class TestServedExploration:
    """Explore statements reuse the cube's counter index."""

    def test_follows_store_across_appends(self, paper_graph):
        store = StreamingStore(paper_graph)
        with QueryServer(store) as server:
            for update in (None, UPDATE, SECOND_UPDATE):
                if update is not None:
                    store.append_snapshot(update)
                for text in EXPLORE_STATEMENTS:
                    served = server.serve(text)
                    naive = run_query(store.graph, text)
                    assert served.version == store.version
                    _same_result(served.result, naive)
                    assert served.result.evaluations == naive.evaluations

    def test_memo_holds_one_counter_per_entity_and_attributes(self, paper_graph):
        metrics = get_metrics()
        before = dict(metrics.snapshot()["counters"])
        server = QueryServer(paper_graph)
        for text in EXPLORE_STATEMENTS:
            server.serve(text)
        counters = metrics.snapshot()["counters"]

        def delta(name):
            return counters.get(name, 0) - before.get(name, 0)

        assert {(str(entity), names) for entity, names in server.cube._counters} == {
            ("edges", ("gender",)),
            ("nodes", ("gender",)),
            ("nodes", ("publications",)),
            ("edges", ("gender", "publications")),
            ("nodes", ()),
        }
        assert delta("olap.counter_builds") == 5
        assert delta("olap.counter_hits") == 1
        server.cube.invalidate()
        assert not server.cube._counters

    def test_served_explores_call_planner_explore(self, paper_graph, monkeypatch):
        import repro.serving.planner as planner

        handed = []
        original = planner.explore

        def spy(*args, **kwargs):
            handed.append(kwargs["counter"])
            return original(*args, **kwargs)

        monkeypatch.setattr(planner, "explore", spy)
        server = QueryServer(paper_graph)
        for text in EXPLORE_STATEMENTS:
            server.serve(text)
        assert len(handed) == len(EXPLORE_STATEMENTS)
        assert all(counter.graph is paper_graph for counter in handed)


class TestWorkload:
    def test_report_shape(self, paper_graph):
        server = QueryServer(paper_graph)
        report = run_workload(
            server.serve,
            mixed_queries(paper_graph, ["gender"]),
            requests=24,
            threads=3,
        )
        assert report.requests == 24
        assert report.threads == 3
        assert report.qps > 0
        assert report.p50_ms <= report.p99_ms
        assert "QPS" in report.describe()

    def test_empty_queries_rejected(self):
        with pytest.raises(ValidationError):
            run_workload(lambda text: text, [], requests=1)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            run_workload(lambda text: text, ["q"], requests=0)
        with pytest.raises(ConfigurationError):
            run_workload(lambda text: text, ["q"], requests=1, threads=0)

    def test_worker_error_propagates(self):
        def boom(text):
            raise ValidationError("no")

        with pytest.raises(ValidationError):
            run_workload(boom, ["q"], requests=4, threads=2)

    def test_threads_capped_by_requests(self):
        report = run_workload(lambda text: text, ["q"], requests=2, threads=8)
        assert report.threads == 2

    def test_percentile(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        with pytest.raises(ValidationError):
            percentile([], 50)

    def test_mixed_queries_need_attributes(self, paper_graph):
        with pytest.raises(ValidationError):
            mixed_queries(paper_graph, [])


class TestSessionServing:
    def test_query_parity_and_caching(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        text = "aggregate gender all over union [t0], [t1]"
        _same_result(session.query(text), run_query(paper_graph, text))
        assert session.serve(text).route == "cache"

    def test_materialized_cube_serves_queries(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        session.materialize(["gender"], per_time_point=True)
        served = session.serve("aggregate gender all over union [t0..t2]")
        assert served.route == "time_sum"
        direct = aggregate(
            union(paper_graph, ("t0", "t1", "t2")), ["gender"], distinct=False
        )
        _same_result(served.result, direct)

    def test_append_refreshes_serving(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        before = session.serve("aggregate gender all over union [t0..t2]")
        assert before.version == 0
        session.append(UPDATE)
        served = session.serve("aggregate gender all over union [t0..t3]")
        assert served.version == 1
        naive = run_query(
            session.graph, "aggregate gender all over union [t0..t3]"
        )
        _same_result(served.result, naive)
        # The refreshed server shares the refreshed session cube.
        assert session.serving.cube is session.cube

    def test_serve_expr_matches_evaluate(self, paper_graph):
        session = GraphTempoSession(paper_graph)
        expr = parse("difference [t2], [t0]")
        served = session.serving.serve_expr(expr)
        _same_result(served.result, evaluate(paper_graph, expr))
