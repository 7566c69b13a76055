"""The concurrent query server.

:class:`QueryServer` turns a graph — or a live
:class:`~repro.streaming.StreamingStore` — into a thread-safe query
endpoint.  Every request reads one immutable state snapshot (a pinned
:class:`~repro.streaming.GraphVersion` plus the cube bound to it), so a
request that started on version *n* finishes on version *n* even while
appends publish newer versions concurrently.  Results flow through a
bounded version-keyed LRU (:class:`~repro.serving.cache.ResultCache`):
an entry's key includes the version id, so appends can never make a
cached result wrong — the append hook merely evicts entries for
superseded versions.

The serving pipeline per request::

    text --parse LRU--> AST --normalize--> NormalizedQuery
         --result cache?--> hit: permute + return
         --plan (cube routes / base)--> execute --cache--> permute

Everything is observable: ``serving.queries``, ``serving.route.*``,
``serving.rebinds`` counters and the ``serving.query`` trace span, plus
the ``serving.cache.*`` family from the result cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..core import TemporalGraph
from ..core.granularity import TimeHierarchy
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span
from ..olap.cube import TemporalGraphCube
from ..query.ast import QueryExpr
from ..query.parser import parse
from ..streaming import GraphVersion, StreamingStore
from ..errors import ConfigurationError
from .cache import ResultCache
from .normalize import NormalizedQuery, normalize_query
from .planner import Plan, execute_plan, permute_result, plan_query

__all__ = ["QueryServer", "Served"]

#: Route name reported for a result-cache hit (the cube's four route
#: names cover the miss paths).
ROUTE_CACHE = "cache"


@dataclass(frozen=True)
class Served:
    """One served query: the result plus where it came from.

    ``version`` is the graph version that produced ``result`` — the
    version to check against when auditing cache transparency.  ``route``
    is ``cache`` for a result-cache hit, otherwise the planner's route
    (``exact`` / ``rollup`` / ``time_sum`` / ``base``).
    """

    result: Any
    version: int
    route: str
    cached: bool


@dataclass(frozen=True)
class _State:
    """One immutable serving state: a pinned version and its cube."""

    version: int
    graph: TemporalGraph
    cube: TemporalGraphCube


class QueryServer:
    """Thread-safe query serving over pinned immutable graph versions.

    Parameters
    ----------
    source:
        A :class:`~repro.streaming.StreamingStore` (the server subscribes
        and follows appends), a :class:`~repro.streaming.GraphVersion`,
        or a bare :class:`~repro.core.TemporalGraph` (served as version
        0; advance explicitly with :meth:`rebind`).
    cube:
        Adopt an existing cube for the initial state (it must already be
        bound to the source's current graph) — the seam
        :class:`~repro.session.GraphTempoSession` uses to share its warm
        cube with the server.  Later rebinds build fresh cubes.
    hierarchy:
        Time hierarchy for cubes the server builds itself.
    cache_capacity:
        Result-cache entries to keep, and parsed statements: the parse
        LRU holds as many texts as the result cache holds answers, so
        every cached answer is reached without parsing again (0 disables
        both caches).

    Requests never block appends and appends never block requests: the
    state swap is one attribute assignment under a small lock, and every
    request works off the state snapshot it read first.
    """

    def __init__(
        self,
        source: StreamingStore | GraphVersion | TemporalGraph,
        cube: TemporalGraphCube | None = None,
        hierarchy: TimeHierarchy | None = None,
        cache_capacity: int = 512,
    ) -> None:
        self.hierarchy = hierarchy
        self.cache = ResultCache(cache_capacity)
        self._lock = threading.Lock()
        self._parsed: OrderedDict[str, QueryExpr] = OrderedDict()
        self._unsubscribe: Callable[[], None] | None = None
        self._state: _State
        if isinstance(source, StreamingStore):
            current, self._unsubscribe = source.subscribe(self._on_append)
            self._state = self._make_state(current, cube)
        elif isinstance(source, GraphVersion):
            self._state = self._make_state(source, cube)
        else:
            self._state = self._make_state(GraphVersion(0, source), cube)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------

    def _make_state(
        self, version: GraphVersion, cube: TemporalGraphCube | None
    ) -> _State:
        if cube is not None and cube.graph is not version.graph:
            raise ConfigurationError(
                "adopted cube is bound to a different graph than the "
                "serving version"
            )
        if cube is None:
            cube = TemporalGraphCube(version.graph, hierarchy=self.hierarchy)
        return _State(version.version, version.graph, cube)

    def _on_append(self, version: GraphVersion) -> None:
        self.rebind(version)

    def rebind(
        self,
        source: GraphVersion | TemporalGraph,
        cube: TemporalGraphCube | None = None,
    ) -> int:
        """Adopt a new graph version; in-flight requests finish on the
        version they started with.  Entries cached for superseded
        versions are evicted; the new version id is returned.

        A bare graph is assigned the next version id — the path a
        non-streaming caller uses to advance the server by hand.
        """
        with self._lock:
            if isinstance(source, GraphVersion):
                version = source
            else:
                version = GraphVersion(self._state.version + 1, source)
            self._state = self._make_state(version, cube)
        self.cache.invalidate_before(version.version)
        get_metrics().inc("serving.rebinds")
        return version.version

    def close(self) -> None:
        """Stop following the streaming store (idempotent)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def version(self) -> int:
        """The version id new requests will be served from."""
        return self._state.version

    @property
    def graph(self) -> TemporalGraph:
        """The graph new requests will be served from."""
        return self._state.graph

    @property
    def cube(self) -> TemporalGraphCube:
        """The cube bound to the current serving state."""
        return self._state.cube

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _parse(self, text: str) -> QueryExpr:
        capacity = self.cache.capacity
        if capacity:
            with self._lock:
                expr = self._parsed.get(text)
                if expr is not None:
                    self._parsed.move_to_end(text)
                    return expr
        get_metrics().inc("serving.parse.misses")
        expr = parse(text)
        if not capacity:
            return expr
        with self._lock:
            expr = self._parsed.setdefault(text, expr)
            while len(self._parsed) > capacity:
                self._parsed.popitem(last=False)
        return expr

    def serve_expr(self, expr: QueryExpr) -> Served:
        """Serve one parsed query expression (see :meth:`serve`)."""
        state = self._state  # one snapshot; the request stays on it
        metrics = get_metrics()
        with trace_span("serving.query", version=state.version):
            normalized = normalize_query(state.graph, expr)
            key = (state.version, normalized.cache_key)
            hit = self.cache.get(key)
            if hit is not None:
                metrics.inc("serving.queries")
                metrics.inc(f"serving.route.{ROUTE_CACHE}")
                return Served(
                    permute_result(hit, normalized),
                    state.version,
                    ROUTE_CACHE,
                    True,
                )
            plan = plan_query(state.graph, state.cube, normalized)
            result = execute_plan(state.graph, state.cube, plan)
            result = self.cache.put(key, result)
            metrics.inc("serving.queries")
            metrics.inc(f"serving.route.{plan.route}")
            return Served(
                permute_result(result, normalized),
                state.version,
                plan.route,
                False,
            )

    def serve(self, text: str) -> Served:
        """Serve one query string: parse (cached), normalize, check the
        result cache, otherwise plan and execute the cheapest route."""
        return self.serve_expr(self._parse(text))

    def query(self, text: str) -> Any:
        """The result alone — a drop-in for
        :func:`repro.query.run_query` over the current version."""
        return self.serve(text).result

    def explain(self, text: str) -> str:
        """The plan for a query, without executing it.

        Reports the route a *miss* would take; whether the result cache
        holds the key is reported separately so explaining never
        perturbs hit/miss counters.
        """
        state = self._state
        normalized = normalize_query(state.graph, self._parse(text))
        plan: Plan = plan_query(state.graph, state.cube, normalized)
        key = (state.version, normalized.cache_key)
        status = "hit" if key in self.cache.keys() else "miss"
        return (
            f"version {state.version}; result cache {status}; "
            f"{plan.describe()}"
        )

    def _normalize(self, text: str) -> NormalizedQuery:
        """Normalization against the current state (tests/debugging)."""
        return normalize_query(self._state.graph, self._parse(text))
