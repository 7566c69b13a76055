"""A temporal graph cube: OLAP queries answered from partial
materialization.

Ties Section 4.3 together: the cube owns its cuboid cache, knows the
cuboid lattice over its attribute dimensions and the time hierarchy over
its timeline, and answers every cuboid query by the cheapest legal
route:

1. an exact cached hit;
2. a D-distributive roll-up from a cached superset cuboid
   (always legal for ALL; legal for DIST on a single time point);
3. a T-distributive sum of per-time-point cuboids (ALL + union
   semantics only);
4. computing from the base temporal graph (and caching the result).

Route selection is cost-based: :meth:`TemporalGraphCube.plan_routes`
enumerates every legal route with an estimated cost (group counts for
derivations, entity-rows x window size for base evaluation) and
:meth:`TemporalGraphCube.cuboid` executes the cheapest.  The serving
layer (:mod:`repro.serving`) plans through the same API, so the cube and
the query planner can never disagree about what a route costs.

``CubeStats`` records which route served each query, so the Figure
10/11 benchmarks and the view-selection policy can observe reuse.

Cache keys normalize windows to timeline order (a window has union
semantics, so ``(t2, t1)`` and ``(t1, t2)`` are the same query), and
deliberately materialized views are tracked separately from incidentally
cached query results.  A cube can :meth:`~TemporalGraphCube.bind_store`
itself to a :class:`~repro.streaming.StreamingStore` so appends drop its
cache instead of leaving it serving a superseded version.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core import AggregateGraph, TemporalGraph, aggregate
# Unused here, but ``benchmarks/e2e/spans.py`` wraps
# ``repro.olap.cube.union`` by name, so the name must stay importable.
from ..core import union  # noqa: F401
from ..core.granularity import TimeHierarchy
from ..exploration.events import EntityKind, EventCounter
from ..obs.metrics import get_metrics
from .lattice import Cuboid, canonical
from .operations import dice_aggregate, slice_aggregate
from ..errors import UnknownLabelError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..streaming import GraphVersion, StreamingStore

__all__ = ["TemporalGraphCube", "CubeStats", "CubeRoute"]

#: ``(cuboid, window, distinct)`` — the unit of cube caching.  Windows
#: are stored in timeline order, so caller order can never split the
#: cache (the union semantics of a window are order-insensitive).
CacheKey = tuple[Cuboid, tuple[Hashable, ...], bool]

#: Route kinds, in preference order for cost ties.
ROUTE_EXACT = "exact"
ROUTE_ROLLUP = "rollup"
ROUTE_TIME_SUM = "time_sum"
ROUTE_BASE = "base"

_ROUTE_RANK = {
    ROUTE_EXACT: 0,
    ROUTE_ROLLUP: 1,
    ROUTE_TIME_SUM: 2,
    ROUTE_BASE: 3,
}


@dataclass
class CubeStats:
    """Which route answered each cuboid query."""

    exact_hits: int = 0
    attribute_rollups: int = 0
    time_rollups: int = 0
    base_computations: int = 0

    @property
    def queries(self) -> int:
        return (
            self.exact_hits
            + self.attribute_rollups
            + self.time_rollups
            + self.base_computations
        )


@dataclass(frozen=True)
class CubeRoute:
    """One legal way to answer a cuboid query, with its estimated cost.

    ``cost`` is in abstract work units (aggregate groups touched for
    derivations, entity-rows scanned for base evaluation); only the
    relative order matters.  ``source`` names the cached superset cuboid
    for roll-up routes.
    """

    kind: str
    key: CacheKey
    cost: float
    source: Cuboid | None = None

    @property
    def rank(self) -> tuple[float, int]:
        """Sort key: cheapest first, stable preference on ties."""
        return (self.cost, _ROUTE_RANK[self.kind])

    def describe(self) -> str:
        cuboid, window, distinct = self.key
        mode = "DIST" if distinct else "ALL"
        text = f"{self.kind} {mode} {'/'.join(cuboid)} over {len(window)} point(s)"
        if self.source is not None:
            text += f" from {'/'.join(self.source)}"
        return text


class TemporalGraphCube:
    """OLAP cube over a temporal attributed graph.

    Parameters
    ----------
    graph:
        The base temporal graph.
    dimensions:
        The attribute dimensions (defaults to all of the graph's
        attributes).
    hierarchy:
        Optional time hierarchy; coarse unit labels then become valid
        ``times`` arguments alongside base labels.

    The cube is safe to share between threads: cache bookkeeping happens
    under an internal lock while aggregate computation runs outside it
    (concurrent misses may duplicate work, never corrupt state, and the
    results are deterministic so last-write-wins is harmless).
    """

    def __init__(
        self,
        graph: TemporalGraph,
        dimensions: Sequence[str] | None = None,
        hierarchy: TimeHierarchy | None = None,
    ) -> None:
        self.graph = graph
        self.dimensions = tuple(
            dimensions if dimensions is not None else graph.attribute_names
        )
        for dim in self.dimensions:
            graph.is_static(dim)  # validates the name
        self.hierarchy = hierarchy
        self.stats = CubeStats()
        self._lock = threading.RLock()
        self._cache: dict[CacheKey, AggregateGraph] = {}
        #: Keys the user deliberately materialized, as opposed to results
        #: the query routes cached incidentally — the distinction the
        #: view-selection policy and Figure 10/11 stats report on.
        self._materialized: set[CacheKey] = set()
        #: Keyless event counters per ``(entity, attributes)``: the
        #: presence matrix and tuple codes every key of the pair shares.
        self._counters: dict[tuple[EntityKind, tuple[str, ...]], EventCounter] = {}
        self._unbind: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Time resolution
    # ------------------------------------------------------------------

    def _resolve_times(
        self, times: Iterable[Hashable] | None
    ) -> tuple[Hashable, ...]:
        """Expand unit labels through the hierarchy and normalize to
        timeline order; default to the whole timeline.

        Normalization is what makes cache keys caller-order-insensitive:
        ``times=(t2, t1)`` and ``(t1, t2)`` describe the same
        union-semantics window and must map to the same key.
        """
        if times is None:
            return self.graph.timeline.labels
        resolved: set[Hashable] = set()
        for label in times:
            if label in self.graph.timeline:
                resolved.add(label)
            elif self.hierarchy is not None and label in self.hierarchy.unit_labels:
                resolved.update(
                    m
                    for m in self.hierarchy.members(label)
                    if m in self.graph.timeline
                )
            else:
                raise UnknownLabelError(f"unknown time point or unit: {label!r}")
        return tuple(t for t in self.graph.timeline.labels if t in resolved)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(
        self,
        attributes: Sequence[str],
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
        per_time_point: bool = False,
    ) -> None:
        """Precompute one cuboid (optionally one per base time point).

        Per-time-point materialization is the paper's recommended base
        (it feeds the T-distributive route); whole-window cuboids feed
        exact hits and attribute roll-ups.
        """
        cuboid = canonical(attributes, self.dimensions)
        window = self._resolve_times(times)
        keys = (
            [(cuboid, (t,), distinct) for t in window]
            if per_time_point
            else [(cuboid, window, distinct)]
        )
        for key in keys:
            self._compute_and_cache(key)
            with self._lock:
                self._materialized.add(key)

    def _compute_and_cache(self, key: CacheKey) -> AggregateGraph:
        cuboid, window, distinct = key
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        # In place over the window: equal to aggregating
        # ``union(graph, window)`` (the aggregate-union-in-place law),
        # without materializing the union graph.
        base = aggregate(self.graph, list(cuboid), distinct=distinct, times=window)
        with self._lock:
            return self._cache.setdefault(key, base)

    @property
    def materialized_count(self) -> int:
        """How many cuboids were deliberately materialized.

        Incidentally cached query results (route 4 and derivation
        outputs) are *not* counted — see :attr:`cached_count`.
        """
        with self._lock:
            return len(self._materialized)

    @property
    def cached_count(self) -> int:
        """Every cached cuboid: materialized views plus query results."""
        with self._lock:
            return len(self._cache)

    def event_counter(
        self, entity: EntityKind, attributes: Sequence[str], key: Any = None
    ) -> EventCounter:
        """An exploration counter for ``key`` over the cube's graph.

        Its key-independent index (presence matrix and tuple codes) is
        built once per ``(entity, attributes)`` and dies with the cache
        on :meth:`invalidate`.  Nothing that depends on an event, goal,
        extend side or threshold is kept.
        """
        memo = (entity, tuple(attributes))
        with self._lock:
            graph = self.graph
            counter = self._counters.get(memo)
        if counter is None:
            get_metrics().inc("olap.counter_builds")
            counter = EventCounter(graph, entity, attributes)
            with self._lock:
                if self.graph is graph:
                    counter = self._counters.setdefault(memo, counter)
        else:
            get_metrics().inc("olap.counter_hits")
        return counter.with_key(key)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, graph: TemporalGraph | None = None) -> None:
        """Drop every cached cuboid, optionally rebinding to a new graph.

        The materialized set is dropped too: a materialized view over a
        superseded graph is exactly the stale state invalidation exists
        to remove.  Re-materialize against the new graph if the warm set
        is still wanted.
        """
        with self._lock:
            if graph is not None:
                for dim in self.dimensions:
                    graph.is_static(dim)  # the new graph must keep the dims
                self.graph = graph
            self._cache.clear()
            self._materialized.clear()
            self._counters.clear()
        get_metrics().inc("olap.cube_invalidations")

    def bind_store(self, store: "StreamingStore") -> Callable[[], None]:
        """Follow a streaming store: every published version rebinds the
        cube and drops its cache, so appends can never serve stale
        cuboids.  Returns an unsubscribe callable (also idempotently
        invoked by a later :meth:`bind_store`).

        The subscription is atomic with respect to appends: the cube is
        rebound to the version current at registration, and every later
        publication reaches the hook.
        """

        def _on_append(version: "GraphVersion") -> None:
            self.invalidate(version.graph)

        with self._lock:
            if self._unbind is not None:
                self._unbind()
            current, unsubscribe = store.subscribe(_on_append)
            self._unbind = unsubscribe
        self.invalidate(current.graph)
        return unsubscribe

    # ------------------------------------------------------------------
    # Route planning
    # ------------------------------------------------------------------

    def plan_routes(
        self,
        attributes: Sequence[str],
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> list[CubeRoute]:
        """Every legal route for a cuboid query, cheapest first.

        Always non-empty (base evaluation is always legal).  The cost
        model: an exact hit is free, a derivation costs the aggregate
        groups it reads, base evaluation costs entity-rows times window
        size.  Ties break toward the more derived route.
        """
        cuboid = canonical(attributes, self.dimensions)
        window = self._resolve_times(times)
        key: CacheKey = (cuboid, window, distinct)
        routes: list[CubeRoute] = []
        with self._lock:
            cached = dict(self._cache)
        if key in cached:
            routes.append(CubeRoute(ROUTE_EXACT, key, 0.0))
        # D-distributive attribute roll-up from a cached superset over
        # the same window.  DIST roll-ups are only exact on one point.
        if not distinct or len(window) == 1:
            wanted = set(cuboid)
            for (c, w, d), agg in cached.items():
                if w == window and d == distinct and wanted < set(c):
                    routes.append(
                        CubeRoute(
                            ROUTE_ROLLUP,
                            key,
                            float(agg.n_aggregate_nodes + agg.n_aggregate_edges),
                            source=c,
                        )
                    )
        # T-distributive sum of per-point cuboids (ALL only).
        if not distinct and len(window) > 1:
            points = [(cuboid, (t,), False) for t in window]
            if all(p in cached for p in points):
                cost = float(
                    sum(
                        cached[p].n_aggregate_nodes + cached[p].n_aggregate_edges
                        for p in points
                    )
                )
                routes.append(CubeRoute(ROUTE_TIME_SUM, key, cost))
        base_cost = float(
            (self.graph.n_nodes + self.graph.n_edges) * max(len(window), 1)
        )
        routes.append(CubeRoute(ROUTE_BASE, key, base_cost))
        routes.sort(key=lambda r: r.rank)
        return routes

    def execute_route(self, route: CubeRoute) -> AggregateGraph:
        """Execute one planned route, caching the result and recording
        which route served the query in :attr:`stats`.

        If the key landed in the cache since planning (another thread, or
        an earlier step of the same request), the cached result is served
        as an exact hit instead of redoing the work.
        """
        key = route.key
        cuboid, window, distinct = key
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.stats.exact_hits += 1
                return cached
        if route.kind == ROUTE_ROLLUP and route.source is not None:
            source_key = (route.source, window, distinct)
            with self._lock:
                source = self._cache.get(source_key)
            if source is not None:
                result = source.rollup(cuboid)
                with self._lock:
                    result = self._cache.setdefault(key, result)
                    self.stats.attribute_rollups += 1
                return result
            # The superset vanished (invalidation race): fall through.
        if route.kind == ROUTE_TIME_SUM:
            points = [(cuboid, (t,), False) for t in window]
            with self._lock:
                parts = [self._cache.get(p) for p in points]
            if all(part is not None for part in parts):
                total: AggregateGraph | None = None
                for part in parts:
                    assert part is not None
                    total = part if total is None else total.combine(part)
                assert total is not None
                with self._lock:
                    total = self._cache.setdefault(key, total)
                    self.stats.time_rollups += 1
                return total
        # Base evaluation (also the fallback when a derivation's inputs
        # disappeared between planning and execution).
        result = self._compute_and_cache(key)
        with self._lock:
            self.stats.base_computations += 1
        return result

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def cuboid(
        self,
        attributes: Sequence[str],
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> AggregateGraph:
        """The aggregate graph for an attribute set over a time window.

        Served from the cheapest legal route (see module docs); the
        result is cached, so repeated queries are exact hits.
        """
        routes = self.plan_routes(attributes, times=times, distinct=distinct)
        return self.execute_route(routes[0])

    # ------------------------------------------------------------------
    # OLAP verbs
    # ------------------------------------------------------------------

    def rollup(
        self,
        attributes: Sequence[str],
        remove: str,
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> AggregateGraph:
        """One roll-up step: drop ``remove`` from the attribute set."""
        cuboid = canonical(attributes, self.dimensions)
        if remove not in cuboid:
            raise UnknownLabelError(f"{remove!r} is not part of {cuboid!r}")
        target = tuple(a for a in cuboid if a != remove)
        if not target:
            raise ValidationError("cannot roll up the last attribute away")
        return self.cuboid(target, times=times, distinct=distinct)

    def drill_down(
        self,
        attributes: Sequence[str],
        add: str,
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> AggregateGraph:
        """One drill-down step: add ``add`` to the attribute set."""
        cuboid = canonical(attributes, self.dimensions)
        if add in cuboid:
            raise UnknownLabelError(f"{add!r} is already part of {cuboid!r}")
        return self.cuboid(
            canonical(set(cuboid) | {add}, self.dimensions),
            times=times,
            distinct=distinct,
        )

    def slice(
        self,
        attributes: Sequence[str],
        attribute: str,
        value: Any,
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> AggregateGraph:
        """Slice: fix one attribute to a value and drop it."""
        base = self.cuboid(attributes, times=times, distinct=distinct)
        return slice_aggregate(base, attribute, value)

    def dice(
        self,
        attributes: Sequence[str],
        selections: dict[str, Iterable[Any]],
        times: Iterable[Hashable] | None = None,
        distinct: bool = False,
    ) -> AggregateGraph:
        """Dice: restrict attributes to value sets, keeping the layout."""
        base = self.cuboid(attributes, times=times, distinct=distinct)
        return dice_aggregate(base, selections)
