"""An interactive exploration session — the framework the paper's
conclusions announce ("we plan to develop GraphTempo into an interactive
exploration framework that will assist users navigate large graphs and
detect intervals and attribute groups of interest").

:class:`GraphTempoSession` is a stateful facade over the whole library:
it owns one temporal graph, a cube for cached aggregation, and exposes
the operators, evolution, exploration (single-group and group-sweep) and
reporting through one fluent object.  Window arguments accept base time
labels, ``(first, last)`` span pairs, and hierarchy unit labels.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from typing import Any

from .analysis import dataset_report, evolution_report, exploration_report
from .core import (
    AggregateGraph,
    EvolutionAggregate,
    TemporalGraph,
    TimeHierarchy,
    aggregate_evolution,
    difference,
    intersection,
    project,
    union,
)
from .core.granularity import coarsen
from .exploration import (
    EntityKind,
    EventCounter,
    EventType,
    ExplorationResult,
    ExtendSide,
    Goal,
    GroupExplorationResult,
    explore,
    explore_groups,
    suggest_threshold,
)
from .core.updates import SnapshotUpdate
from .obs.metrics import get_metrics
from .obs.trace import Span, get_tracer, trace_span
from .olap import TemporalGraphCube
from .serving import QueryServer, Served
from .streaming import GraphVersion, StreamEvent, StreamingStore
from .errors import UnknownLabelError, ValidationError

__all__ = ["GraphTempoSession"]

#: A window argument: labels, or an inclusive (first, last) span pair.
WindowLike = Iterable[Hashable] | tuple[Hashable, Hashable]


class GraphTempoSession:
    """One graph, one conversation.

    Parameters
    ----------
    graph:
        The temporal attributed graph to explore.
    hierarchy:
        Optional time hierarchy; its unit labels become usable wherever
        a window is expected, and :meth:`zoom_out` uses it.
    storage:
        Optional storage backend name (see :mod:`repro.storage` and
        ``docs/storage.md``); the session graph — and every version the
        streaming store publishes into it — is pinned to that backend.
        ``None`` inherits the graph's selection or the
        ``REPRO_STORAGE_BACKEND`` environment default.  Results are
        identical for every registered backend.

    Examples
    --------
    >>> from repro.datasets import paper_example
    >>> session = GraphTempoSession(paper_example())
    >>> agg = session.aggregate(["gender"], window=("t0", "t1"))
    >>> agg.node_weight(("f",))
    3
    """

    def __init__(
        self,
        graph: TemporalGraph,
        hierarchy: TimeHierarchy | None = None,
        storage: str | None = None,
    ) -> None:
        #: Storage backend name pinned for this session (``None``
        #: inherits the graph's own selection / the env default).  Every
        #: graph the session adopts — including versions published by
        #: the streaming store — is re-pinned to it.
        self.storage: str | None = storage
        if storage is not None:
            graph = graph.with_storage(storage)
        self.graph = graph
        self.hierarchy = hierarchy
        self.cube = TemporalGraphCube(graph, hierarchy=hierarchy)
        self._stream: StreamingStore | None = None
        self._server: QueryServer | None = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The process-wide metric snapshot (counters/gauges/timings).

        Counters are always on; the snapshot reflects everything this
        process did, not only this session's calls.  Reset with
        ``repro.obs.get_metrics().reset()``.
        """
        return get_metrics().snapshot()

    def last_trace(self) -> Span | None:
        """The most recent completed root span, if tracing is enabled.

        Enable with ``repro.obs.get_tracer().enabled = True`` (or
        install a fresh ``Tracer(enabled=True)`` via ``set_tracer``).
        """
        return get_tracer().last_root

    # ------------------------------------------------------------------
    # Window handling
    # ------------------------------------------------------------------

    def window(self, window: WindowLike | None) -> tuple[Hashable, ...]:
        """Resolve a window argument to base time labels.

        A 2-tuple whose elements are both timeline labels resolves as an
        inclusive span; otherwise the argument is an iterable of labels
        and/or hierarchy units; ``None`` is the whole timeline.
        """
        if window is None:
            return self.graph.timeline.labels
        if (
            isinstance(window, tuple)
            and len(window) == 2
            and window[0] in self.graph.timeline
            and window[1] in self.graph.timeline
        ):
            return self.graph.timeline.span(window[0], window[1])
        resolved: list[Hashable] = []
        for label in window:
            if label in self.graph.timeline:
                resolved.append(label)
            elif (
                self.hierarchy is not None
                and label in self.hierarchy.unit_labels
            ):
                resolved.extend(
                    m
                    for m in self.hierarchy.members(label)
                    if m in self.graph.timeline
                )
            else:
                raise UnknownLabelError(f"unknown time point or unit: {label!r}")
        return tuple(dict.fromkeys(resolved))

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------

    @property
    def stream(self) -> StreamingStore:
        """The session's streaming store, created on first use.

        The store's invalidation hook is what keeps the session honest:
        every published version replaces :attr:`graph` and rebuilds the
        aggregation cube, so cached cuboids can never serve a stale
        timeline (the cache-invalidation seam of ROADMAP item 3).
        Readers needing a stable graph while appends land should
        ``session.stream.pin()`` a version instead of holding
        :attr:`graph`.
        """
        if self._stream is None:
            store = StreamingStore(self.graph)
            store.on_append(self._refresh_from)
            self._stream = store
        return self._stream

    def _refresh_from(self, version: GraphVersion) -> None:
        """Invalidation hook: adopt a published version.

        Everything derived from the superseded graph is dropped and
        rebuilt here — the cube *and* the serving state (server cube +
        result-cache entries for older versions) — so neither the
        session nor its server can answer from a stale timeline.
        """
        if self.storage is not None:
            # The re-pinned graph shares the version's carried state.
            version = GraphVersion(
                version.version, version.graph.with_storage(self.storage)
            )
        self.graph = version.graph
        self.cube = TemporalGraphCube(self.graph, hierarchy=self.hierarchy)
        if self._server is not None:
            self._server.rebind(version, cube=self.cube)
        get_metrics().inc("streaming.session_refreshes")

    def append(self, update: SnapshotUpdate) -> "GraphTempoSession":
        """Append one snapshot to the session graph (chainable).

        Routed through the streaming store, so registered views stay
        current and the session cube is invalidated per append.
        """
        with trace_span("session.append", time=update.time):
            self.stream.append_snapshot(update)
        return self

    def ingest(self, events: Iterable[StreamEvent]) -> "GraphTempoSession":
        """Ingest a flat node/edge event stream (chainable).

        Events are batched into one snapshot per time point (first-seen
        order) and appended through the streaming store.
        """
        with trace_span("session.ingest"):
            self.stream.update(events)
        return self

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def project(self, window: WindowLike) -> TemporalGraph:
        """Time projection over a window (Definition 2.2)."""
        return project(self.graph, self.window(window))

    def union(self, first: WindowLike, second: WindowLike = ()) -> TemporalGraph:
        """Union graph over two windows (Definition 2.3)."""
        return union(self.graph, self.window(first), self.window(second) if second else ())

    def intersection(self, first: WindowLike, second: WindowLike) -> TemporalGraph:
        """Intersection graph over two windows (Definition 2.4)."""
        return intersection(self.graph, self.window(first), self.window(second))

    def difference(self, first: WindowLike, second: WindowLike) -> TemporalGraph:
        """Difference graph ``first - second`` (Definition 2.5)."""
        return difference(self.graph, self.window(first), self.window(second))

    # ------------------------------------------------------------------
    # Aggregation (cached via the cube)
    # ------------------------------------------------------------------

    def aggregate(
        self,
        attributes: Sequence[str],
        window: WindowLike | None = None,
        distinct: bool = True,
    ) -> AggregateGraph:
        """Aggregate over a window, served through the session cube."""
        with trace_span(
            "session.aggregate",
            attributes=tuple(attributes),
            distinct=distinct,
        ):
            return self.cube.cuboid(
                attributes, times=self.window(window), distinct=distinct
            )

    def materialize(
        self,
        attributes: Sequence[str],
        distinct: bool = False,
        per_time_point: bool = True,
    ) -> "GraphTempoSession":
        """Warm the cube (chainable)."""
        self.cube.materialize(
            attributes, distinct=distinct, per_time_point=per_time_point
        )
        return self

    # ------------------------------------------------------------------
    # Evolution and exploration
    # ------------------------------------------------------------------

    def evolution(
        self,
        old: WindowLike,
        new: WindowLike,
        attributes: Sequence[str],
    ) -> EvolutionAggregate:
        """Aggregated evolution between two windows (Definition 2.7)."""
        with trace_span(
            "session.evolution", attributes=tuple(attributes)
        ):
            return aggregate_evolution(
                self.graph, self.window(old), self.window(new), attributes
            )

    def explore(
        self,
        event: EventType | str,
        goal: Goal | str = Goal.MINIMAL,
        extend: ExtendSide | str = ExtendSide.NEW,
        k: int | None = None,
        entity: EntityKind | str = EntityKind.EDGES,
        attributes: Sequence[str] = (),
        key: Any = None,
    ) -> ExplorationResult:
        """One Table-1 exploration case; enum arguments accept strings.

        With ``k=None`` the threshold is initialized per Section 3.5
        (max of consecutive-pair counts for minimal goals' seeds, which
        guarantees a non-empty seed row, and likewise for maximal).
        """
        event = EventType(event) if isinstance(event, str) else event
        goal = Goal(goal) if isinstance(goal, str) else goal
        extend = ExtendSide(extend) if isinstance(extend, str) else extend
        entity = EntityKind(entity) if isinstance(entity, str) else entity
        with trace_span(
            "session.explore",
            event=str(event),
            goal=str(goal),
            extend=str(extend),
        ):
            graph = self.graph
            # The cube's counter shares one index per graph version; an
            # invalid k keeps explore's own error.
            counter = None
            if k is None or k >= 1:
                counter = self._counter(graph, entity, attributes, key)
            if k is None:
                k = suggest_threshold(
                    graph, event, mode="max",
                    entity=entity, attributes=attributes, key=key, counter=counter,
                )
            return explore(
                graph, event, goal, extend, k,
                entity=entity, attributes=attributes, key=key, counter=counter,
            )

    def explore_groups(
        self,
        event: EventType | str,
        goal: Goal | str,
        extend: ExtendSide | str,
        k: int,
        attributes: Sequence[str],
        entity: EntityKind | str = EntityKind.EDGES,
    ) -> GroupExplorationResult:
        """Group-sweep exploration (which groups are interesting?)."""
        event = EventType(event) if isinstance(event, str) else event
        goal = Goal(goal) if isinstance(goal, str) else goal
        extend = ExtendSide(extend) if isinstance(extend, str) else extend
        entity = EntityKind(entity) if isinstance(entity, str) else entity
        with trace_span(
            "session.explore_groups",
            event=str(event),
            attributes=tuple(attributes),
        ):
            graph = self.graph
            # Attributes explore_groups rejects keep its own error.
            counter = None
            if k >= 1 and attributes and all(map(graph.is_static, attributes)):
                counter = self._counter(graph, entity, attributes, None)
            return explore_groups(
                graph, event, goal, extend, k, attributes, entity=entity,
                counter=counter,
            )

    def _counter(
        self,
        graph: TemporalGraph,
        entity: EntityKind,
        attributes: Sequence[str],
        key: Any,
    ) -> EventCounter | None:
        """The cube's exploration counter for ``key``, while the cube is
        on ``graph``."""
        counter = self.cube.event_counter(entity, attributes, key)
        return counter if counter.graph is graph else None

    # ------------------------------------------------------------------
    # Zoom and reports
    # ------------------------------------------------------------------

    def zoom_out(self, semantics: str = "union") -> "GraphTempoSession":
        """A new session over the hierarchy-coarsened graph."""
        if self.hierarchy is None:
            raise ValidationError("zoom_out requires a session hierarchy")
        return GraphTempoSession(
            coarsen(self.graph, self.hierarchy, semantics),
            storage=self.storage,
        )

    # ------------------------------------------------------------------
    # Query serving
    # ------------------------------------------------------------------

    @property
    def serving(self) -> QueryServer:
        """The session's query server, created on first use.

        The server shares the session cube (so materialized cuboids
        serve queries) and is safe to hammer from many threads; appends
        through :meth:`append`/:meth:`ingest` rebind it to the published
        version and evict superseded cache entries, so served results
        are always bit-identical to evaluating against the current
        graph.
        """
        if self._server is None:
            self._server = QueryServer(
                self.graph, cube=self.cube, hierarchy=self.hierarchy
            )
        return self._server

    def serve(self, text: str) -> Served:
        """Serve one query with provenance (result, version, route)."""
        return self.serving.serve(text)

    def query(self, text: str) -> Any:
        """Run a query-language statement against the session graph.

        See :mod:`repro.query.parser` for the grammar.  Example:
        ``session.query("aggregate gender over union [t0], [t1]")``.
        Served through :attr:`serving`, so repeated queries hit the
        result cache; results are bit-identical to
        :func:`repro.query.run_query` on the session graph.
        """
        return self.serve(text).result

    def report(self) -> str:
        """The dataset size report for the session graph."""
        return dataset_report(self.graph, "session graph")

    def evolution_text(
        self,
        old: WindowLike,
        new: WindowLike,
        attributes: Sequence[str],
        min_publications: int | None = None,
    ) -> str:
        """A rendered Fig.-12-style evolution report."""
        return evolution_report(
            self.graph,
            self.window(old),
            self.window(new),
            attributes,
            min_publications=min_publications,
        ).text

    def exploration_text(
        self,
        event: EventType | str,
        goal: Goal | str,
        extend: ExtendSide | str,
        thresholds: Sequence[int],
        attributes: Sequence[str] = (),
        key: Any = None,
    ) -> str:
        """A rendered Fig.-13/14-style exploration report."""
        event = EventType(event) if isinstance(event, str) else event
        goal = Goal(goal) if isinstance(goal, str) else goal
        extend = ExtendSide(extend) if isinstance(extend, str) else extend
        return exploration_report(
            self.graph, event, goal, extend, thresholds,
            attributes=attributes, key=key,
        ).text
