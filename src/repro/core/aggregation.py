"""Attribute aggregation of temporal graphs (Definition 2.6).

Aggregation groups nodes by the values of one or more attributes and
builds weighted aggregate nodes/edges with COUNT weights.  Two variants
exist (Section 2.2):

* **distinct** (``DIST``) — every appearance of an attribute tuple *on the
  same node* counts once (Algorithm 2's ``deduplicate`` steps);
* **non-distinct** (``ALL``) — every appearance at every time point
  counts.

:func:`aggregate` runs the factorized numpy kernel of
:mod:`repro.core.fast` for static and time-varying attributes alike.
The paper's literal Algorithm 2 (unpivot / merge / deduplicate /
group-count over relational tables) and its Section 4.2 static fast path
are kept as the differential oracle in :mod:`repro.testing.reference`;
the Figure 5-9 experiment drivers time that reference.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..frames import Table
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span
from ..parallel import Executor, InlineExecutor, get_executor, plan_chunks
from .fast import check_no_dangling_edges, count_edges, count_nodes, window_cells
from .graph import TemporalGraph
from .intervals import TimeSet
from .operators import ordered_times
from ..errors import AggregationError, UnknownLabelError

__all__ = [
    "AggregateGraph",
    "aggregate",
    "check_no_dangling_edges",
    "validated_window",
    "AttributeTuple",
    "EdgeKey",
]


#: One aggregate node: the tuple of attribute values that defines it.
AttributeTuple = tuple[Any, ...]
#: One aggregate edge: source tuple -> target tuple.
EdgeKey = tuple[AttributeTuple, AttributeTuple]


@dataclass(frozen=True)
class AggregateGraph:
    """A weighted aggregate graph ``G'(V', E', W_V', W_E', A')``.

    ``node_weights`` maps each distinct attribute tuple to its COUNT
    weight; ``edge_weights`` maps ``(source tuple, target tuple)`` pairs.
    ``distinct`` records which variant produced the weights, because only
    non-distinct aggregates may be summed across time (T-distributivity,
    Section 4.3).
    """

    attributes: tuple[str, ...]
    node_weights: Mapping[AttributeTuple, int]
    edge_weights: Mapping[EdgeKey, int]
    distinct: bool = True

    # ------------------------------------------------------------------
    # Reading weights
    # ------------------------------------------------------------------

    @property
    def n_aggregate_nodes(self) -> int:
        return len(self.node_weights)

    @property
    def n_aggregate_edges(self) -> int:
        return len(self.edge_weights)

    def node_weight(self, key: Sequence[Any]) -> int:
        """Weight of one aggregate node (0 when the tuple never occurs)."""
        return self.node_weights.get(tuple(key), 0)

    def edge_weight(self, source: Sequence[Any], target: Sequence[Any]) -> int:
        """Weight of one aggregate edge (0 when the pair never occurs)."""
        return self.edge_weights.get((tuple(source), tuple(target)), 0)

    def total_node_weight(self) -> int:
        return sum(self.node_weights.values())

    def total_edge_weight(self) -> int:
        return sum(self.edge_weights.values())

    # ------------------------------------------------------------------
    # Derivation without the base graph (Section 4.3)
    # ------------------------------------------------------------------

    def rollup(self, attributes: Sequence[str]) -> "AggregateGraph":
        """Aggregate on a subset of this graph's attributes.

        COUNT is D-distributive w.r.t. top-down aggregation: grouping this
        graph's entities by the projected tuples and summing weights gives
        the aggregate on the attribute subset without touching the
        original temporal graph.  ``attributes`` must be a subset of this
        aggregate's attributes (any order; output tuples follow the
        requested order).
        """
        positions = []
        for name in attributes:
            try:
                positions.append(self.attributes.index(name))
            except ValueError:
                raise UnknownLabelError(
                    f"attribute {name!r} is not part of this aggregate "
                    f"({self.attributes!r})"
                ) from None
        node_weights: dict[AttributeTuple, int] = {}
        for key, weight in self.node_weights.items():
            projected = tuple(key[p] for p in positions)
            node_weights[projected] = node_weights.get(projected, 0) + weight
        edge_weights: dict[EdgeKey, int] = {}
        for (source, target), weight in self.edge_weights.items():
            projected = (
                tuple(source[p] for p in positions),
                tuple(target[p] for p in positions),
            )
            edge_weights[projected] = edge_weights.get(projected, 0) + weight
        return AggregateGraph(
            tuple(attributes), node_weights, edge_weights, distinct=self.distinct
        )

    def combine(self, other: "AggregateGraph") -> "AggregateGraph":
        """Pointwise weight sum — the T-distributive roll-up of Section 4.3.

        Valid only for non-distinct aggregates over the same attributes:
        summing per-time-point ALL aggregates yields the ALL aggregate of
        the union of the time points.  Distinct aggregates are rejected
        because distinct nodes cannot be identified across summands.
        """
        if self.attributes != other.attributes:
            raise AggregationError(
                f"cannot combine aggregates on {self.attributes!r} and "
                f"{other.attributes!r}"
            )
        if self.distinct or other.distinct:
            raise AggregationError(
                "distinct aggregates are not T-distributive; "
                "recompute from the temporal graph instead"
            )
        node_weights = dict(self.node_weights)
        for key, weight in other.node_weights.items():
            node_weights[key] = node_weights.get(key, 0) + weight
        edge_weights = dict(self.edge_weights)
        for key, weight in other.edge_weights.items():
            edge_weights[key] = edge_weights.get(key, 0) + weight
        return AggregateGraph(self.attributes, node_weights, edge_weights, distinct=False)

    def __add__(self, other: "AggregateGraph") -> "AggregateGraph":
        return self.combine(other)

    # ------------------------------------------------------------------
    # Comparison (the differential oracle's unit of observation)
    # ------------------------------------------------------------------

    def diff(self, other: "AggregateGraph") -> tuple[str, ...]:
        """Human-readable differences from another aggregate.

        Empty when the two are identical in every observable way
        (attributes, variant, and every node/edge weight).  Weight maps
        are compared key by key, so a mismatch names the first divergent
        aggregate entity instead of just "not equal" — this is what the
        differential fuzz oracle reports when two engines disagree.
        """
        problems: list[str] = []
        if self.attributes != other.attributes:
            problems.append(
                f"attributes differ: {self.attributes!r} != {other.attributes!r}"
            )
        if self.distinct != other.distinct:
            problems.append(
                f"variant differs: distinct={self.distinct} != {other.distinct}"
            )
        for kind, ours, theirs in (
            ("node", self.node_weights, other.node_weights),
            ("edge", self.edge_weights, other.edge_weights),
        ):
            for key in sorted(set(ours) | set(theirs), key=repr):
                a, b = ours.get(key, 0), theirs.get(key, 0)
                if a != b:
                    problems.append(f"{kind} weight {key!r}: {a} != {b}")
        return tuple(problems)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def to_tables(self) -> tuple[Table, Table]:
        """``(nodes, edges)`` tables sorted by descending weight."""
        nodes = Table(tuple(self.attributes) + ("weight",))
        for key, weight in sorted(
            self.node_weights.items(), key=lambda item: (-item[1], str(item[0]))
        ):
            nodes.append(key + (weight,))
        edges = Table(("source", "target", "weight"))
        for (source, target), weight in sorted(
            self.edge_weights.items(), key=lambda item: (-item[1], str(item[0]))
        ):
            edges.append((source, target, weight))
        return nodes, edges

    def __repr__(self) -> str:
        mode = "DIST" if self.distinct else "ALL"
        return (
            f"AggregateGraph({mode} on {self.attributes!r}: "
            f"{self.n_aggregate_nodes} nodes, {self.n_aggregate_edges} edges)"
        )


def _split_attributes(
    graph: TemporalGraph, attributes: Sequence[str]
) -> tuple[list[str], list[str]]:
    """Partition into (static, varying), validating names."""
    static, varying = [], []
    for name in attributes:
        if graph.is_static(name):
            static.append(name)
        else:
            varying.append(name)
    return static, varying


def _node_tuple_table(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
) -> Table:
    """The long table of ``(node, t, attribute tuple)`` appearances.

    One row per (node, time point) where the node is present, carrying the
    node's attribute tuple at that time — the merged, unpivoted ``A'`` of
    Algorithm 2 (before any deduplication).  The reference engines, the
    measure aggregations and the streaming evolution view read it.
    """
    static_names, varying_names = _split_attributes(graph, attributes)
    time_positions = [graph.timeline.index_of(t) for t in times]
    static_positions = {
        name: graph.static_attrs.col_position(name) for name in static_names
    }
    rows_out: list[tuple[Any, ...]] = []
    presence = graph.node_presence.values
    varying_values = {
        name: graph.varying_attrs[name].values for name in varying_names
    }
    static_values = graph.static_attrs.values
    for row_idx, node in enumerate(graph.node_presence.row_labels):
        static_part = {
            name: static_values[row_idx, pos]
            for name, pos in static_positions.items()
        }
        for t, t_pos in zip(times, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            values = tuple(
                static_part[name]
                if name in static_part
                else varying_values[name][row_idx, t_pos]
                for name in attributes
            )
            rows_out.append((node, t, values))
    return Table(("id", "t", "tuple"), rows_out)


# ----------------------------------------------------------------------
# Parallel partial
#
# The kernel decomposes over *entity rows*: a node's (or edge's)
# contribution to the weight maps depends only on its own presence row
# and attribute values, and DIST deduplication is always intra-entity
# (``(row, tuple)`` keys).  Partitioning the row range therefore never
# splits a dedup group across chunks, and partial weight dicts merge by
# plain summation for DIST and ALL alike — which is what makes the
# parallel result bit-identical to the serial one.
# ----------------------------------------------------------------------

#: ``(graph, attributes, window positions, distinct)`` — the read-only
#: payload shared with every partial worker.
_PartialPayload = tuple[TemporalGraph, tuple[str, ...], tuple[int, ...], bool]
#: ``(kind, start, stop)`` — one slice of node or edge row indices.
_PartialTask = tuple[str, int, int]


def _partial_weights(
    payload: _PartialPayload, task: _PartialTask
) -> dict[Any, int]:
    """Chunk worker: the kernel's weights for one slice of entity rows.

    Module-level (and closed over nothing) so the process pool can pickle
    it; :class:`~repro.parallel.InlineExecutor` runs the very same
    function, which is what the parity suite leans on.  An edge slice
    factorizes every node row, since its endpoints may lie anywhere.
    """
    graph, attributes, positions, distinct = payload
    kind, start, stop = task
    if kind == "node":
        cells = window_cells(graph, attributes, positions, start, stop)
        return count_nodes(cells, distinct)
    cells = window_cells(graph, attributes, positions)
    return count_edges(graph, cells, positions, distinct, start, stop)


def _aggregate_parallel(
    payload: _PartialPayload, executor: Executor
) -> tuple[dict[AttributeTuple, int], dict[EdgeKey, int]]:
    """Fan the partial worker out over entity-row slices and merge."""
    graph = payload[0]
    tasks: list[_PartialTask] = [
        ("node", chunk.start, chunk.stop)
        for chunk in plan_chunks(graph.n_nodes, executor.workers)
    ]
    tasks += [
        ("edge", chunk.start, chunk.stop)
        for chunk in plan_chunks(graph.n_edges, executor.workers)
    ]
    partials = executor.map(_partial_weights, tasks, payload)
    node_weights: dict[AttributeTuple, int] = {}
    edge_weights: dict[EdgeKey, int] = {}
    for (kind, _, _), partial in zip(tasks, partials):
        target: dict[Any, int] = node_weights if kind == "node" else edge_weights
        for key, weight in partial.items():
            target[key] = target.get(key, 0) + weight
    return node_weights, edge_weights


def aggregate(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
    *,
    parallelism: int | str | None = None,
) -> AggregateGraph:
    """Aggregate a temporal graph on the given attributes (Definition 2.6).

    Parameters
    ----------
    graph:
        The temporal graph (typically the output of a temporal operator).
    attributes:
        Attribute names to group by, static and/or time-varying, in the
        order the output tuples should carry them.
    distinct:
        ``True`` for DIST semantics, ``False`` for ALL (Section 2.2).
    times:
        Time points to aggregate over; defaults to the graph's whole
        timeline (which, for operator outputs, is the operator's interval).
    parallelism:
        ``None`` (ambient default — see :mod:`repro.parallel`), a worker
        count, or ``"auto"``.  Implicit defaults only engage the pool
        when the graph is large enough to amortize startup; the result
        is bit-identical either way.

    Returns
    -------
    AggregateGraph
        COUNT-weighted aggregate nodes and edges.
    """
    window = validated_window(graph, attributes, times)
    _split_attributes(graph, attributes)  # validates names
    get_metrics().inc("aggregate.calls")
    executor = get_executor(
        parallelism, task_hint=(graph.n_nodes + graph.n_edges) * max(1, len(window))
    )
    with trace_span(
        "aggregate",
        engine="kernel",
        distinct=distinct,
        attributes=tuple(attributes),
        n_times=len(window),
        workers=executor.workers,
    ):
        positions = tuple(graph.timeline.index_of(t) for t in window)
        if isinstance(executor, InlineExecutor):
            cells = window_cells(graph, attributes, positions)
            edge_weights = count_edges(graph, cells, positions, distinct)
            node_weights = count_nodes(cells, distinct)
        else:
            # Validated parent-side, so a dangling edge raises the same
            # error whether or not a pool is in play.
            check_no_dangling_edges(graph, window)
            node_weights, edge_weights = _aggregate_parallel(
                (graph, tuple(attributes), positions, distinct), executor
            )
        return AggregateGraph(
            tuple(attributes), node_weights, edge_weights, distinct=distinct
        )


def validated_window(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: Iterable[Hashable] | None,
) -> TimeSet:
    """Shared argument validation for every aggregation engine.

    Checks the attribute list is non-empty and duplicate-free, and
    normalizes ``times`` to timeline order without duplicates: repeated
    or unordered time points must not change weights (ALL mode would
    otherwise double-count every repeated point).
    """
    if not attributes:
        raise AggregationError("aggregation needs at least one attribute")
    if len(set(attributes)) != len(attributes):
        raise AggregationError(f"duplicate aggregation attributes: {attributes!r}")
    if times is None:
        return graph.timeline.labels
    return ordered_times(graph, times)
