"""The reference engines: the paper's literal algorithms, kept as oracles.

Production aggregation runs the factorized kernel of
:mod:`repro.core.fast`.  What it replaced stays here, transcribed
literally: the differential laws of :mod:`repro.testing.oracle` diff the
kernel against it, and the Figure 5-9 drivers (:mod:`repro.bench.experiments`)
time it.  Only these engines emit the ``aggregate.*`` step spans and the
``algo2.*`` counters.

The per-pair exploration walks that :class:`repro.exploration.ChainEvaluator`'s
packed walks replaced stay here too, re-reducing both side masks for
every pair, with production's ``evaluations`` and ``exploration.*`` counts.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import Any

from ..core import (
    AggregateGraph,
    EvolutionAggregate,
    Interval,
    TemporalGraph,
    aggregate,
)
from ..core.aggregation import (
    AttributeTuple,
    EdgeKey,
    _node_tuple_table,
    _split_attributes,
    check_no_dangling_edges,
    validated_window,
)
from ..core.evolution import (
    _appearance_sets,
    _weights_from_appearances,
    _evolution_windows,
)
from ..core.intervals import TimeSet
from ..errors import ExplorationError
from ..exploration.events import ChainStep, EntityKind, EventCounter, EventType
from ..exploration.explore import ExplorationResult, Goal
from ..exploration.pairs import PairTable
from ..exploration.lattice import ExtendSide, Semantics, Side
from ..frames import Table
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "aggregate_general",
    "aggregate_reference",
    "aggregate_evolution_reference",
    "aggregation_engines",
    "reference_chain",
    "reference_consecutive",
    "reference_longest",
    "explore_reference",
    "exhaustive_reference",
]


def _aggregate_general(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
    distinct: bool,
) -> AggregateGraph:
    """Algorithm 2: the general path used when a time-varying attribute
    participates (also correct, just slower, for static-only input)."""
    metrics = get_metrics()
    check_no_dangling_edges(graph, times)
    with trace_span("aggregate.unpivot"):
        node_table = _node_tuple_table(graph, attributes, times)
    metrics.inc("algo2.unpivot_rows", len(node_table))
    lookup: dict[tuple[Any, Any], AttributeTuple] = {
        (node, t): values for node, t, values in node_table.rows
    }
    if distinct:
        with trace_span("aggregate.dedup"):
            node_table = node_table.deduplicate(["id", "tuple"])
        metrics.inc("algo2.dedup_rows", len(node_table))
    with trace_span("aggregate.group_count"):
        node_weights = {
            key[0]: count
            for key, count in node_table.groupby_count(["tuple"]).items()
        }
    metrics.inc("algo2.group_count_groups", len(node_weights))

    with trace_span("aggregate.merge"):
        edge_rows: list[tuple[Any, ...]] = []
        edge_presence = graph.edge_presence.values
        time_positions = [graph.timeline.index_of(t) for t in times]
        for row_idx, edge in enumerate(graph.edge_presence.row_labels):
            u, v = edge  # type: ignore[misc]
            for t, t_pos in zip(times, time_positions):
                if not edge_presence[row_idx, t_pos]:
                    continue
                source = lookup.get((u, t))
                target = lookup.get((v, t))
                if source is None or target is None:
                    continue  # endpoint absent at t; cannot happen on valid graphs
                edge_rows.append((edge, source, target))
        edge_table = Table(("edge", "source", "target"), edge_rows)
    metrics.inc("algo2.merge_rows", len(edge_table))
    if distinct:
        with trace_span("aggregate.dedup"):
            edge_table = edge_table.deduplicate(["edge", "source", "target"])
        metrics.inc("algo2.dedup_rows", len(edge_table))
    with trace_span("aggregate.group_count"):
        edge_weights = {
            (key[0], key[1]): count
            for key, count in edge_table.groupby_count(["source", "target"]).items()
        }
    metrics.inc("algo2.group_count_groups", len(edge_weights))
    return AggregateGraph(tuple(attributes), node_weights, edge_weights, distinct=distinct)


def _aggregate_static_fast(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
    distinct: bool,
) -> AggregateGraph:
    """Section 4.2's optimization for static-only attribute lists.

    No unpivoting and no deduplication: a node has one tuple regardless of
    time.  DIST counts qualifying nodes/edges once; ALL weights each by
    its number of presence columns inside ``times`` and sums.
    """
    check_no_dangling_edges(graph, times)
    positions = [graph.static_attrs.col_position(name) for name in attributes]
    static_values = graph.static_attrs.values
    node_tuples: dict[Hashable, AttributeTuple] = {
        node: tuple(static_values[i, p] for p in positions)
        for i, node in enumerate(graph.node_presence.row_labels)
    }
    node_counts = graph.node_presence.count_nonzero_by_row(times)
    node_weights: dict[AttributeTuple, int] = {}
    for node, appearances in node_counts.items():
        if appearances == 0:
            continue
        contribution = 1 if distinct else appearances
        key = node_tuples[node]
        node_weights[key] = node_weights.get(key, 0) + contribution

    edge_counts = graph.edge_presence.count_nonzero_by_row(times)
    edge_weights: dict[EdgeKey, int] = {}
    for edge, appearances in edge_counts.items():
        if appearances == 0:
            continue
        u, v = edge  # type: ignore[misc]
        contribution = 1 if distinct else appearances
        key = (node_tuples[u], node_tuples[v])
        edge_weights[key] = edge_weights.get(key, 0) + contribution
    return AggregateGraph(tuple(attributes), node_weights, edge_weights, distinct=distinct)


def _run(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool,
    times: Iterable[Hashable] | None,
    allow_static: bool,
) -> AggregateGraph:
    window = validated_window(graph, attributes, times)
    _, varying = _split_attributes(graph, attributes)
    static = allow_static and not varying
    with trace_span(
        "aggregate",
        engine="static_fast" if static else "algo2",
        distinct=distinct,
        attributes=tuple(attributes),
        n_times=len(window),
    ):
        path = _aggregate_static_fast if static else _aggregate_general
        return path(graph, attributes, window, distinct)


def aggregate_reference(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> AggregateGraph:
    """Algorithm 2, or the Section 4.2 fast path when every aggregation
    attribute is static: :func:`repro.core.aggregate`'s reference."""
    return _run(graph, attributes, distinct, times, allow_static=True)


def aggregate_general(
    graph: TemporalGraph,
    attributes: Sequence[str],
    distinct: bool = True,
    times: Iterable[Hashable] | None = None,
) -> AggregateGraph:
    """Algorithm 2's pipeline, forced even for static-only attributes."""
    return _run(graph, attributes, distinct, times, allow_static=False)


def aggregate_evolution_reference(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
) -> EvolutionAggregate:
    """:func:`repro.core.aggregate_evolution` from explicit appearance sets."""
    old, new = _evolution_windows(graph, old_times, new_times, attributes)
    old_nodes, old_edges = _appearance_sets(graph, attributes, old)
    new_nodes, new_edges = _appearance_sets(graph, attributes, new)
    return EvolutionAggregate(
        attributes=tuple(attributes),
        old_times=old,
        new_times=new,
        node_weights=_weights_from_appearances(old_nodes, new_nodes),
        edge_weights=_weights_from_appearances(old_edges, new_edges),
    )


#: The interchangeable aggregation engines: the production ``kernel``, the
#: dispatching ``reference`` and Algorithm 2 forced (``general``).  The
#: ``engines-agree`` law holds them to identical aggregates and errors.
_ENGINES: dict[str, Callable[..., AggregateGraph]] = {
    "kernel": aggregate,
    "reference": aggregate_reference,
    "general": aggregate_general,
}


def aggregation_engines() -> dict[str, Callable[..., AggregateGraph]]:
    """A copy of the engine registry (name -> drop-in callable)."""
    return dict(_ENGINES)


# ----------------------------------------------------------------------
# Exploration: the per-pair walks (Sections 3.2-3.4)
# ----------------------------------------------------------------------


def _table(found: Sequence[ChainStep]) -> PairTable:
    """The reported steps as the production pair table."""
    return PairTable.from_pairs((s.old, s.new, s.count) for s in found)


def _step(counter: EventCounter, event: EventType, old: Side, new: Side) -> ChainStep:
    """One pair, both side masks re-reduced from the presence matrix."""
    mask = counter.event_mask(event, old, new)
    get_metrics().inc("exploration.chain_steps")
    return ChainStep(old, new, counter.count_for_mask(event, old, new, mask), mask)


def reference_chain(
    counter: EventCounter,
    event: EventType,
    reference: int,
    extend: ExtendSide,
    semantics: Semantics,
) -> Iterator[ChainStep]:
    """The extension chain of one reference point, a pair at a time.

    Extending NEW: the old side is the point ``reference`` and the new
    side runs ``[reference+1]``, ``[reference+1..reference+2]``, ...
    Extending OLD: the new side is the point ``reference + 1`` and the
    old side runs ``[reference]``, ``[reference-1..reference]``, ...
    Lazy, so a caller that stops early evaluates no later pair.
    """
    n_times = len(counter.graph.timeline)
    if not 0 <= reference < n_times - 1:
        raise ExplorationError(
            f"chain reference {reference} out of range 0..{n_times - 2}"
        )
    get_metrics().inc("exploration.chains")
    if extend is ExtendSide.NEW:
        for stop in range(reference + 1, n_times):
            new = Side(Interval(reference + 1, stop), semantics)
            yield _step(counter, event, Side.point(reference), new)
    else:
        for start in range(reference, -1, -1):
            old = Side(Interval(start, reference), semantics)
            yield _step(counter, event, old, Side.point(reference + 1))


def reference_consecutive(
    counter: EventCounter, event: EventType, start: int, stop: int
) -> Iterator[ChainStep]:
    """The consecutive point pairs ``(T_i, T_{i+1})`` of references ``i``
    in ``start .. stop-1``, a pair at a time."""
    for i in range(start, stop):
        yield _step(counter, event, Side.point(i), Side.point(i + 1))


def reference_longest(
    counter: EventCounter, event: EventType, extend: ExtendSide, start: int, stop: int
) -> Iterator[ChainStep]:
    """Per reference ``i`` in ``start .. stop-1``, the longest
    intersection-semantics extension of the ``extend`` side."""
    last = len(counter.graph.timeline) - 1
    for i in range(start, stop):
        span = Interval(0, i) if extend is ExtendSide.OLD else Interval(i + 1, last)
        longest = Side(span, Semantics.INTERSECTION)
        if extend is ExtendSide.OLD:
            yield _step(counter, event, longest, Side.point(i + 1))
        else:
            yield _step(counter, event, Side.point(i), longest)


def explore_reference(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> ExplorationResult:
    """:func:`repro.exploration.explore`, one pair at a time.

    U-Explore stops a union chain at its first pair reaching ``k`` and
    reports it; I-Explore stops an intersection chain at its first
    failure and reports the last passing pair.  When extension can only
    lower the count (minimal) or raise it (maximal), each consecutive
    point pair or each reference's longest extension is evaluated.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    counter = EventCounter(graph, entity, attributes, key)
    n_times = len(graph.timeline)
    union = goal is Goal.MINIMAL
    if event is not EventType.STABILITY and (
        (extend is ExtendSide.NEW) != (event is EventType.GROWTH)
    ):
        references = max(0, n_times - 1)
        steps = list(
            reference_consecutive(counter, event, 0, references)
            if union
            else reference_longest(counter, event, extend, 0, references)
        )
        found, evaluations = [s for s in steps if s.count >= k], len(steps)
    else:
        semantics = Semantics.UNION if union else Semantics.INTERSECTION
        found, evaluations = [], 0
        for reference in range(n_times - 1):
            passing: ChainStep | None = None
            taken = 0
            for step in reference_chain(counter, event, reference, extend, semantics):
                taken += 1
                if step.count >= k:
                    passing = step
                if (step.count >= k) == union:
                    break
            evaluations += taken
            length = reference + 1
            if extend is ExtendSide.NEW:
                length = n_times - 1 - reference
            if length > taken:
                get_metrics().inc("exploration.pruned_steps", length - taken)
            found += [] if passing is None else [passing]
    return ExplorationResult(event, goal, extend, k, _table(found), evaluations)


def exhaustive_reference(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> ExplorationResult:
    """:func:`repro.exploration.exhaustive_explore`, one pair at a time:
    every pair of every chain is evaluated, and a chain reports its first
    passing pair when minimal (Definition 3.4) or its last when maximal
    (Definition 3.5)."""
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    counter = EventCounter(graph, entity, attributes, key)
    semantics = Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
    found, evaluations = [], 0
    for reference in range(len(graph.timeline) - 1):
        steps = list(reference_chain(counter, event, reference, extend, semantics))
        evaluations += len(steps)
        passing = [s for s in steps if s.count >= k]
        if passing:
            found.append(passing[0] if goal is Goal.MINIMAL else passing[-1])
    return ExplorationResult(event, goal, extend, k, _table(found), evaluations)
