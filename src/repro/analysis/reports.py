"""Qualitative analyses and report rendering (Section 5.2).

These helpers regenerate the paper's qualitative artifacts:

* :func:`dataset_report` — the per-time-point size tables (Tables 3/4);
* :func:`evolution_report` — the aggregate evolution graph with
  stability/growth/shrinkage weights and ratios (Figure 12);
* :func:`exploration_report` — interval pairs found for a ladder of
  thresholds (Figures 13/14).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..bench.reporting import format_table
from ..core import (
    EvolutionAggregate,
    TemporalGraph,
    aggregate_evolution,
    attribute_predicate,
    filter_appearances,
)
from ..exploration import (
    EntityKind,
    EventCounter,
    EventType,
    ExplorationResult,
    ExtendSide,
    Goal,
    explore,
)

__all__ = [
    "dataset_report",
    "evolution_report",
    "EvolutionReport",
    "exploration_report",
    "ExplorationReport",
]


def dataset_report(graph: TemporalGraph, title: str = "dataset") -> str:
    """Per-time-point node/edge counts — the layout of Tables 3 and 4."""
    rows = graph.size_table()
    table = format_table(["time point", "#nodes", "#edges"], rows)
    total_nodes = graph.n_nodes
    total_edges = graph.n_edges
    return (
        f"{title}: {total_nodes} distinct nodes, {total_edges} distinct edges, "
        f"{len(graph.timeline)} time points\n{table}"
    )


@dataclass(frozen=True)
class EvolutionReport:
    """Figure-12-style evolution summary between two windows."""

    aggregate: EvolutionAggregate
    text: str


def evolution_report(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
    min_publications: int | None = None,
    activity_attribute: str = "publications",
) -> EvolutionReport:
    """Aggregate evolution between two windows, optionally restricted to
    high-activity appearances (the paper's ``#Publications > 4`` filter).

    Returns both the raw :class:`EvolutionAggregate` and a rendered
    table of per-tuple stability/growth/shrinkage weights and ratios.
    """
    working = graph
    if min_publications is not None:
        keep = attribute_predicate(
            **{
                activity_attribute: lambda p: p is not None
                and p > min_publications
            }
        )
        working = filter_appearances(graph, keep)
    evo = aggregate_evolution(working, old_times, new_times, attributes)

    node_rows = []
    for key in sorted(evo.node_weights, key=str):
        weights = evo.node_weights[key]
        node_rows.append(
            [
                "/".join(str(v) for v in key),
                weights.stability,
                weights.growth,
                weights.shrinkage,
                f"{weights.ratio('stability'):.0%}",
                f"{weights.ratio('growth'):.0%}",
                f"{weights.ratio('shrinkage'):.0%}",
            ]
        )
    edge_rows = []
    for key in sorted(evo.edge_weights, key=str):
        weights = evo.edge_weights[key]
        source, target = key
        edge_rows.append(
            [
                "/".join(str(v) for v in source)
                + " -> "
                + "/".join(str(v) for v in target),
                weights.stability,
                weights.growth,
                weights.shrinkage,
                f"{weights.ratio('stability'):.0%}",
                f"{weights.ratio('growth'):.0%}",
                f"{weights.ratio('shrinkage'):.0%}",
            ]
        )
    headers = ["entity", "St", "Gr", "Shr", "St%", "Gr%", "Shr%"]
    old = list(old_times)
    new = list(new_times)
    text = (
        f"evolution on {list(attributes)} from {old[0]}..{old[-1]} "
        f"to {new[0]}..{new[-1]}"
        + (
            f" (appearances with {activity_attribute} > {min_publications})"
            if min_publications is not None
            else ""
        )
        + "\n\nAggregate nodes:\n"
        + format_table(headers, node_rows)
        + "\n\nAggregate edges:\n"
        + format_table(headers, edge_rows)
    )
    return EvolutionReport(aggregate=evo, text=text)


@dataclass(frozen=True)
class ExplorationReport:
    """Figure-13/14-style exploration summary over a threshold ladder."""

    results: dict[int, ExplorationResult]
    text: str


def exploration_report(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    thresholds: Sequence[int],
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    title: str = "",
) -> ExplorationReport:
    """Run one exploration case at several thresholds and tabulate the
    interval pairs found (the content of the paper's Figures 13/14).

    Every threshold reads one counter, built for the first valid one."""
    results: dict[int, ExplorationResult] = {}
    counter: EventCounter | None = None
    rows = []
    labels = graph.timeline.labels

    def span_text(side: Any) -> str:
        interval = side.interval
        if interval.is_point:
            return str(labels[interval.start])
        return f"[{labels[interval.start]}..{labels[interval.stop]}]({side.semantics})"

    for k in thresholds:
        if counter is None and k >= 1:
            counter = EventCounter(graph, entity, attributes, key)
        result = explore(
            graph,
            event,
            goal,
            extend,
            k,
            entity=entity,
            attributes=attributes,
            key=key,
            counter=counter,
        )
        results[k] = result
        if result.pairs:
            for pair in result.pairs:
                rows.append(
                    [k, span_text(pair.old), span_text(pair.new), pair.count]
                )
        else:
            rows.append([k, "-", "-", 0])
    table = format_table(["k", "T_old", "T_new", "events"], rows)
    header = title or (
        f"{event}/{goal} (extend {extend}) on {list(attributes)} key={key!r}"
    )
    return ExplorationReport(results=results, text=f"{header}\n{table}")
