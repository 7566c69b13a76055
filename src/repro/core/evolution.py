"""The evolution graph (Definition 2.7) and its aggregation (Fig. 4b).

Between two time sets ``T1`` (old) and ``T2`` (new) the evolution graph
overlays three operator results:

* the intersection graph — **stability**,
* the difference ``T1 - T2`` — **shrinkage** (deleted entities),
* the difference ``T2 - T1`` — **growth** (new entities).

Aggregating an evolution graph labels each aggregate entity with three
weights.  As the paper's Figure 4b example shows, the unit of counting is
an *appearance*: the pair (node, attribute tuple).  A node that exists in
both intervals but whose time-varying attributes changed contributes a
shrinkage appearance for its old tuple and a growth appearance for the
new one — exactly how node ``u4``'s move from ``(f, 2)`` to ``(f, 1)``
is scored in the paper.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from .aggregation import AttributeTuple, EdgeKey, _node_tuple_table
from .fast import evolution_counts
from .graph import TemporalGraph
from .intervals import TimeSet
from .operators import difference, intersection, ordered_times
from ..errors import ValidationError

__all__ = [
    "EvolutionGraph",
    "EvolutionWeights",
    "EvolutionAggregate",
    "evolution",
    "aggregate_evolution",
]


@dataclass(frozen=True)
class EvolutionGraph:
    """The three-way overlay ``G_>`` between ``T1`` and ``T2``.

    ``stable``, ``shrunk`` and ``grown`` are the operator outputs named in
    Definition 2.7 (``G_∩``, ``G_-`` on ``T1 - T2`` and ``G_-`` on
    ``T2 - T1``); ``old_times`` / ``new_times`` record the intervals the
    overlay was built on.
    """

    old_times: TimeSet
    new_times: TimeSet
    stable: TemporalGraph
    shrunk: TemporalGraph
    grown: TemporalGraph

    def node_kinds(self) -> dict[Hashable, set[str]]:
        """Map each node to the event kinds it participates in.

        Kinds are ``"stability"``, ``"shrinkage"`` and ``"growth"``; a
        node may carry several (e.g. a surviving node that lost an edge is
        both stable and a member of the shrinkage component, per the
        second disjunct of Definition 2.5).
        """
        kinds: dict[Hashable, set[str]] = {}
        for node in self.stable.nodes:
            kinds.setdefault(node, set()).add("stability")
        for node in self.shrunk.nodes:
            kinds.setdefault(node, set()).add("shrinkage")
        for node in self.grown.nodes:
            kinds.setdefault(node, set()).add("growth")
        return kinds

    def edge_kinds(self) -> dict[tuple[Hashable, Hashable], set[str]]:
        """Map each edge to its event kinds (disjoint by construction:
        an edge is in exactly one of the three components)."""
        kinds: dict[tuple[Hashable, Hashable], set[str]] = {}
        for edge in self.stable.edges:
            kinds.setdefault(edge, set()).add("stability")
        for edge in self.shrunk.edges:
            kinds.setdefault(edge, set()).add("shrinkage")
        for edge in self.grown.edges:
            kinds.setdefault(edge, set()).add("growth")
        return kinds

    @property
    def n_nodes(self) -> int:
        """Distinct nodes across the three components (``|V_>|``)."""
        return len(self.node_kinds())

    @property
    def n_edges(self) -> int:
        return len(self.edge_kinds())


def evolution(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
) -> EvolutionGraph:
    """Build the evolution graph between two time sets (Definition 2.7)."""
    old = ordered_times(graph, old_times)
    new = ordered_times(graph, new_times)
    if not old or not new:
        raise ValidationError("evolution requires two non-empty time sets")
    return EvolutionGraph(
        old_times=old,
        new_times=new,
        stable=intersection(graph, old, new),
        shrunk=difference(graph, old, new),
        grown=difference(graph, new, old),
    )


@dataclass(frozen=True)
class EvolutionWeights:
    """The three event weights attached to one aggregate entity."""

    stability: int = 0
    growth: int = 0
    shrinkage: int = 0

    @property
    def total(self) -> int:
        return self.stability + self.growth + self.shrinkage

    def ratio(self, kind: str) -> float:
        """Share of one event kind in this entity's total (0.0 if empty).

        This is the "distribution of each entity w.r.t. stability, growth
        and shrinkage" plotted in the paper's Figure 12.
        """
        if kind not in ("stability", "growth", "shrinkage"):
            raise ValidationError(f"unknown event kind: {kind!r}")
        if self.total == 0:
            return 0.0
        return getattr(self, kind) / self.total


@dataclass(frozen=True)
class EvolutionAggregate:
    """Aggregation of an evolution graph: per-tuple event weights."""

    attributes: tuple[str, ...]
    old_times: TimeSet
    new_times: TimeSet
    node_weights: dict[AttributeTuple, EvolutionWeights]
    edge_weights: dict[EdgeKey, EvolutionWeights]

    def node(self, key: Sequence[Any]) -> EvolutionWeights:
        """Event weights of one aggregate node (zeros if absent)."""
        return self.node_weights.get(tuple(key), EvolutionWeights())

    def edge(self, source: Sequence[Any], target: Sequence[Any]) -> EvolutionWeights:
        """Event weights of one aggregate edge (zeros if absent)."""
        return self.edge_weights.get(
            (tuple(source), tuple(target)), EvolutionWeights()
        )

    def diff(self, other: "EvolutionAggregate") -> tuple[str, ...]:
        """Human-readable differences from another evolution aggregate.

        Empty when both carry the same attributes, intervals and the
        same (stability, growth, shrinkage) weights for every aggregate
        node and edge — the comparison unit of the differential fuzz
        oracle for Fig. 4b semantics.
        """
        problems: list[str] = []
        if self.attributes != other.attributes:
            problems.append(
                f"attributes differ: {self.attributes!r} != {other.attributes!r}"
            )
        if (self.old_times, self.new_times) != (other.old_times, other.new_times):
            problems.append(
                f"intervals differ: {(self.old_times, self.new_times)!r} != "
                f"{(other.old_times, other.new_times)!r}"
            )
        zero = EvolutionWeights()
        for kind, ours, theirs in (
            ("node", self.node_weights, other.node_weights),
            ("edge", self.edge_weights, other.edge_weights),
        ):
            for key in sorted(set(ours) | set(theirs), key=repr):
                a = ours.get(key, zero)  # type: ignore[arg-type]
                b = theirs.get(key, zero)  # type: ignore[arg-type]
                if a != b:
                    problems.append(f"{kind} weights {key!r}: {a} != {b}")
        return tuple(problems)

    def totals(self) -> EvolutionWeights:
        """Summed node weights across all aggregate nodes."""
        return EvolutionWeights(
            stability=sum(w.stability for w in self.node_weights.values()),
            growth=sum(w.growth for w in self.node_weights.values()),
            shrinkage=sum(w.shrinkage for w in self.node_weights.values()),
        )

    def edge_totals(self) -> EvolutionWeights:
        """Summed edge weights across all aggregate edges."""
        return EvolutionWeights(
            stability=sum(w.stability for w in self.edge_weights.values()),
            growth=sum(w.growth for w in self.edge_weights.values()),
            shrinkage=sum(w.shrinkage for w in self.edge_weights.values()),
        )


def _appearance_sets(
    graph: TemporalGraph,
    attributes: Sequence[str],
    times: TimeSet,
) -> tuple[
    set[tuple[Hashable, AttributeTuple]],
    set[tuple[tuple[Hashable, Hashable], EdgeKey]],
]:
    """Distinct (entity, tuple) appearances over a time window.

    The set form the delta-maintained
    :class:`repro.streaming.EvolutionView` keeps; the evolution kernel
    (:func:`repro.core.fast.evolution_counts`) is diffed against it.
    """
    node_table = _node_tuple_table(graph, attributes, times)
    node_appearances = {(node, values) for node, _, values in node_table.rows}
    lookup = {(node, t): values for node, t, values in node_table.rows}
    edge_appearances: set[tuple[tuple[Hashable, Hashable], EdgeKey]] = set()
    time_positions = [graph.timeline.index_of(t) for t in times]
    presence = graph.edge_presence.values
    for row_idx, edge in enumerate(graph.edge_presence.row_labels):
        u, v = edge  # type: ignore[misc]
        for t, t_pos in zip(times, time_positions):
            if not presence[row_idx, t_pos]:
                continue
            source = lookup.get((u, t))
            target = lookup.get((v, t))
            if source is None or target is None:
                continue
            edge_appearances.add((edge, (source, target)))  # type: ignore[arg-type]
    return node_appearances, edge_appearances


def _weights_from_appearances(
    old: set[tuple[Any, Any]],
    new: set[tuple[Any, Any]],
) -> dict[Any, EvolutionWeights]:
    """Per-tuple event weights from two (entity, tuple) appearance sets.

    The unit of counting is the appearance: stability for pairs in both
    windows, growth for new-only, shrinkage for old-only, each keyed by
    the appearance's attribute tuple.  Used by the delta-maintained
    :class:`repro.streaming.EvolutionView` and by
    :func:`repro.testing.reference.aggregate_evolution_reference`.
    """
    counters: dict[Any, dict[str, int]] = {}

    def bump(pairs: set[tuple[Any, Any]], kind: str) -> None:
        for _, key in pairs:
            counters.setdefault(
                key, {"stability": 0, "growth": 0, "shrinkage": 0}
            )[kind] += 1

    bump(old & new, "stability")
    bump(new - old, "growth")
    bump(old - new, "shrinkage")
    return {key: EvolutionWeights(**counts) for key, counts in counters.items()}


def _evolution_windows(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
) -> tuple[TimeSet, TimeSet]:
    """Validated, timeline-ordered ``(old, new)`` windows of an evolution
    aggregation."""
    if not attributes:
        raise ValidationError("evolution aggregation needs at least one attribute")
    old = ordered_times(graph, old_times)
    new = ordered_times(graph, new_times)
    if not old or not new:
        raise ValidationError("evolution aggregation requires two non-empty time sets")
    return old, new


def aggregate_evolution(
    graph: TemporalGraph,
    old_times: Iterable[Hashable],
    new_times: Iterable[Hashable],
    attributes: Sequence[str],
) -> EvolutionAggregate:
    """Aggregate the evolution between two time sets (Fig. 4b semantics).

    An appearance ``(entity, attribute tuple)`` that occurs in both
    windows scores *stability* for its tuple; one occurring only in the
    old window scores *shrinkage*; only in the new window, *growth*.
    Counting is distinct (each appearance once), matching the weights the
    paper reads off Figures 4b and 12.  The counts come from the
    factorized kernel (:func:`repro.core.fast.evolution_counts`).
    """
    old, new = _evolution_windows(graph, old_times, new_times, attributes)
    node_counts, edge_counts = evolution_counts(
        graph,
        attributes,
        [graph.timeline.index_of(t) for t in old],
        [graph.timeline.index_of(t) for t in new],
    )
    return EvolutionAggregate(
        attributes=tuple(attributes),
        old_times=old,
        new_times=new,
        node_weights={k: EvolutionWeights(*w) for k, w in node_counts.items()},
        edge_weights={k: EvolutionWeights(*w) for k, w in edge_counts.items()},
    )
