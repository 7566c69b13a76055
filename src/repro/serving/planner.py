"""The cost-based query planner.

Given a :class:`~repro.serving.normalize.NormalizedQuery` and the cube
bound to the same graph, :func:`plan_query` picks the cheapest legal
execution route.  Aggregate queries whose source reduces to a
union-semantics window are routed through
:meth:`repro.olap.TemporalGraphCube.plan_routes` — the Section 4.3
machinery: exact cached cuboid, D-distributive attribute roll-up,
T-distributive per-time-point sum, or base evaluation, ranked by the
cube's cost model.  Everything else (projection/intersection/difference
sources, evolution, exploration, bare operators) evaluates from the base
graph; the serving result cache in front of the planner is what makes
*those* cheap on repetition.

Execution (:func:`execute_plan`) computes in canonical attribute order;
:func:`permute_result` maps the canonical result back to the caller's
written order, which is a bijection on weight keys and therefore
bit-exact for DIST and ALL alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, cast

from ..core import (
    EvolutionAggregate,
    TemporalGraph,
    aggregate,
    aggregate_evolution,
    difference,
    intersection,
    project,
    union,
)
from ..exploration import EntityKind, EventType, ExtendSide, Goal, explore
from ..olap.cube import CubeRoute, TemporalGraphCube
from ..errors import InvalidTypeError
from .normalize import NormalizedQuery

__all__ = ["Plan", "plan_query", "execute_plan", "permute_result"]

#: Route names (the cube's four, reused verbatim for aggregates).
ROUTE_BASE = "base"


@dataclass(frozen=True)
class Plan:
    """One planned execution: the route, its cost, and how to run it."""

    query: NormalizedQuery
    route: str
    cost: float
    cube_route: CubeRoute | None = None

    def describe(self) -> str:
        """A one-line human-readable summary (``explain`` output)."""
        detail = (
            self.cube_route.describe()
            if self.cube_route is not None
            else self.query.describe()
        )
        return f"{self.route} (cost {self.cost:g}): {detail}"


def _base_cost(graph: TemporalGraph, query: NormalizedQuery) -> float:
    """Entity-rows touched by a from-scratch evaluation (abstract units)."""
    rows = graph.n_nodes + graph.n_edges
    points = sum(len(w) for w in query.windows) or len(graph.timeline.labels)
    return float(rows * max(points, 1))


def _cube_eligible(query: NormalizedQuery, cube: TemporalGraphCube) -> bool:
    """Aggregates the cube can serve: a union-semantics window over the
    cube's dimensions.  (Projection over several points selects entities
    present *throughout*, which is not a cuboid; single-point projections
    were already rewritten to unions by the normalizer.)"""
    return (
        query.kind == "aggregate"
        and query.operator == "union"
        and len(query.windows) == 1
        and bool(query.attributes)
        and set(query.attributes) <= set(cube.dimensions)
    )


def plan_query(
    graph: TemporalGraph, cube: TemporalGraphCube, query: NormalizedQuery
) -> Plan:
    """The cheapest legal plan for one normalized query."""
    if _cube_eligible(query, cube):
        routes = cube.plan_routes(
            query.attributes, times=query.windows[0], distinct=query.distinct
        )
        best = routes[0]
        return Plan(query, best.kind, best.cost, cube_route=best)
    return Plan(query, ROUTE_BASE, _base_cost(graph, query))


def _evaluate_operator(graph: TemporalGraph, query: NormalizedQuery) -> TemporalGraph:
    windows = query.windows
    if query.operator == "union":
        return union(graph, windows[0])
    if query.operator == "project":
        return project(graph, windows[0])
    if query.operator == "intersection":
        return intersection(graph, windows[0], windows[1])
    if query.operator == "difference":
        return difference(graph, windows[0], windows[1])
    raise InvalidTypeError(f"unknown operator {query.operator!r}")


def execute_plan(
    graph: TemporalGraph, cube: TemporalGraphCube, plan: Plan
) -> Any:
    """Run one plan, returning the result in canonical attribute order.

    Aggregates with a cube route execute through the cube (which caches
    the cuboid and records the route in its stats); everything else is
    the naive evaluator's code path over the normalized form.
    """
    query = plan.query
    if query.kind == "operator":
        return _evaluate_operator(graph, query)
    if query.kind == "aggregate":
        if plan.cube_route is not None:
            return cube.execute_route(plan.cube_route)
        source = _evaluate_operator(graph, query)
        return aggregate(
            source, list(query.attributes), distinct=query.distinct
        )
    if query.kind == "evolution":
        return aggregate_evolution(
            graph, query.windows[0], query.windows[1], list(query.attributes)
        )
    if query.kind == "explore":
        event, goal, extend, k, entity, attributes, key = query.detail
        kind = EntityKind(cast(str, entity))
        names = cast("tuple[str, ...]", attributes)
        # The cube's counter shares an index built once per graph version.
        # An invalid k keeps explore's own error; a cube already rebound
        # to a newer version hands over nothing.
        counter = cube.event_counter(kind, names, key) if cast(int, k) >= 1 else None
        return explore(
            graph,
            EventType(cast(str, event)),
            Goal(cast(str, goal)),
            ExtendSide(cast(str, extend)),
            cast(int, k),
            entity=kind,
            attributes=list(names),
            key=key,
            counter=counter if counter is not None and counter.graph is graph else None,
        )
    raise InvalidTypeError(f"unknown query kind {query.kind!r}")


def _permute_evolution(
    result: EvolutionAggregate, output: Sequence[str]
) -> EvolutionAggregate:
    positions = [result.attributes.index(name) for name in output]
    return EvolutionAggregate(
        attributes=tuple(output),
        old_times=result.old_times,
        new_times=result.new_times,
        node_weights={
            tuple(key[p] for p in positions): weights
            for key, weights in result.node_weights.items()
        },
        edge_weights={
            (
                tuple(source[p] for p in positions),
                tuple(target[p] for p in positions),
            ): weights
            for (source, target), weights in result.edge_weights.items()
        },
    )


def permute_result(result: Any, query: NormalizedQuery) -> Any:
    """Map a canonical-order result back to the caller's written order.

    A no-op unless the query's written attribute order differs from the
    canonical one.  Reordering the same attribute set is a bijection on
    weight keys, so the permuted result is bit-identical to evaluating in
    the written order directly — the property the
    ``serving-cache-transparency`` law fuzzes.
    """
    if not query.needs_permutation:
        return result
    if query.kind == "aggregate":
        return result.rollup(tuple(query.output))
    if query.kind == "evolution":
        return _permute_evolution(result, query.output)
    return result
