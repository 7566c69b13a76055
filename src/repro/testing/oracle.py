"""Differential laws: every engine/store/strategy variant must agree.

The repo deliberately keeps several independently-optimized code paths
per operation — the factorized kernel vs the literal Algorithm 2 and
appearance-set references (:mod:`repro.testing.reference`), fresh
aggregation vs materialized derivation, the packed exploration walks
vs the per-pair ones.  These laws run one random workload through
*all* variants and diff the results bit-exactly (via the ``diff`` hooks
on :class:`~repro.core.AggregateGraph` and
:class:`~repro.exploration.explore.ExplorationResult`).  On hostile
graphs the engines must also *fail* identically: same taxonomy error
type from every variant.

Importing this module registers the laws; :mod:`repro.testing`'s
``__init__`` does so eagerly.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Any

import numpy as np

from ..core import TemporalGraph, aggregate, aggregate_evolution, presence_signature
from ..errors import GraphTempoError
from ..exploration.events import EntityKind, EventType
from ..exploration.explore import ExtendSide, Goal, exhaustive_explore, explore
from ..materialize.incremental import IncrementalStore
from ..materialize.store import MaterializedStore
from .generators import random_time_sets
from .laws import register_law
from .reference import (
    aggregate_evolution_reference,
    aggregation_engines,
    exhaustive_reference,
    explore_reference,
)

__all__ = ["DIFFERENTIAL_LAW_NAMES"]

#: Names of the laws this module registers, in registration order.
DIFFERENTIAL_LAW_NAMES = (
    "engines-agree",
    "evolution-engines-agree",
    "union-store-agrees",
    "incremental-replay-agrees",
    "exploration-variants-agree",
    "serving-cache-transparency",
    "backend-storage",
)


def _pick_attributes(
    rng: np.random.Generator, graph: TemporalGraph, static_only: bool = False
) -> list[str]:
    names = [
        a
        for a in graph.attribute_names
        if not static_only or graph.is_static(a)
    ]
    if not names:
        return []
    order = rng.permutation(len(names))
    k = int(rng.integers(1, len(names) + 1))
    return [names[i] for i in order[:k]]


def _first_diff(a: object, b: object) -> str | None:
    problems = a.diff(b)  # type: ignore[attr-defined]
    return problems[0] if problems else None


def _disagreement(
    what: str,
    variants: dict[str, Callable[[], object]],
    differ: Callable[[object, object], str | None] = _first_diff,
) -> str | None:
    """Run every variant; ``None`` when all return equal results or all
    raise the same taxonomy error, else a message naming the split."""
    results, errors = {}, {}
    for name, run in variants.items():
        try:
            results[name] = run()
        except GraphTempoError as exc:
            errors[name] = type(exc).__name__
    if errors and results:
        return (
            f"{what}: {sorted(errors)} raised {sorted(set(errors.values()))}, "
            f"{sorted(results)} returned"
        )
    if len(set(errors.values())) > 1:
        return f"{what}: variants raised different errors {errors!r}"
    names = sorted(results)
    for other in names[1:]:
        problem = differ(results[names[0]], results[other])
        if problem:
            return f"{what}: {names[0]} vs {other}: {problem}"
    return None


@register_law(
    "engines-agree",
    "the aggregation kernel and the Algorithm-2 references return "
    "identical aggregates — or raise the same taxonomy error",
)
def _engines_agree(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    attrs = _pick_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    times = (
        None
        if rng.integers(2)
        else random_time_sets(rng, graph, n=1, hostile=bool(rng.integers(2)))[0]
    )
    return _disagreement(
        f"aggregate {attrs!r}/{times!r}",
        {
            name: functools.partial(engine, graph, attrs, distinct, times)
            for name, engine in aggregation_engines().items()
        },
    )


@register_law(
    "evolution-engines-agree",
    "the evolution kernel returns the appearance-set reference's weights "
    "— or raises the same taxonomy error",
)
def _evolution_engines_agree(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _pick_attributes(rng, graph)
    old, new = random_time_sets(rng, graph, n=2, hostile=bool(rng.integers(2)))
    return _disagreement(
        f"evolution {attrs!r} {old!r} -> {new!r}",
        {
            "kernel": lambda: aggregate_evolution(graph, old, new, attrs),
            "reference": lambda: aggregate_evolution_reference(graph, old, new, attrs),
        },
    )


@register_law(
    "union-store-agrees",
    "materialized union derivation equals fresh ALL aggregation",
    hostile_safe=False,
)
def _union_store_agrees(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _pick_attributes(rng, graph)
    window = random_time_sets(rng, graph, n=1)[0]
    store = MaterializedStore(graph)
    derived = store.union_aggregate(attrs, window)
    fresh = aggregate(graph, attrs, distinct=False, times=window)
    problems = derived.diff(fresh)
    if problems:
        return f"store derivation diverges over {window!r}: {problems[0]}"
    return None


@register_law(
    "incremental-replay-agrees",
    "replaying the graph's history through IncrementalStore reproduces "
    "the whole-graph store and the direct aggregate",
    hostile_safe=False,
)
def _incremental_replay_agrees(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = tuple(_pick_attributes(rng, graph))
    replayed = IncrementalStore.from_history(graph, [attrs])
    if replayed.graph.timeline.labels != graph.timeline.labels:
        return (
            f"replayed timeline {replayed.graph.timeline.labels!r} != "
            f"{graph.timeline.labels!r}"
        )
    if presence_signature(replayed.graph) != presence_signature(graph):
        return "replayed graph's presence diverges from the original"
    fresh = IncrementalStore(graph, [attrs])
    problems = replayed.union_total(attrs).diff(fresh.union_total(attrs))
    if problems:
        return f"replayed union total diverges: {problems[0]}"
    direct = aggregate(graph, list(attrs), distinct=False)
    problems = fresh.union_total(attrs).diff(direct)
    if problems:
        return f"store union total diverges from direct aggregate: {problems[0]}"
    return None


@register_law(
    "exploration-variants-agree",
    "explore, exhaustive_explore and their per-pair references report the "
    "same pairs, and each production explorer equals its reference "
    "exactly; with time-varying attributes and keys, explore and its "
    "reference agree exactly",
    hostile_safe=False,
)
def _exploration_variants_agree(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    if len(graph.timeline) < 2:
        return None
    event = tuple(EventType)[int(rng.integers(3))]
    goal = tuple(Goal)[int(rng.integers(2))]
    extend = tuple(ExtendSide)[int(rng.integers(2))]
    entity = EntityKind.EDGES if rng.integers(2) else EntityKind.NODES
    # Monotonicity (which the pruned strategies rely on) holds for
    # mask-sum counts: static attributes only, with or without a key.
    attrs = (
        _pick_attributes(rng, graph, static_only=True)
        if rng.integers(2)
        else []
    )
    key = None
    if attrs and rng.integers(2):
        column = graph.static_attrs.column(attrs[0])
        value = column[int(rng.integers(len(column)))]
        node_key = tuple(
            value if i == 0 else graph.static_attrs.column(a)[0]
            for i, a in enumerate(attrs)
        )
        key = node_key if entity is EntityKind.NODES else (node_key, node_key)
    k = int(rng.integers(1, 4))
    case = (graph, event, goal, extend, k, entity, attrs, key)
    baseline = explore(*case)
    for name, ours, reference in (
        ("explore", baseline, explore_reference(*case)),
        ("exhaustive", exhaustive_explore(*case), exhaustive_reference(*case)),
    ):
        for variant, result in ((name, ours), (f"{name}-reference", reference)):
            problems = baseline.diff(result)
            if problems:
                return (
                    f"explore vs {variant} on {event}/{goal}/{extend} "
                    f"k={k} attrs={attrs!r} key={key!r}: {problems[0]}"
                )
        if ours != reference:
            return (
                f"{name} vs its reference on {event}/{goal}/{extend} k={k}: "
                f"pair order, sides or evaluations differ: {ours} != {reference}"
            )
    # Time-varying attributes can make counts non-monotone along chains,
    # where the by-definition oracle may legitimately differ; the batched
    # walk and the per-pair reference must still agree exactly.
    varying = _pick_attributes(rng, graph)
    varying_key = (
        _draw_key(rng, graph, varying, entity)
        if varying and graph.n_nodes and rng.integers(2)
        else None
    )
    case = (graph, event, goal, extend, k, entity, varying, varying_key)
    fast, slow = explore(*case), explore_reference(*case)
    if fast != slow:
        problems = fast.diff(slow) or (
            f"pair order, sides or evaluations differ: {fast} != {slow}",
        )
        return (
            f"explore vs explore-reference on {event}/{goal}/{extend} "
            f"k={k} attrs={varying!r} key={varying_key!r}: {problems[0]}"
        )
    return None


def _draw_key(
    rng: np.random.Generator,
    graph: TemporalGraph,
    attributes: list[str],
    entity: EntityKind,
) -> Any:
    """A key over ``attributes``: a random node's tuple at a random time
    point per endpoint (it may never occur, e.g. where the node is
    absent)."""

    def node_tuple() -> tuple[Any, ...]:
        node = graph.nodes[int(rng.integers(graph.n_nodes))]
        time = graph.timeline.labels[int(rng.integers(len(graph.timeline)))]
        return tuple(graph.attribute_value(node, a, time) for a in attributes)

    if entity is EntityKind.NODES:
        return node_tuple()
    return node_tuple(), node_tuple()


@register_law(
    "backend-storage",
    "every registered storage backend round-trips the graph bit-exactly "
    "and serves identical presence masks, aggregates and taxonomy errors",
)
def _backend_storage(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    from ..storage import backend_names, get_backend

    variants: dict[str, TemporalGraph] = {}
    for name in backend_names():
        variant = get_backend(name).from_graph(graph).to_graph()
        if presence_signature(variant) != presence_signature(graph):
            return f"backend {name!r} does not round-trip presence bit-exactly"
        variants[name] = variant

    window = random_time_sets(rng, graph, n=1, hostile=bool(rng.integers(2)))[0]
    for entity in ("nodes", "edges"):
        for mode in ("any", "all", "none"):
            problem = _disagreement(
                f"{entity}/{mode} mask over {window!r}",
                {
                    name: functools.partial(variant.presence_mask, entity, window, mode)
                    for name, variant in variants.items()
                },
                lambda a, b: None if np.array_equal(a, b) else "masks differ",
            )
            if problem:
                return problem

    attrs = _pick_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    times = None if rng.integers(2) else window
    return _disagreement(
        f"aggregate {attrs!r}/{times!r} across backends",
        {
            name: functools.partial(aggregate, variant, attrs, distinct, times)
            for name, variant in variants.items()
        },
    )


def _served_matches(served: object, naive: object) -> str | None:
    """Bit-exact comparison across the result types queries produce."""
    if isinstance(served, TemporalGraph) and isinstance(naive, TemporalGraph):
        if presence_signature(served) != presence_signature(naive):
            return "served temporal graph's presence diverges"
        return None
    problems = served.diff(naive)  # type: ignore[attr-defined]
    return problems[0] if problems else None


@register_law(
    "serving-cache-transparency",
    "served results (normalizer + planner + result cache + permutation) "
    "are bit-identical to from-scratch evaluation — or raise the same "
    "taxonomy error",
)
def _serving_cache_transparency(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    from ..query.ast import (
        AggregateExpr,
        EvolutionExpr,
        ExploreExpr,
        OperatorExpr,
        QueryExpr,
        WindowExpr,
    )
    from ..query.evaluator import evaluate
    from ..serving import QueryServer

    labels = graph.timeline.labels

    def window() -> WindowExpr:
        i = int(rng.integers(len(labels)))
        j = int(rng.integers(len(labels)))
        if rng.integers(2):
            return WindowExpr(labels[i])
        lo, hi = sorted((i, j))
        return WindowExpr(labels[lo], labels[hi])

    def operator() -> OperatorExpr:
        name = ("union", "project", "intersection", "difference")[
            int(rng.integers(4))
        ]
        n = 2 if name in ("intersection", "difference") else int(rng.integers(1, 3))
        return OperatorExpr(name, tuple(window() for _ in range(n)))

    present = np.argwhere(graph.node_presence.values)

    def explore_expr(attrs: tuple[str, ...]) -> ExploreExpr:
        """An explore statement, keyed by the tuples of random present
        cells half of the time."""
        entity = ("nodes", "edges")[int(rng.integers(2))]
        cells = present[rng.integers(len(present), size=2)] if len(present) else present
        tuples = [
            tuple(graph.attribute_value(graph.nodes[r], a, labels[c]) for a in attrs)
            for r, c in cells
        ]
        key: Any = None
        if attrs and tuples and rng.integers(2):
            key = tuples[0] if entity == "nodes" else tuple(tuples)
        return ExploreExpr(
            tuple(EventType)[int(rng.integers(3))].value,
            tuple(Goal)[int(rng.integers(2))].value,
            tuple(ExtendSide)[int(rng.integers(2))].value,
            int(rng.integers(0, 4)),
            entity,
            attrs,
            key,
        )

    exprs: list[QueryExpr] = []
    for _ in range(3):
        attrs = tuple(_pick_attributes(rng, graph))
        choice = int(rng.integers(4))
        if choice == 3:
            exprs.append(explore_expr(attrs if rng.integers(3) else ()))
        elif choice == 0 or not attrs:
            exprs.append(operator())
        elif choice == 1:
            exprs.append(AggregateExpr(attrs, bool(rng.integers(2)), operator()))
        else:
            exprs.append(EvolutionExpr(window(), window(), attrs))
        last = exprs[-1]
        if len(attrs) > 1 and isinstance(last, (AggregateExpr, EvolutionExpr)):
            # The same query with the attribute list written in reverse:
            # it shares the canonical cache entry and must still match
            # its own from-scratch evaluation after permutation.
            swapped = tuple(reversed(attrs))
            if isinstance(last, AggregateExpr):
                exprs.append(AggregateExpr(swapped, last.distinct, last.source))
            else:
                exprs.append(EvolutionExpr(last.old, last.new, swapped))

    server = QueryServer(graph)
    for expr in exprs:
        # Twice: first populates the result cache, second must serve the
        # cached entry — both observably identical to naive evaluation.
        for attempt in ("cold", "cached"):
            served_error = naive_error = None
            served = naive = None
            try:
                served = server.serve_expr(expr).result
            except GraphTempoError as exc:
                served_error = type(exc).__name__
            try:
                naive = evaluate(graph, expr)
            except GraphTempoError as exc:
                naive_error = type(exc).__name__
            if served_error or naive_error:
                if served_error != naive_error:
                    return (
                        f"{attempt} serve of {str(expr)!r} raised "
                        f"{served_error!r} but naive evaluation raised "
                        f"{naive_error!r}"
                    )
                continue
            problem = _served_matches(served, naive)
            if problem:
                return f"{attempt} serve of {str(expr)!r} diverges: {problem}"
    return None
