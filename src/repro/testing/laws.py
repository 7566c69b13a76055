"""The metamorphic-law registry.

Each :class:`Law` encodes one identity the paper's algebra promises —
operator laws over time sets (Definitions 2.2-2.5), DIST/ALL aggregation
relations (Definition 2.6), evolution-graph consistency (Definition 2.7,
Fig. 4b), semi-lattice monotonicity (Section 3) and granularity/rollup
equalities (Section 4.3).  A law's ``check`` receives a random graph and
a dedicated RNG (for picking windows, attributes and thresholds) and
returns ``None`` on success or a human-readable violation message.

Laws marked ``hostile_safe=False`` assume a well-formed graph and are
skipped on hostile inputs (dangling edges); the differential laws in
:mod:`repro.testing.oracle` cover hostility by asserting that every
engine rejects it identically.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core import (
    Interval,
    SnapshotUpdate,
    TemporalGraph,
    TimeHierarchy,
    aggregate,
    aggregate_evolution,
    append_snapshot,
    coarsen,
    difference,
    intersection,
    ordered_times,
    presence_signature,
    project,
    union,
)
from ..core.cells import build_cells
from ..core.evolution import EvolutionWeights
from ..core.fast import check_no_dangling_edges
from ..core.updates import split_history
from ..errors import (
    AggregationError,
    ConfigurationError,
    ExplorationError,
    GraphTempoError,
)
from ..exploration.events import ChainEvaluator, EntityKind, EventCounter, EventType
from ..exploration.lattice import ExtendSide, Semantics, Side
from ..materialize.streaming import AggregateTotalsView
from ..storage.base import resolve_endpoint_rows
from ..streaming import EvolutionView, ExplorationView, StreamingStore
from .generators import graph_from_maps, graph_to_maps, random_time_sets
from .reference import aggregate_reference, reference_chain

__all__ = ["Law", "register_law", "law_registry", "get_laws"]

CheckFn = Callable[[TemporalGraph, np.random.Generator], "str | None"]


@dataclass(frozen=True)
class Law:
    """One registered algebraic identity."""

    name: str
    description: str
    check: CheckFn
    hostile_safe: bool = True


_REGISTRY: dict[str, Law] = {}


def register_law(
    name: str, description: str, hostile_safe: bool = True
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a check function as a named law."""

    def wrap(check: CheckFn) -> CheckFn:
        if name in _REGISTRY:
            raise ConfigurationError(f"law {name!r} is already registered")
        _REGISTRY[name] = Law(name, description, check, hostile_safe)
        return check

    return wrap


def law_registry() -> dict[str, Law]:
    """A copy of the full registry (name -> law), registration order."""
    return dict(_REGISTRY)


def get_laws(names: Sequence[str] | None = None) -> tuple[Law, ...]:
    """Resolve law names (``None`` = every registered law)."""
    if names is None:
        return tuple(_REGISTRY.values())
    missing = [n for n in names if n not in _REGISTRY]
    if missing:
        raise ConfigurationError(
            f"unknown laws {missing!r}; known: {sorted(_REGISTRY)}"
        )
    return tuple(_REGISTRY[n] for n in names)


# ----------------------------------------------------------------------
# Shared pickers
# ----------------------------------------------------------------------


def _one_window(rng: np.random.Generator, graph: TemporalGraph) -> tuple:
    return random_time_sets(rng, graph, n=1)[0]


def _some_attributes(
    rng: np.random.Generator, graph: TemporalGraph
) -> list[str]:
    names = list(graph.attribute_names)
    order = rng.permutation(len(names))
    k = int(rng.integers(1, len(names) + 1))
    return [names[i] for i in order[:k]]


def _random_point(rng: np.random.Generator, graph: TemporalGraph):
    labels = graph.timeline.labels
    return labels[int(rng.integers(len(labels)))]


def _entity_sets(graph: TemporalGraph) -> tuple[set, set]:
    return set(graph.nodes), set(graph.edges)


# ----------------------------------------------------------------------
# Operator laws (Definitions 2.2-2.5)
# ----------------------------------------------------------------------


@register_law(
    "union-idempotent",
    "union(T, T) is the same graph as union(T) (Definition 2.3)",
)
def _union_idempotent(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    window = _one_window(rng, graph)
    a = presence_signature(union(graph, window, window))
    b = presence_signature(union(graph, window))
    if a != b:
        return f"union(T, T) != union(T) over {window!r}"
    return None


@register_law(
    "union-commutes",
    "union(T1, T2) == union(T2, T1) (Definition 2.3)",
)
def _union_commutes(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    if presence_signature(union(graph, w1, w2)) != presence_signature(
        union(graph, w2, w1)
    ):
        return f"union not commutative over {w1!r}, {w2!r}"
    return None


@register_law(
    "intersection-commutes",
    "intersection(T1, T2) == intersection(T2, T1) (Definition 2.4)",
)
def _intersection_commutes(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    if presence_signature(intersection(graph, w1, w2)) != presence_signature(
        intersection(graph, w2, w1)
    ):
        return f"intersection not commutative over {w1!r}, {w2!r}"
    return None


@register_law(
    "intersection-within-union",
    "entities of the intersection graph are a subset of the union graph's",
)
def _intersection_within_union(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    inter_nodes, inter_edges = _entity_sets(intersection(graph, w1, w2))
    union_nodes, union_edges = _entity_sets(union(graph, w1, w2))
    if not inter_nodes <= union_nodes:
        return f"intersection nodes escape the union: {inter_nodes - union_nodes!r}"
    if not inter_edges <= union_edges:
        return f"intersection edges escape the union: {inter_edges - union_edges!r}"
    return None


@register_law(
    "projection-within-intersection",
    "project(T1 | T2) entities are a subset of intersection(T1, T2)'s",
)
def _projection_within_intersection(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    window = ordered_times(graph, w1, w2)
    proj_nodes, proj_edges = _entity_sets(project(graph, window))
    inter_nodes, inter_edges = _entity_sets(intersection(graph, w1, w2))
    if not proj_nodes <= inter_nodes:
        return f"projected nodes escape the intersection: {proj_nodes - inter_nodes!r}"
    if not proj_edges <= inter_edges:
        return f"projected edges escape the intersection: {proj_edges - inter_edges!r}"
    return None


@register_law(
    "difference-disjoint",
    "T1-T2, T2-T1 and the intersection have pairwise disjoint edge sets",
)
def _difference_disjoint(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    d12 = set(difference(graph, w1, w2).edges)
    d21 = set(difference(graph, w2, w1).edges)
    both = set(intersection(graph, w1, w2).edges)
    overlaps = (d12 & d21) | (d12 & both) | (d21 & both)
    if overlaps:
        return f"edge sets not pairwise disjoint: {sorted(overlaps)!r}"
    return None


@register_law(
    "union-partition",
    "union edges = intersection edges + (T1-T2) edges + (T2-T1) edges",
)
def _union_partition(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    whole = set(union(graph, w1, w2).edges)
    parts = (
        set(intersection(graph, w1, w2).edges)
        | set(difference(graph, w1, w2).edges)
        | set(difference(graph, w2, w1).edges)
    )
    if whole != parts:
        return (
            f"union edges {sorted(whole ^ parts)!r} not covered exactly by "
            "the three-way partition"
        )
    return None


def _rows_problem(graph: TemporalGraph) -> str | None:
    """How ``graph``'s endpoint rows differ from rows resolved from its
    labels (dtype included); ``None`` when they do not."""
    rows = graph.storage.endpoint_rows()
    expected = resolve_endpoint_rows(graph.nodes, graph.edges)
    for got, want in zip(rows, expected):
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return (
                f"endpoint rows diverge from rows resolved from labels: "
                f"{got.tolist()} != {want.tolist()}"
            )
    return None


def _cells_problem(graph: TemporalGraph) -> str | None:
    """How the cell index ``graph`` holds differs, decoded, from one
    built from its frames; ``None`` when it does not."""
    if graph._cell_index().decoded() != build_cells(graph).decoded():
        return (
            f"cell index over {graph.timeline.labels!r} diverges from one "
            "built from its frames"
        )
    return None


def _view_outcomes(
    graph: TemporalGraph,
    attributes: list[str],
    old: Sequence[Any],
    new: Sequence[Any],
) -> list[Any]:
    """DIST and ALL aggregates and the evolution from ``old`` to ``new``
    over ``graph``, each as its result or its error's type and message."""
    outcomes: list[Any] = []
    for call in (
        functools.partial(aggregate, graph, attributes, True),
        functools.partial(aggregate, graph, attributes, False),
        functools.partial(aggregate_evolution, graph, old, new, attributes),
    ):
        try:
            outcomes.append(call())
        except GraphTempoError as error:
            outcomes.append((type(error).__name__, str(error)))
    return outcomes


def _view_problem(view: TemporalGraph, rng: np.random.Generator) -> str | None:
    """How reading a fresh view through its source's index differs from
    reading the view rebuilt from scratch, or how its frames, once built,
    differ from copies of its source's; ``None`` when neither does."""
    source = view._carried.source
    attributes = _some_attributes(rng, view)
    old, new = random_time_sets(rng, view, n=2)
    got = _view_outcomes(view, attributes, old, new)
    # Only an error (a dangling edge) names labels, so builds the frames.
    failed = any(isinstance(outcome, tuple) for outcome in got)
    if not failed and (view._frames is not None or view._carried.cells is not None):
        return f"aggregating a view over {view.timeline.labels!r} built its frames or index"
    scratch = graph_from_maps(
        **graph_to_maps(view), allow_dangling=True, storage=view.storage_name
    )
    # A rebuilt graph lacks an attribute no node holds a value of.
    usable = [name for name in attributes if name in scratch.attribute_names]
    if usable != attributes:
        got = _view_outcomes(view, usable, old, new) if usable else []
    want = _view_outcomes(scratch, usable, old, new) if usable else []
    if got != want:
        return (
            f"reading a view over {view.timeline.labels!r} by {usable!r} "
            f"diverges from its rebuilt graph: {got!r} != {want!r}"
        )
    if source is None:
        return "a fresh view holds no source"
    owner, times = source.graph, view.timeline.labels
    copies = [
        (view.node_presence, owner.node_presence.take(source.node_rows, times)),
        (view.edge_presence, owner.edge_presence.take(source.edge_rows, times)),
        (view.static_attrs, owner.static_attrs.take(source.node_rows)),
    ]
    copies += [
        (frame, owner.varying_attrs[name].take(source.node_rows, times))
        for name, frame in view.varying_attrs.items()
    ]
    if owner.edge_attrs is not None:
        copies.append((view.edge_attrs, owner.edge_attrs.take(source.edge_rows)))
    for frame, copy in copies:
        if (
            frame != copy
            or frame.row_labels != copy.row_labels
            or frame.values.dtype != copy.values.dtype
        ):
            return f"a view over {times!r} built frames unlike copies of its source's"
    return None


@register_law(
    "operator-cell-index",
    "an operator result derives its cell index and endpoint rows from its "
    "input's, equal to those built from its own frames, two operators deep; "
    "aggregates and evolutions over a fresh result, read through its "
    "input's index, equal those over the result rebuilt from scratch, as "
    "do its frames once built",
)
def _operator_cell_index(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)

    def operator_results() -> list[TemporalGraph]:
        return [
            union(graph, w1, w2),
            intersection(graph, w1, w2),
            difference(graph, w1, w2),
            project(graph, w1[:1]),
        ]

    results = operator_results()
    # One operator deeper: the first result's index is derived first.
    deeper = int(rng.integers(len(results)))
    nested = results[deeper]
    labels = nested.timeline.labels
    results.append(difference(nested, labels[:1], labels[1:]))
    for result in results:
        problem = _cells_problem(result) or _rows_problem(result)
        if problem:
            return problem
    # Fresh views, each read before it builds anything: each result, one
    # two operators deep and one take of random rows, which may keep an
    # edge without its endpoints, in any order.
    views = operator_results()
    for view in views:
        problem = _view_problem(view, rng)
        if problem:
            return problem
    problem = _view_problem(difference(views[deeper], labels[:1], labels[1:]), rng)
    if problem:
        return problem
    node_rows = np.flatnonzero(rng.random(graph.n_nodes) < 0.7)
    edge_rows = np.flatnonzero(rng.random(graph.n_edges) < 0.7)
    if rng.random() < 0.5:
        node_rows = rng.permutation(node_rows)
    return _view_problem(graph.take(node_rows, edge_rows, _one_window(rng, graph)), rng)


# ----------------------------------------------------------------------
# Aggregation laws (Definition 2.6, Section 4.3)
# ----------------------------------------------------------------------


@register_law(
    "distinct-le-all",
    "every DIST weight is bounded by its ALL weight (Definition 2.6)",
    hostile_safe=False,
)
def _distinct_le_all(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    attrs = _some_attributes(rng, graph)
    window = _one_window(rng, graph)
    dist = aggregate(graph, attrs, distinct=True, times=window)
    full = aggregate(graph, attrs, distinct=False, times=window)
    for kind, ours, theirs in (
        ("node", dist.node_weights, full.node_weights),
        ("edge", dist.edge_weights, full.edge_weights),
    ):
        for key, weight in ours.items():
            if weight > theirs.get(key, 0):  # type: ignore[call-overload]
                return (
                    f"{kind} {key!r}: DIST {weight} exceeds "
                    f"ALL {theirs.get(key, 0)}"  # type: ignore[call-overload]
                )
    return None


@register_law(
    "single-point-dist-equals-all",
    "at one time point DIST and ALL aggregation coincide",
    hostile_safe=False,
)
def _single_point_dist_equals_all(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    point = [_random_point(rng, graph)]
    dist = aggregate(graph, attrs, distinct=True, times=point)
    full = aggregate(graph, attrs, distinct=False, times=point)
    if dict(dist.node_weights) != dict(full.node_weights):
        return f"node weights differ at single point {point!r}"
    if dict(dist.edge_weights) != dict(full.edge_weights):
        return f"edge weights differ at single point {point!r}"
    return None


@register_law(
    "all-sums-over-points",
    "ALL aggregation over a window is the pointwise sum of its points "
    "(T-distributivity, Section 4.3)",
    hostile_safe=False,
)
def _all_sums_over_points(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    window = _one_window(rng, graph)
    whole = aggregate(graph, attrs, distinct=False, times=window)
    total = None
    for t in window:
        point = aggregate(graph, attrs, distinct=False, times=[t])
        total = point if total is None else total.combine(point)
    assert total is not None
    problems = whole.diff(total)
    if problems:
        return f"pointwise sums diverge over {window!r}: {problems[0]}"
    return None


@register_law(
    "attribute-permutation",
    "permuting the attribute list permutes keys without changing weights",
    hostile_safe=False,
)
def _attribute_permutation(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    names = list(graph.attribute_names)
    if len(names) < 2:
        return None
    attrs = _some_attributes(rng, graph)
    if len(attrs) < 2:
        attrs = names[:2]
    perm = [attrs[i] for i in rng.permutation(len(attrs))]
    if perm == attrs:
        perm = list(reversed(attrs))
    distinct = bool(rng.integers(2))
    window = _one_window(rng, graph)
    base = aggregate(graph, attrs, distinct=distinct, times=window)
    permuted = aggregate(graph, perm, distinct=distinct, times=window)
    positions = [attrs.index(p) for p in perm]

    def remap(key: tuple) -> tuple:
        return tuple(key[p] for p in positions)

    expected_nodes = {remap(k): w for k, w in base.node_weights.items()}
    if expected_nodes != dict(permuted.node_weights):
        return f"node weights not permutation-covariant for {perm!r}"
    expected_edges = {
        (remap(s), remap(t)): w for (s, t), w in base.edge_weights.items()
    }
    if expected_edges != dict(permuted.edge_weights):
        return f"edge weights not permutation-covariant for {perm!r}"
    return None


@register_law(
    "duplicate-times-invariant",
    "duplicated/unordered time arguments normalize to the same result",
    hostile_safe=False,
)
def _duplicate_times_invariant(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    hostile = random_time_sets(rng, graph, n=1, hostile=True)[0]
    normalized = ordered_times(graph, hostile)
    if presence_signature(union(graph, hostile)) != presence_signature(
        union(graph, normalized)
    ):
        return f"union differs for duplicated times {hostile!r}"
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    problems = aggregate(graph, attrs, distinct=distinct, times=hostile).diff(
        aggregate(graph, attrs, distinct=distinct, times=normalized)
    )
    if problems:
        return f"aggregate differs for duplicated times {hostile!r}: {problems[0]}"
    return None


@register_law(
    "aggregate-union-in-place",
    "aggregating the union graph equals aggregating in place over T1 | T2",
    hostile_safe=False,
)
def _aggregate_union_in_place(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    w1, w2 = random_time_sets(rng, graph, n=2)
    window = ordered_times(graph, w1, w2)
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    on_union = aggregate(union(graph, w1, w2), attrs, distinct=distinct)
    in_place = aggregate(graph, attrs, distinct=distinct, times=window)
    problems = on_union.diff(in_place)
    if problems:
        return f"union-graph aggregation diverges over {window!r}: {problems[0]}"
    return None


@register_law(
    "aggregate-project-point",
    "aggregating the single-point projection equals aggregating that point",
    hostile_safe=False,
)
def _aggregate_project_point(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    point = _random_point(rng, graph)
    attrs = _some_attributes(rng, graph)
    distinct = bool(rng.integers(2))
    projected = aggregate(project(graph, [point]), attrs, distinct=distinct)
    in_place = aggregate(graph, attrs, distinct=distinct, times=[point])
    problems = projected.diff(in_place)
    if problems:
        return f"projection aggregation diverges at {point!r}: {problems[0]}"
    return None


# ----------------------------------------------------------------------
# Evolution laws (Definition 2.7, Fig. 4b)
# ----------------------------------------------------------------------


@register_law(
    "evolution-partition",
    "stability+shrinkage recovers the old window's DIST aggregate, "
    "stability+growth the new one's",
    hostile_safe=False,
)
def _evolution_partition(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    old, new = random_time_sets(rng, graph, n=2)
    ev = aggregate_evolution(graph, old, new, attrs)
    for window, pick in ((old, "shrinkage"), (new, "growth")):
        dist = aggregate(graph, attrs, distinct=True, times=window)
        keys = set(ev.node_weights) | set(dist.node_weights)
        for key in keys:
            weights = ev.node(key)
            expected = dist.node_weights.get(key, 0)  # type: ignore[call-overload]
            got = weights.stability + getattr(weights, pick)
            if got != expected:
                return (
                    f"node {key!r}: stability+{pick}={got} but DIST over "
                    f"{window!r} is {expected}"
                )
        edge_keys = set(ev.edge_weights) | set(dist.edge_weights)
        for key in edge_keys:
            weights = ev.edge(key[0], key[1])
            expected = dist.edge_weights.get(key, 0)  # type: ignore[call-overload]
            got = weights.stability + getattr(weights, pick)
            if got != expected:
                return (
                    f"edge {key!r}: stability+{pick}={got} but DIST over "
                    f"{window!r} is {expected}"
                )
    return None


@register_law(
    "evolution-symmetry",
    "swapping the intervals swaps growth and shrinkage, stability fixed",
)
def _evolution_symmetry(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = _some_attributes(rng, graph)
    old, new = random_time_sets(rng, graph, n=2)
    forward = aggregate_evolution(graph, old, new, attrs)
    backward = aggregate_evolution(graph, new, old, attrs)
    for kind, ours, theirs in (
        ("node", forward.node_weights, backward.node_weights),
        ("edge", forward.edge_weights, backward.edge_weights),
    ):
        for key in set(ours) | set(theirs):
            a = ours.get(key, EvolutionWeights())  # type: ignore[call-overload]
            b = theirs.get(key, EvolutionWeights())  # type: ignore[call-overload]
            if (a.stability, a.growth, a.shrinkage) != (
                b.stability,
                b.shrinkage,
                b.growth,
            ):
                return f"{kind} {key!r}: {a} is not the mirror of {b}"
    return None


# ----------------------------------------------------------------------
# Exploration laws (Section 3)
# ----------------------------------------------------------------------

#: (event, extend) pairs whose counts are monotone along extension
#: chains: non-decreasing under union semantics, non-increasing under
#: intersection — the Table-1 rows U-/I-Explore pruning relies on.
_MONOTONE_CASES = (
    (EventType.STABILITY, ExtendSide.OLD),
    (EventType.STABILITY, ExtendSide.NEW),
    (EventType.GROWTH, ExtendSide.NEW),
    (EventType.SHRINKAGE, ExtendSide.OLD),
)


@register_law(
    "lattice-monotone",
    "event counts are monotone along semi-lattice extension chains",
)
def _lattice_monotone(graph: TemporalGraph, rng: np.random.Generator) -> str | None:
    n_times = len(graph.timeline)
    if n_times < 2:
        return None
    event, extend = _MONOTONE_CASES[int(rng.integers(len(_MONOTONE_CASES)))]
    entity = (
        EntityKind.NODES if rng.integers(2) else EntityKind.EDGES
    )
    evaluator = ChainEvaluator(EventCounter(graph, entity=entity), event)
    # The production walk's unpruned counts of the reference's chain,
    # walked alone or as the last of every chain up to it.
    batched = bool(rng.integers(2))
    reference = int(rng.integers(n_times - 1))
    start = 0 if batched else reference
    for semantics, keep in (
        (Semantics.UNION, lambda prev, cur: cur >= prev),
        (Semantics.INTERSECTION, lambda prev, cur: cur <= prev),
    ):
        walk = evaluator.walk_counts(start, reference + 1, extend, semantics)
        counts = [int(c[-1]) for _, live, c, _ in walk if live[-1] == reference - start]
        for prev, cur in zip(counts, counts[1:]):
            if not keep(prev, cur):
                return (
                    f"{event}/{extend} counts {counts!r} not monotone under "
                    f"{semantics} from reference {reference}"
                )
    return None


@register_law(
    "event-counts-match-operators",
    "event counts equal the sizes of the matching operator graphs, and "
    "attributed or keyed counts their DIST weights; over a dangling edge, "
    "an edge count that reads endpoint attributes raises",
)
def _event_counts_match_operators(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    n_times = len(graph.timeline)
    if n_times < 2:
        return None

    def random_side() -> Side:
        start = int(rng.integers(n_times))
        stop = int(rng.integers(start, n_times))
        return Side(Interval(start, stop), Semantics.UNION)

    old, new = random_side(), random_side()
    old_labels = old.labels(graph.timeline)
    new_labels = new.labels(graph.timeline)
    operators = {
        EventType.STABILITY: intersection(graph, old_labels, new_labels),
        EventType.GROWTH: difference(graph, new_labels, old_labels),
        EventType.SHRINKAGE: difference(graph, old_labels, new_labels),
    }
    cases = [(EntityKind.EDGES, event) for event in operators]
    cases.append((EntityKind.NODES, EventType.STABILITY))
    for entity, event in cases:
        counted = EventCounter(graph, entity).count(event, old, new)
        size = getattr(operators[event], f"n_{entity}")
        if counted != size:
            return (
                f"{event} {entity} count {counted} != operator graph size "
                f"{size} for {old}/{new}"
            )
    # Attributed counts: static, time-varying or mixed attributes; no
    # key, a key drawn from the graph, and an unseen key.
    attrs = _some_attributes(rng, graph)
    unseen = ("<unseen>",) * len(attrs)
    try:
        check_no_dangling_edges(graph)
    except AggregationError:
        keys: list[Any] = [(unseen, unseen)]
        if not all(graph.is_static(name) for name in attrs):
            keys.append(None)  # time-varying tuples read endpoints unkeyed
        for key in keys:
            try:
                EventCounter(graph, EntityKind.EDGES, attrs, key)
            except ExplorationError:
                continue
            return f"edge count by {attrs!r} key {key!r} ignored a dangling edge"
        return None
    whole = aggregate_reference(graph, attrs)
    for entity, event in cases:
        nodes = entity is EntityKind.NODES
        result = aggregate_reference(operators[event], attrs)
        weights: Mapping[Any, int] = (
            result.node_weights if nodes else result.edge_weights
        )
        pool: Mapping[Any, int] = whole.node_weights if nodes else whole.edge_weights
        drawn = sorted(pool, key=repr)
        keys = [None, unseen if nodes else (unseen, unseen)]
        keys += [drawn[int(rng.integers(len(drawn)))]] if drawn else []
        shared = EventCounter(graph, entity, attrs)
        for key in keys:
            # A key bound to the shared index, or a counter built for it.
            counter = (
                shared.with_key(key)
                if rng.integers(2)
                else EventCounter(graph, entity, attrs, key)
            )
            counted = counter.count(event, old, new)
            expected = sum(weights.values()) if key is None else weights.get(key, 0)
            if counted != expected:
                return (
                    f"{event} {entity} count by {attrs!r} key {key!r} is "
                    f"{counted}, DIST weight {expected} for {old}/{new}"
                )
    return None


# ----------------------------------------------------------------------
# Granularity laws (Section 4.2)
# ----------------------------------------------------------------------


@register_law(
    "coarsen-union-consistency",
    "a union-coarsened unit aggregates like its member window",
    hostile_safe=False,
)
def _coarsen_union_consistency(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = list(graph.static_attribute_names)
    if not attrs:
        return None
    labels = graph.timeline.labels
    width = int(rng.integers(1, len(labels) + 1))
    hierarchy = TimeHierarchy.regular(labels, width)
    coarse = coarsen(graph, hierarchy, "union")
    units = hierarchy.unit_labels
    unit = units[int(rng.integers(len(units)))]
    on_coarse = aggregate(coarse, attrs, distinct=True, times=[unit])
    on_base = aggregate(
        graph, attrs, distinct=True, times=hierarchy.members(unit)
    )
    if dict(on_coarse.node_weights) != dict(on_base.node_weights):
        return f"unit {unit!r}: coarse node weights diverge from member window"
    if dict(on_coarse.edge_weights) != dict(on_base.edge_weights):
        return f"unit {unit!r}: coarse edge weights diverge from member window"
    return None


# ----------------------------------------------------------------------
# Analyzer self-law: linting is deterministic and read-only
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _lint_determinism_verdict() -> str | None:
    """Lint ``src/repro`` twice; compare violations and file stats.

    Cached so the (comparatively expensive) double pass runs once per
    process no matter how many fuzz cases invoke the law.
    """
    import repro
    from ..lint import lint_paths, load_config

    package_dir = Path(repro.__file__).parent
    pyproject = package_dir.parent.parent / "pyproject.toml"
    config = load_config(pyproject if pyproject.is_file() else None)
    root = package_dir.parent.parent

    def stats() -> dict[str, tuple[int, int]]:
        return {
            str(path): (path.stat().st_mtime_ns, path.stat().st_size)
            for path in sorted(package_dir.rglob("*.py"))
        }

    before = stats()
    first = lint_paths([package_dir], config, root=root)
    second = lint_paths([package_dir], config, root=root)
    after = stats()
    if first != second:
        return (
            f"lint is nondeterministic: {len(first)} violations on the "
            f"first pass, {len(second)} on the second"
        )
    if before != after:
        changed = sorted(
            path for path in before
            if before[path] != after.get(path)
        )
        return f"lint mutated source files: {changed[:3]}"
    return None


@register_law(
    "lint-deterministic-readonly",
    "a lint pass over src/repro is deterministic and mutates no files",
)
def _lint_deterministic_readonly(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    del graph, rng  # the analyzer's input is the source tree itself
    return _lint_determinism_verdict()


# ----------------------------------------------------------------------
# Streaming replay identity (ROADMAP item 1)
# ----------------------------------------------------------------------


def _label_frames(graph: TemporalGraph) -> list[Any]:
    """Every labeled frame of a graph."""
    frames = [graph.node_presence, graph.static_attrs, graph.edge_presence]
    frames += graph.varying_attrs.values()
    return frames if graph.edge_attrs is None else [*frames, graph.edge_attrs]


def _frame_copies(graph: TemporalGraph) -> list[np.ndarray]:
    """A copy of every frame array of a graph."""
    return [frame.values.copy() for frame in _label_frames(graph)]


def _frames_changed(graph: TemporalGraph, copies: list[np.ndarray]) -> bool:
    """Whether a frame array of ``graph`` differs from its copy in any
    bit; an object cell must hold the very same object."""
    return any(
        array.dtype != copy.dtype
        or array.shape != copy.shape
        or array.tobytes() != copy.tobytes()
        for array, copy in zip(
            (frame.values for frame in _label_frames(graph)), copies, strict=True
        )
    )


def _row_axes(graph: TemporalGraph) -> tuple[Any, ...]:
    """What a graph's row axes read now: its node and edge labels, each
    label's row, and the endpoint rows it holds (``None`` if none)."""
    axes: list[Any] = []
    for frame in (graph.node_presence, graph.edge_presence):
        labels = tuple(frame._rows())
        axes += [labels, frame.row_labels, [frame.row_position(label) for label in labels]]
    rows = graph._resolved_endpoint_rows()
    axes.append(None if rows is None else [side.tolist() for side in rows])
    return tuple(axes)


def _carried_state_problem(
    parent: TemporalGraph, child: TemporalGraph
) -> str | None:
    """How the state ``append_snapshot`` carried into ``child`` differs
    from the state rebuilt from its labels and frames, or how the append
    changed ``parent``; ``None`` when it did neither.  ``parent`` holds a
    cell index, so ``child`` must have been handed one."""
    if child._carried.cells is None:
        return f"no cell index was carried to {child.timeline.labels[-1]!r}"
    problem = _rows_problem(child) or _cells_problem(child)
    if problem:
        return f"at {child.timeline.labels[-1]!r}: {problem}"
    for frame in _label_frames(child):
        for position, label in enumerate(frame.row_labels):
            if frame.row_position(label) != position:
                return f"row index maps {label!r} to {frame.row_position(label)}"
    parent_labels = set(parent.nodes) | set(parent.edges)
    arrived = [
        label
        for label in (*child.nodes, *child.edges)
        if label not in parent_labels
    ]
    for frame in _label_frames(parent):
        leaked = [label for label in arrived if frame.has_row(label)]
        if leaked:
            return f"the parent version's row index gained {leaked[0]!r}"
    return None


@register_law(
    "streaming-replay-identity",
    "replaying split_history through a StreamingStore rebuilds the graph "
    "bit-exactly, publishes one monotonic version per append, keeps "
    "delta-maintained totals equal to the direct aggregate, and carries "
    "endpoint rows, row indexes and the cell index equal to those rebuilt "
    "from labels and frames, leaving the parent's index, labels, row "
    "indexes, endpoint rows and every bit of its frames unchanged, also "
    "after a sibling append",
    hostile_safe=False,
)
def _streaming_replay_identity(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    attrs = tuple(_some_attributes(rng, graph))
    initial, updates = split_history(graph)
    totals = AggregateTotalsView([attrs])
    store = StreamingStore(initial, views=[totals])
    fired: list[int] = []
    store.on_append(lambda version: fired.append(version.version))
    # Each parent's frames and row axes, copied before it was appended to.
    frames: list[list[np.ndarray]] = []
    axes: list[tuple[Any, ...]] = []
    for update in updates:
        parent = store.graph
        before = parent._cell_index().decoded()
        frames.append(_frame_copies(parent))
        axes.append(_row_axes(parent))
        store.append_snapshot(update)
        problem = _carried_state_problem(parent, store.graph)
        if problem:
            return problem
        if parent._cell_index().decoded() != before:
            return f"appending {update.time!r} changed the parent's cell index"
        if _frames_changed(parent, frames[-1]):
            return f"appending {update.time!r} changed the parent's frames"
        if _row_axes(parent) != axes[-1]:
            return f"appending {update.time!r} changed the parent's row axes"
    if graph_to_maps(store.graph) != graph_to_maps(graph):
        return "replayed graph diverges from the original"
    if store.version != len(updates) or fired != list(range(1, len(updates) + 1)):
        return (
            f"append versions not monotonic: latest {store.version}, "
            f"hooks saw {fired!r}"
        )
    direct = aggregate(graph, list(attrs), distinct=False)
    problems = totals.union_total(attrs).diff(direct)
    if problems:
        return f"delta-maintained union total diverges: {problems[0]}"
    if len(updates) > 1:
        # Siblings with other content: of version 1, off the initial
        # version, no longer its cell index's tip; and of version 2, off
        # version 1, no longer its frame buffers' tip (the initial
        # version's frames are its own).  The replay must not change.
        last = updates[-1]
        for version in (0, 1):
            append_snapshot(
                store.at_version(version).graph,
                SnapshotUpdate(
                    updates[version].time,
                    last.nodes,
                    last.static,
                    last.edges,
                    last.edge_attrs,
                ),
            )
        for version, copies in enumerate(frames):
            replayed = store.at_version(version).graph
            problem = _cells_problem(replayed)
            if problem:
                return f"a sibling append changed version {version}: {problem}"
            if _frames_changed(replayed, copies):
                return f"a sibling append changed the frames of version {version}"
            if _row_axes(replayed) != axes[version]:
                return f"a sibling append changed the row axes of version {version}"
    # The same frozen updates must replay a second time verbatim — the
    # regression the SnapshotUpdate freeze exists for.
    # No reads between these appends: rows carry from version to version
    # without any backend being built.  The replay branches off the
    # initial version, which is no longer its buffers' tip, so its cell
    # index is copied before it is extended, and the first replay's
    # versions must read what they read before.
    second = StreamingStore(initial)
    for update in updates:
        second.append_snapshot(update)
    if graph_to_maps(second.graph) != graph_to_maps(store.graph):
        return "second replay of the same updates diverges (updates not frozen?)"
    return _carried_state_problem(
        second.at_version(0).graph, second.graph
    ) or _cells_problem(store.graph)


@register_law(
    "streaming-evolution-delta",
    "an EvolutionView extended one appended point at a time equals the "
    "from-scratch evolution aggregate over the same windows",
    hostile_safe=False,
)
def _streaming_evolution_delta(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    labels = graph.timeline.labels
    if len(labels) < 2:
        return None
    attrs = _some_attributes(rng, graph)
    split = int(rng.integers(1, len(labels)))
    initial, updates = split_history(graph)
    store = StreamingStore(initial)
    for update in updates[: split - 1]:
        store.append_snapshot(update)
    view = EvolutionView(attrs)
    store.register_view(view)
    for update in updates[split - 1 :]:
        store.append_snapshot(update)
    direct = aggregate_evolution(graph, labels[:split], labels[split:], attrs)
    problems = view.current().diff(direct)
    if problems:
        return (
            f"delta-maintained evolution diverges at split {split}: "
            f"{problems[0]}"
        )
    return None


@register_law(
    "streaming-exploration-delta",
    "an ExplorationView grown one OR/AND per appended point matches "
    "the per-pair reference chain over the final graph, early masks padded "
    "for entities that did not exist yet",
    hostile_safe=False,
)
def _streaming_exploration_delta(
    graph: TemporalGraph, rng: np.random.Generator
) -> str | None:
    labels = graph.timeline.labels
    if len(labels) < 2:
        return None
    event = tuple(EventType)[int(rng.integers(3))]
    semantics = Semantics.UNION if rng.integers(2) else Semantics.INTERSECTION
    entity = EntityKind.EDGES if rng.integers(2) else EntityKind.NODES
    static_names = [a for a in graph.attribute_names if graph.is_static(a)]
    attrs: list[str] = []
    key = None
    if static_names and rng.integers(2):
        attrs = [static_names[int(rng.integers(len(static_names)))]]
        if rng.integers(2):
            column = graph.static_attrs.column(attrs[0])
            value = column[int(rng.integers(len(column)))]
            key = (
                ((value,), (value,))
                if entity is EntityKind.EDGES
                else (value,)
            )
    reference = int(rng.integers(0, len(labels) - 1))
    initial, updates = split_history(graph)
    store = StreamingStore(initial)
    for update in updates[:reference]:
        store.append_snapshot(update)
    view = ExplorationView(
        event, semantics, entity, attributes=attrs, key=key
    )
    store.register_view(view)
    for update in updates[reference:]:
        store.append_snapshot(update)
    counter = EventCounter(store.graph, entity, attrs, key)
    chain = list(
        reference_chain(counter, event, reference, ExtendSide.NEW, semantics)
    )
    steps = view.steps()
    if len(chain) != len(steps):
        return f"step counts diverge: {len(chain)} != {len(steps)}"
    for i, (expected, got) in enumerate(zip(chain, steps)):
        if (expected.old, expected.new) != (got.old, got.new):
            return f"step {i} sides diverge: {(got.old, got.new)!r}"
        if expected.count != got.count:
            return (
                f"step {i} counts diverge: expected {expected.count}, "
                f"view kept {got.count}"
            )
        padded = np.zeros(expected.mask.shape[0], dtype=bool)
        padded[: got.mask.shape[0]] = got.mask
        if not np.array_equal(expected.mask, padded):
            return f"step {i} masks diverge"
    return None
