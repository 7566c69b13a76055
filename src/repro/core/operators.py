"""Temporal operators: project, union, intersection, difference.

These implement Definitions 2.2-2.5 of the paper over the labeled-array
storage of :class:`~repro.core.graph.TemporalGraph`, following the
selection rules of Section 4.1:

* **union** keeps a row if any presence cell over ``T1 | T2`` is 1;
* **intersection** keeps a row if it is present at some point of ``T1``
  *and* some point of ``T2``;
* **difference** ``T1 - T2`` keeps an edge if present somewhere in ``T1``
  and nowhere in ``T2``; a node qualifies if present in ``T1`` and either
  absent throughout ``T2`` or incident to a kept edge (Definition 2.5).

All operators return new :class:`TemporalGraph` instances whose timeline
is the ordered union of the input time sets (for the difference: ``T1``),
with every attribute array restricted consistently.  An operator costs
its presence masks: the result is a view (:meth:`TemporalGraph.take`)
that builds its frames only when something reads them.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from .graph import TemporalGraph
from .intervals import TimeSet
from ..errors import TemporalError
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "project",
    "union",
    "intersection",
    "difference",
    "ordered_times",
    "presence_signature",
]


def ordered_times(
    graph: TemporalGraph, *time_sets: Iterable[Hashable]
) -> TimeSet:
    """The union of the given time sets, ordered by the graph's timeline.

    Validates every label against the timeline, so a typo'd time point
    fails loudly instead of silently selecting nothing.
    """
    wanted = set()
    for time_set in time_sets:
        for label in time_set:
            graph.timeline.index_of(label)
            wanted.add(label)
    return tuple(t for t in graph.timeline.labels if t in wanted)


def presence_signature(
    graph: TemporalGraph,
) -> tuple[
    dict[Hashable, tuple[Hashable, ...]],
    dict[Hashable, tuple[Hashable, ...]],
]:
    """Canonical ``(node -> active times, edge -> active times)`` maps.

    Two operator results are observably equal iff their signatures are —
    regardless of row storage order.  The metamorphic laws of
    :mod:`repro.testing` compare operator algebra (commutativity,
    idempotence, the union partition of Definition 2.7) through this
    helper instead of positional array equality.
    """
    times = graph.timeline.labels
    node_map: dict[Hashable, tuple[Hashable, ...]] = {}
    node_values = graph.node_presence.values
    for row, node in enumerate(graph.node_presence.row_labels):
        node_map[node] = tuple(
            t for t, flag in zip(times, node_values[row]) if flag
        )
    edge_map: dict[Hashable, tuple[Hashable, ...]] = {}
    edge_values = graph.edge_presence.values
    for row, edge in enumerate(graph.edge_presence.row_labels):
        edge_map[edge] = tuple(
            t for t, flag in zip(times, edge_values[row]) if flag
        )
    return node_map, edge_map


def _restrict_by_masks(
    graph: TemporalGraph,
    node_mask: np.ndarray,
    edge_mask: np.ndarray,
    times: TimeSet,
) -> TemporalGraph:
    return graph.take(np.flatnonzero(node_mask), np.flatnonzero(edge_mask), times)


def project(graph: TemporalGraph, times: Iterable[Hashable]) -> TemporalGraph:
    """Time projection (Definition 2.2).

    Keeps the nodes and edges that exist throughout ``times``
    (``T1 ⊆ tau(u)``) and restricts every array to those columns.
    """
    window = ordered_times(graph, times)
    if not window:
        raise TemporalError("cannot project onto an empty time set")
    get_metrics().inc("operators.project")
    with trace_span("operator.project", n_times=len(window)):
        node_mask = graph.presence_mask("nodes", window, "all")
        edge_mask = graph.presence_mask("edges", window, "all")
        return _restrict_by_masks(graph, node_mask, edge_mask, window)


def union(
    graph: TemporalGraph,
    t1: Iterable[Hashable],
    t2: Iterable[Hashable] = (),
) -> TemporalGraph:
    """Union graph (Definition 2.3): entities existing at any instant of
    ``T1`` or ``T2``.

    ``t2`` may be empty, in which case this is the *window* over ``t1``
    alone — the building block the union semi-lattice of Section 3.1 uses
    to extend one side of an interval pair.
    """
    window = ordered_times(graph, t1, t2)
    if not window:
        raise TemporalError("cannot take the union over an empty time set")
    get_metrics().inc("operators.union")
    with trace_span("operator.union", n_times=len(window)):
        node_mask = graph.presence_mask("nodes", window, "any")
        edge_mask = graph.presence_mask("edges", window, "any")
        return _restrict_by_masks(graph, node_mask, edge_mask, window)


def intersection(
    graph: TemporalGraph,
    t1: Iterable[Hashable],
    t2: Iterable[Hashable],
) -> TemporalGraph:
    """Intersection graph (Definition 2.4): entities existing at some
    instant of ``T1`` *and* some instant of ``T2``.

    The result's timeline is ``T1 | T2`` and presence rows keep
    ``tau(e) ∩ (T1 | T2)``, exactly as the definition prescribes.
    """
    first = ordered_times(graph, t1)
    second = ordered_times(graph, t2)
    if not first or not second:
        raise TemporalError("intersection requires two non-empty time sets")
    get_metrics().inc("operators.intersection")
    with trace_span("operator.intersection", n_times=len(first) + len(second)):
        window = ordered_times(graph, first, second)
        node_mask = graph.presence_mask("nodes", first) & graph.presence_mask(
            "nodes", second
        )
        edge_mask = graph.presence_mask("edges", first) & graph.presence_mask(
            "edges", second
        )
        return _restrict_by_masks(graph, node_mask, edge_mask, window)


def difference(
    graph: TemporalGraph,
    t1: Iterable[Hashable],
    t2: Iterable[Hashable],
) -> TemporalGraph:
    """Difference graph ``T1 - T2`` (Definition 2.5).

    Edges: present somewhere in ``T1`` and nowhere in ``T2`` (deleted, if
    ``T1`` precedes ``T2``; new, in the ``T2 - T1`` orientation).  Nodes:
    present somewhere in ``T1`` and either absent throughout ``T2`` or an
    endpoint of a kept edge — the second disjunct keeps the result a
    well-formed graph whose edges have both endpoints.

    The result is defined on ``T1``: presence and attribute arrays keep
    ``tau ∩ T1`` only (``tau_u-(u) = tau_u(u) ∩ T1``).
    """
    first = ordered_times(graph, t1)
    second = ordered_times(graph, t2)
    if not first:
        raise TemporalError("difference requires a non-empty left time set")
    get_metrics().inc("operators.difference")
    with trace_span("operator.difference", n_times=len(first) + len(second)):
        edge_mask = graph.presence_mask("edges", first) & graph.presence_mask(
            "edges", second, "none"
        )
        src, dst = graph.storage.endpoint_rows()
        endpoints = np.concatenate([src[edge_mask], dst[edge_mask]])
        endpoint_mask = np.zeros(graph.n_nodes, dtype=bool)
        endpoint_mask[endpoints[endpoints >= 0]] = True
        node_mask = graph.presence_mask("nodes", first) & (
            graph.presence_mask("nodes", second, "none") | endpoint_mask
        )
        return _restrict_by_masks(graph, node_mask, edge_mask, first)
