"""Appending new time points to a temporal graph.

Evolving graphs grow at the end of their timeline; re-generating the
whole graph per tick would defeat the paper's materialization story.
:func:`append_snapshot` extends a :class:`TemporalGraph` with one new
time point — new nodes, returning nodes, their time-varying values, and
the snapshot's edges — producing a new graph value (inputs are never
mutated).  :class:`repro.materialize.IncrementalStore` builds on this to
keep per-point aggregates and running union totals current as the graph
grows.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..frames import LabeledFrame
from .graph import EdgeId, NodeId, TemporalGraph
from .intervals import Timeline
from ..errors import UnknownLabelError, ValidationError

__all__ = ["SnapshotUpdate", "append_snapshot", "snapshot_at", "split_history"]


@dataclass(frozen=True)
class SnapshotUpdate:
    """One new time point's content.

    Parameters
    ----------
    time:
        The new time-point label; must not already be on the timeline.
    nodes:
        ``node id -> {varying attribute: value}`` for every node present
        at the new time point (an empty dict for nodes of a graph
        without time-varying attributes).
    static:
        Static attribute values for nodes appearing for the *first*
        time; values for known nodes are ignored (static values cannot
        change) but attribute *names* are always validated.
    edges:
        Directed edges active at the new time point.  Both endpoints
        must be present in ``nodes``.
    edge_attrs:
        Static edge-attribute values for edges appearing for the first
        time.  As with ``static``, names are validated for every entry;
        a graph without edge attributes rejects any supplied name.

    All fields are frozen into owned tuples/dicts on construction, so an
    update built from generators or shared mutable mappings stays
    replayable: appending it twice (or into two stores) sees identical
    content.
    """

    time: Hashable
    nodes: Mapping[NodeId, Mapping[str, Any]]
    static: Mapping[NodeId, Mapping[str, Any]] = field(default_factory=dict)
    edges: Iterable[EdgeId] = ()
    edge_attrs: Mapping[EdgeId, Mapping[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze every field into owned containers: a generator passed as
        # ``edges`` would otherwise be consumed on first use, so replaying
        # the same update into a second store (or retrying after a failed
        # append) would silently drop every edge.  Plain dicts/tuples (not
        # MappingProxyType) keep updates picklable for worker processes.
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(
            self, "nodes", {n: dict(v) for n, v in self.nodes.items()}
        )
        object.__setattr__(
            self, "static", {n: dict(v) for n, v in self.static.items()}
        )
        object.__setattr__(
            self, "edge_attrs", {e: dict(v) for e, v in self.edge_attrs.items()}
        )


def append_snapshot(graph: TemporalGraph, update: SnapshotUpdate) -> TemporalGraph:
    """A new graph whose timeline ends with the update's time point."""
    if update.time in graph.timeline:
        raise ValidationError(f"time point {update.time!r} already exists")
    new_times = graph.timeline.labels + (update.time,)

    known_nodes = set(graph.node_presence.row_labels)
    incoming = dict(update.nodes)
    new_node_ids = [n for n in incoming if n not in known_nodes]
    all_nodes = graph.node_presence.row_labels + tuple(new_node_ids)
    node_pos = {n: i for i, n in enumerate(all_nodes)}

    varying_names = graph.varying_attribute_names
    for node, values in incoming.items():
        unknown = set(values) - set(varying_names)
        if unknown:
            raise UnknownLabelError(
                f"unknown time-varying attributes for {node!r}: {sorted(unknown)}"
            )

    # Attribute *names* are validated for every entry the update carries,
    # not just first-appearance nodes/edges — values for known entities
    # are still ignored, but a misspelled name never passes silently.
    static_name_set = {str(c) for c in graph.static_attrs.col_labels}
    for node, provided in update.static.items():
        unknown = set(provided) - static_name_set
        if unknown:
            raise UnknownLabelError(
                f"unknown static attributes for {node!r}: {sorted(unknown)}"
            )
    edge_attr_names = (
        {str(c) for c in graph.edge_attrs.col_labels}
        if graph.edge_attrs is not None
        else set()
    )
    for edge, provided in update.edge_attrs.items():
        unknown = set(provided) - edge_attr_names
        if unknown:
            raise UnknownLabelError(
                f"unknown edge attributes for {edge!r}: {sorted(unknown)}"
            )

    edges = list(update.edges)
    for u, v in edges:
        if u not in incoming or v not in incoming:
            raise ValidationError(
                f"edge {(u, v)!r} references a node absent from the snapshot"
            )

    node_values = np.zeros((len(all_nodes), len(new_times)), dtype=np.uint8)
    node_values[: graph.n_nodes, :-1] = graph.node_presence.values
    for node in incoming:
        node_values[node_pos[node], -1] = 1
    node_presence = LabeledFrame(all_nodes, new_times, node_values)

    static_names = graph.static_attrs.col_labels
    static_values = np.empty((len(all_nodes), len(static_names)), dtype=object)
    static_values[: graph.n_nodes] = graph.static_attrs.values
    for i, node in enumerate(new_node_ids):
        provided = dict(update.static.get(node, {}))
        for col, name in enumerate(static_names):
            static_values[graph.n_nodes + i, col] = provided.get(str(name))
    static_attrs = LabeledFrame(all_nodes, static_names, static_values)

    varying_attrs: dict[str, LabeledFrame] = {}
    for name in varying_names:
        values = np.full((len(all_nodes), len(new_times)), None, dtype=object)
        values[: graph.n_nodes, :-1] = graph.varying_attrs[name].values
        for node, node_values_map in incoming.items():
            if name in node_values_map:
                values[node_pos[node], -1] = node_values_map[name]
        varying_attrs[name] = LabeledFrame(all_nodes, new_times, values)

    known_edges = graph.edge_presence.row_labels
    known_edge_set = set(known_edges)
    new_edge_ids = [e for e in dict.fromkeys(edges) if e not in known_edge_set]
    all_edges = known_edges + tuple(new_edge_ids)
    edge_pos = {e: i for i, e in enumerate(all_edges)}
    edge_values = np.zeros((len(all_edges), len(new_times)), dtype=np.uint8)
    edge_values[: graph.n_edges, :-1] = graph.edge_presence.values
    for edge in edges:
        edge_values[edge_pos[edge], -1] = 1
    edge_presence = LabeledFrame(all_edges, new_times, edge_values)

    edge_attr_frame: LabeledFrame | None = None
    if graph.edge_attrs is not None:
        names = graph.edge_attrs.col_labels
        attr_values = np.empty((len(all_edges), len(names)), dtype=object)
        attr_values[: graph.n_edges] = graph.edge_attrs.values
        for i, edge in enumerate(new_edge_ids):
            provided = dict(update.edge_attrs.get(edge, {}))
            for col, name in enumerate(names):
                attr_values[graph.n_edges + i, col] = provided.get(str(name))
        edge_attr_frame = LabeledFrame(all_edges, names, attr_values)

    return TemporalGraph(
        timeline=Timeline(new_times),
        node_presence=node_presence,
        edge_presence=edge_presence,
        static_attrs=static_attrs,
        varying_attrs=varying_attrs,
        validate=False,
        edge_attrs=edge_attr_frame,
        # Keep the input graph's backend *selection*.  The appended
        # graph is a fresh value over fresh arrays, so a columnar input
        # rebuilds its layout lazily — the published version stays
        # immutable and earlier versions keep their own backends.
        storage=graph.storage_name,
    )


def snapshot_at(graph: TemporalGraph, time: Hashable) -> SnapshotUpdate:
    """The :class:`SnapshotUpdate` that reconstructs one existing point.

    Raises :class:`~repro.errors.UnknownLabelError` for a time point not
    on the timeline.  Static values are included for *every* node present
    at the point (``append_snapshot`` ignores them for known nodes), so
    the update is replayable regardless of when each node first appeared.
    """
    pos = graph.timeline.index_of(time)
    rows = np.flatnonzero(graph.node_presence.values[:, pos])
    labels = graph.nodes
    present = [labels[row] for row in rows.tolist()]
    varying = [
        (name, graph.varying_attrs[name].values[rows, pos])
        for name in graph.varying_attribute_names
    ]
    nodes: dict[NodeId, dict[str, Any]] = {
        node: {
            name: column[i] for name, column in varying if column[i] is not None
        }
        for i, node in enumerate(present)
    }
    # Static rows are node rows, and edge attribute rows are edge rows.
    static_names = [str(c) for c in graph.static_attrs.col_labels]
    static: dict[NodeId, dict[str, Any]] = {
        node: dict(zip(static_names, values))
        for node, values in zip(present, graph.static_attrs.values[rows])
    }
    edge_rows = np.flatnonzero(graph.edge_presence.values[:, pos])
    edge_labels = graph.edges
    edges = tuple(edge_labels[row] for row in edge_rows.tolist())
    edge_attrs: dict[EdgeId, dict[str, Any]] = {}
    if graph.edge_attrs is not None:
        names = [str(c) for c in graph.edge_attrs.col_labels]
        edge_attrs = {
            edge: dict(zip(names, values))
            for edge, values in zip(edges, graph.edge_attrs.values[edge_rows])
        }
    return SnapshotUpdate(
        time=time, nodes=nodes, static=static, edges=edges, edge_attrs=edge_attrs
    )


def split_history(
    graph: TemporalGraph,
) -> tuple[TemporalGraph, list[SnapshotUpdate]]:
    """Decompose a graph into its first point plus per-point updates.

    Replaying the updates through :func:`append_snapshot` (or feeding
    them to :meth:`repro.materialize.IncrementalStore.append`) rebuilds a
    graph observably equal to the input — the replay identity the
    differential fuzz oracle checks for the incremental store.
    """
    labels = graph.timeline.labels
    first = labels[0]
    initial = graph.restricted(
        graph.node_presence.rows_any([first]),
        graph.edge_presence.rows_any([first]),
        [first],
    )
    return initial, [snapshot_at(graph, t) for t in labels[1:]]
