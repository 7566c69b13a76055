"""Appending new time points to a temporal graph.

Evolving graphs grow at the end of their timeline; re-generating the
whole graph per tick would defeat the paper's materialization story.
:func:`append_snapshot` extends a :class:`TemporalGraph` with one new
time point — new nodes, returning nodes, their time-varying values, and
the snapshot's edges — producing a new graph value.  What an input
reads never changes: the versions of a graph share append-only frame
buffers, and each reads only its own prefix.
:class:`repro.materialize.IncrementalStore` builds on this to keep
per-point aggregates and running union totals current as the graph
grows.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Any

import numpy as np

from ..frames import LabeledFrame
from ..frames.labeled_frame import RowPrefix
from ..storage.base import _endpoint_pairs
from .cells import _Lineage, _put, blank, extending, room
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
    """A new graph whose timeline ends with the update's time point.

    The new version extends what its parent holds instead of re-deriving
    it from labels.  Its frames are read-only views of append-only
    buffers that the chain of versions shares, where only the new
    column's present cells and the new rows' values are written; its
    node and edge labels, their row indexes and, when the parent holds
    them, its endpoint rows are likewise prefixes of append-only state
    the chain shares, where only the new labels, index entries and edge
    rows are written (the tip/fork rule of :mod:`repro.core.cells`).  A
    cell index the parent holds is extended by the new column
    (:meth:`repro.core.cells.CellIndex.extended`).  A parent that is a
    view (an operator result) builds its frames and derives its endpoint
    rows from its source's to hand them on, and its cell index when its
    source holds one (else, like any parent without an index, it hands
    none on).  What the parent's frames, indexes and arrays read never
    changes.
    """
    if update.time in graph.timeline:
        raise ValidationError(f"time point {update.time!r} already exists")
    timeline = Timeline(graph.timeline.labels + (update.time,))
    new_times = timeline.labels

    incoming = update.nodes
    varying_names = graph.varying_attribute_names
    _check_names(incoming, set(varying_names), "time-varying")
    # Attribute *names* are validated for every entry the update carries,
    # not just first-appearance nodes/edges — values for known entities
    # are still ignored, but a misspelled name never passes silently.
    _check_names(
        update.static, {str(c) for c in graph.static_attrs.col_labels}, "static"
    )
    edge_attr_names = (
        {str(c) for c in graph.edge_attrs.col_labels}
        if graph.edge_attrs is not None
        else set()
    )
    _check_names(update.edge_attrs, edge_attr_names, "edge")
    edges = update.edges
    _check_edges(edges, incoming)

    # The parent's own rows: a label that a concurrent append adds to
    # rows they share is past the parent's prefix, so not found here.
    n_nodes, n_edges = graph.n_nodes, graph.n_edges
    parent_nodes = graph.node_presence._prefix()
    parent_edges = graph.edge_presence._prefix()
    node_labels = list(incoming)
    node_rows = parent_nodes.rows(node_labels)
    new_node_ids = _new_labels(node_labels, node_rows, n_nodes)
    present = np.sort(node_rows)
    edge_labels = list(dict.fromkeys(edges))
    edge_rows = parent_edges.rows(edge_labels)
    new_edge_ids = _new_labels(edge_labels, edge_rows, n_edges)
    edge_rows.sort()
    all_nodes, all_edges = n_nodes + len(new_node_ids), n_edges + len(new_edge_ids)

    # Every frame array of the parent, by buffer name, with its shape in
    # the new version: one more time column, and the new rows.
    static_names = graph.static_attrs.col_labels
    shapes = {
        "nodes": (all_nodes, len(new_times)),
        "static": (all_nodes, len(static_names)),
        "edges": (all_edges, len(new_times)),
    }
    parent = {
        "nodes": graph.node_presence.values,
        "static": graph.static_attrs.values,
        "edges": graph.edge_presence.values,
    }
    for name in varying_names:
        shapes[_VARYING + name] = shapes["nodes"]
        parent[_VARYING + name] = graph.varying_attrs[name].values
    if graph.edge_attrs is not None:
        shapes["edge_attrs"] = (all_edges, graph.edge_attrs.n_cols)
        parent["edge_attrs"] = graph.edge_attrs.values
    parent_endpoints = graph._resolved_endpoint_rows()

    def fork() -> _Lineage:
        """Buffers of exactly the new version's shapes, holding the
        parent's frames, and the parent's rows."""
        buffers: dict[str, np.ndarray] = {}
        for name, array in parent.items():
            buffers[name] = buffer = blank(shapes[name], array.dtype)
            buffer[: array.shape[0], : array.shape[1]] = array
        return _Lineage(
            buffers,
            {
                "nodes": parent_nodes.shared.forked(n_nodes),
                "edges": parent_edges.shared.forked(n_edges),
            },
        )

    # The tip of the parent's lineage writes the new column's present
    # cells, the new rows' values and labels, and the new edges'
    # endpoint rows in place; any other parent forks first.  No version
    # reads past its own prefix, so none sees these writes, and the
    # views go out read-only.
    lineage, generation = graph._carried.frames or (None, 0)
    with extending(lineage, generation, fork) as lineage:
        buffers = lineage.buffers
        views: dict[str, np.ndarray] = {}
        for name, (rows, cols) in shapes.items():
            buffers[name] = room(buffers[name], parent[name].shape, (rows, cols))
            views[name] = buffers[name][:rows, :cols]
        views["nodes"][present, -1] = 1
        views["edges"][edge_rows, -1] = 1
        for name in varying_names:
            column = views[_VARYING + name][:, -1]
            for row, node_values_map in zip(node_rows.tolist(), incoming.values()):
                if name in node_values_map:
                    column[row] = node_values_map[name]
        _write_new_rows(
            views["static"], static_names, n_nodes, new_node_ids, update.static
        )
        if graph.edge_attrs is not None:
            _write_new_rows(
                views["edge_attrs"],
                graph.edge_attrs.col_labels,
                n_edges,
                new_edge_ids,
                update.edge_attrs,
            )
        lineage.rows["nodes"].extend(new_node_ids)
        lineage.rows["edges"].extend(new_edge_ids)
        nodes = RowPrefix(lineage.rows["nodes"], all_nodes)
        links = RowPrefix(lineage.rows["edges"], all_edges)
        endpoints = None
        if parent_endpoints is None:
            for key in _ENDPOINTS:
                buffers.pop(key, None)
        else:
            # New edges join snapshot nodes, whose rows are known.
            rows = dict(zip(node_labels, node_rows.tolist()))
            endpoints = _carried_endpoint_rows(
                buffers,
                parent_endpoints,
                _endpoint_pairs(rows, new_edge_ids),
                nodes,
                links,
            )
        frames = (lineage, lineage.generation)
    for view in views.values():
        view.flags.writeable = False

    def node_frame(
        cols: tuple[Hashable, ...], values: np.ndarray, col_index: Mapping[Hashable, int]
    ) -> LabeledFrame:
        return LabeledFrame._adopt(nodes, cols, values, nodes, col_index)

    node_presence = node_frame(new_times, views["nodes"], timeline.positions)
    static_attrs = node_frame(
        static_names, views["static"], graph.static_attrs._col_index
    )
    varying_attrs = {
        name: node_frame(new_times, views[_VARYING + name], timeline.positions)
        for name in varying_names
    }
    edge_presence = LabeledFrame._adopt(
        links, new_times, views["edges"], links, timeline.positions
    )
    edge_attr_frame: LabeledFrame | None = None
    if graph.edge_attrs is not None:
        edge_attr_frame = LabeledFrame._adopt(
            links,
            graph.edge_attrs.col_labels,
            views["edge_attrs"],
            links,
            graph.edge_attrs._col_index,
        )

    appended = TemporalGraph(
        timeline=timeline,
        node_presence=node_presence,
        edge_presence=edge_presence,
        static_attrs=static_attrs,
        varying_attrs=varying_attrs,
        validate=False,
        edge_attrs=edge_attr_frame,
        # Keep the input graph's backend *selection*.  The appended
        # graph is a new value over new views, so a columnar input
        # rebuilds its layout lazily — the published version stays
        # immutable and earlier versions keep their own backends.
        storage=graph.storage_name,
    )
    carried = appended._carried
    carried.frames = frames
    carried.endpoints = endpoints
    parent_cells = graph._carried.cells
    source = graph._carried.source
    if source is not None and source.graph._carried.cells is not None:
        parent_cells = graph._cell_index()
    if parent_cells is not None:
        carried.cells = parent_cells.extended(
            all_nodes,
            all_edges,
            present,
            edge_rows,
            static={
                str(name): views["static"][n_nodes:, col]
                for col, name in enumerate(static_names)
            },
            varying={
                name: frame.values[present, -1]
                for name, frame in varying_attrs.items()
            },
        )
    return appended


#: The prefix of a time-varying attribute's frame buffer name.
_VARYING = "varying:"


def _check_names(
    entries: Mapping[Hashable, Mapping[str, Any]], allowed: set[str], kind: str
) -> None:
    """Raise :class:`UnknownLabelError` naming the first entry that names
    a ``kind`` attribute outside ``allowed``.  Every entry's names are
    checked at once; the entries are scanned only to name the offender."""
    if set().union(*entries.values()) <= allowed:
        return
    for label, provided in entries.items():
        unknown = set(provided) - allowed
        if unknown:
            raise UnknownLabelError(
                f"unknown {kind} attributes for {label!r}: {sorted(unknown)}"
            )


def _check_edges(edges: tuple[Any, ...], nodes: Mapping[NodeId, Any]) -> None:
    """Raise :class:`ValidationError` naming the first edge that is not a
    ``(u, v)`` pair of snapshot ``nodes``, so the rows carried for new
    edges always resolve.  Checked with set operations; the edges are
    scanned only to name the offender."""
    if set(map(type, edges)) <= {tuple} and set(map(len, edges)) <= {2}:
        try:
            endpoints = set(map(itemgetter(0), edges))
            endpoints.update(map(itemgetter(1), edges))
        except TypeError:  # an unhashable endpoint; the scan raises on it
            endpoints = None
        if endpoints is not None and endpoints <= nodes.keys():
            return
    for edge in edges:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            raise ValidationError(f"update edges must be (u, v) tuples, got {edge!r}")
        if edge[0] not in nodes or edge[1] not in nodes:
            raise ValidationError(
                f"edge {edge!r} references a node absent from the snapshot"
            )


def _write_new_rows(
    values: np.ndarray,
    names: Sequence[Hashable],
    first: int,
    labels: Sequence[Hashable],
    provided: Mapping[Hashable, Mapping[str, Any]],
) -> None:
    """Write into rows ``first ..`` of ``values``, whose columns are the
    attributes ``names``, the values ``provided`` for the new entities
    ``labels``; a value not provided is ``None``."""
    for i, label in enumerate(labels):
        given = provided.get(label, {})
        for col, name in enumerate(names):
            values[first + i, col] = given.get(str(name))


def _new_labels(labels: list[Hashable], rows: np.ndarray, first: int) -> list[Hashable]:
    """The labels whose row is ``-1``, in order; their rows become
    ``first, first + 1, ..`` in place."""
    new = rows < 0
    fresh = list(compress(labels, new.tolist()))
    rows[new] = np.arange(first, first + len(fresh))
    return fresh


#: The names of the endpoint-row buffers in a lineage.
_ENDPOINTS = ("src", "dst")


def _carried_endpoint_rows(
    buffers: dict[str, np.ndarray],
    parent: tuple[np.ndarray, np.ndarray],
    new: np.ndarray,
    nodes: RowPrefix,
    edges: RowPrefix,
) -> tuple[np.ndarray, np.ndarray]:
    """The parent's endpoint rows followed by the new edges' rows ``new``
    (``2 x new edges``), as prefixes of the lineage's row buffers.

    A lineage holds row buffers only while its tip's rows are prefixes
    of them, and those are extended in place.  Other rows (after a fork,
    or resolved after the parent was published) are first copied into
    buffers sized exactly for the new version, and a parent row that is
    ``-1`` is resolved again against the new version's ``nodes``: its
    missing node may just have arrived.  Rows that still hold a ``-1``
    stay the new version's own, out of the lineage, so that no tip
    append ever rewrites a prefix.
    """
    used, end = len(parent[0]), len(parent[0]) + new.shape[1]
    dangling: np.ndarray | None = None
    if not all(key in buffers for key in _ENDPOINTS):
        for key, side in zip(_ENDPOINTS, parent):
            buffers[key] = np.empty(end, dtype=np.int32)
            buffers[key][:used] = side
        dangling = np.flatnonzero((parent[0] < 0) | (parent[1] < 0))
    for key, extra in zip(_ENDPOINTS, new):
        buffers[key] = _put(buffers[key], used, extra)
    src, dst = (buffers[key][:end] for key in _ENDPOINTS)
    if dangling is not None and dangling.size:
        src[dangling], dst[dangling] = _endpoint_pairs(nodes, edges.take(dangling))
        if (src[dangling] < 0).any() or (dst[dangling] < 0).any():
            for key in _ENDPOINTS:
                del buffers[key]
    src.flags.writeable = False
    dst.flags.writeable = False
    return src, dst


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
