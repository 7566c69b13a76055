"""The temporal attributed graph model (Definition 2.1) and its storage.

A graph ``G(V, E, tau_u, tau_e, A)`` is stored exactly as Section 4 of the
paper prescribes:

* **V** — a labeled presence matrix with one row per node and one column
  per time point; ``V[u, t] = 1`` iff ``t`` is in ``tau_u(u)``.
* **E** — the same for edges, rows labeled with ``(u, v)`` pairs.
* **S** — one row per node, one column per *static* attribute.
* **A_i** — one labeled matrix per *time-varying* attribute, rows = nodes,
  columns = time points, ``None`` where the node does not exist (the "-"
  cells of Table 2).

Edges are directed, matching both evaluation datasets (author order in
DBLP, rating precedence in MovieLens).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..storage import GraphStorageBackend

from ..frames import LabeledFrame
from .intervals import Timeline
from ..errors import UnknownLabelError, ValidationError

__all__ = ["TemporalGraph", "TemporalGraphBuilder", "GraphIntegrityError"]

NodeId = Hashable
EdgeId = tuple[Hashable, Hashable]


class GraphIntegrityError(ValidationError):
    """The arrays handed to :class:`TemporalGraph` are mutually inconsistent."""


class TemporalGraph:
    """An interval-labeled temporal attributed graph.

    Instances are value-like: operators never mutate their inputs, they
    build new graphs.  Construction validates the cross-array invariants
    (matching node sets, matching time columns, edge endpoints present in
    the node array); set ``validate=False`` to skip the endpoint activity
    check when building very large graphs from a trusted generator.
    """

    __slots__ = (
        "timeline",
        "node_presence",
        "edge_presence",
        "static_attrs",
        "varying_attrs",
        "edge_attrs",
        "_storage_name",
        "_storage",
    )

    def __init__(
        self,
        timeline: Timeline,
        node_presence: LabeledFrame,
        edge_presence: LabeledFrame,
        static_attrs: LabeledFrame,
        varying_attrs: Mapping[str, LabeledFrame],
        validate: bool = True,
        edge_attrs: LabeledFrame | None = None,
        storage: "GraphStorageBackend | str | None" = None,
    ) -> None:
        self.timeline = timeline
        self.node_presence = node_presence
        self.edge_presence = edge_presence
        self.static_attrs = static_attrs
        self.varying_attrs = dict(varying_attrs)
        self.edge_attrs = edge_attrs
        # ``storage`` selects the physical backend (repro.storage): a
        # name, a prebuilt backend instance, or None = the
        # REPRO_STORAGE_BACKEND env default.  The backend itself is
        # built lazily on first ``.storage`` access, so graphs that
        # never leave the dense path pay nothing.
        if storage is None or isinstance(storage, str):
            self._storage_name: str | None = storage
            self._storage: "GraphStorageBackend | None" = None
        else:
            self._storage_name = storage.name
            self._storage = storage
        self._check_schema()
        if validate:
            self._check_integrity()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _check_schema(self) -> None:
        times = self.timeline.labels
        if self.node_presence.col_labels != times:
            raise GraphIntegrityError(
                "node presence columns must equal the timeline labels"
            )
        if self.edge_presence.col_labels != times:
            raise GraphIntegrityError(
                "edge presence columns must equal the timeline labels"
            )
        nodes = self.node_presence.row_labels
        if self.static_attrs.row_labels != nodes:
            raise GraphIntegrityError(
                "static attribute rows must match node presence rows"
            )
        overlap = set(self.static_attrs.col_labels) & set(self.varying_attrs)
        if overlap:
            raise GraphIntegrityError(
                f"attributes declared both static and time-varying: {sorted(map(str, overlap))}"
            )
        for name, frame in self.varying_attrs.items():
            if frame.row_labels != nodes:
                raise GraphIntegrityError(
                    f"time-varying attribute {name!r} rows must match node rows"
                )
            if frame.col_labels != times:
                raise GraphIntegrityError(
                    f"time-varying attribute {name!r} columns must equal the timeline"
                )
        if self.edge_attrs is not None:
            if self.edge_attrs.row_labels != self.edge_presence.row_labels:
                raise GraphIntegrityError(
                    "edge attribute rows must match edge presence rows"
                )

    def _check_integrity(self) -> None:
        from ..storage.base import resolve_endpoint_rows

        edges = self.edge_presence.row_labels
        src, dst = resolve_endpoint_rows(self.node_presence.row_labels, edges)
        unresolved = np.flatnonzero((src < 0) | (dst < 0))
        if unresolved.size:
            edge = edges[unresolved[0]]
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise GraphIntegrityError(
                    f"edge labels must be (u, v) tuples, got {edge!r}"
                )
            raise GraphIntegrityError(f"edge {edge!r} references a node missing from V")
        nodes = self.node_presence.values.astype(bool)
        orphaned = self.edge_presence.values.astype(bool) & ~(nodes[src] & nodes[dst])
        if orphaned.any():
            edge = edges[np.flatnonzero(orphaned.any(axis=1))[0]]
            raise GraphIntegrityError(
                f"edge {edge!r} is active at a time its endpoints are not"
            )

    # ------------------------------------------------------------------
    # Storage substrate (repro.storage)
    # ------------------------------------------------------------------

    @property
    def storage_name(self) -> str | None:
        """The backend name this graph was pinned to (``None`` = env
        default, resolved lazily)."""
        return self._storage_name

    @property
    def storage(self) -> "GraphStorageBackend":
        """The physical storage backend, built on first access.

        Resolution order: an instance or name passed at construction,
        else the ``REPRO_STORAGE_BACKEND`` environment variable, else
        ``"dense"``.  The instance is cached on the graph; graphs are
        value-like, so the cached backend never goes stale.
        """
        if self._storage is None:
            from ..storage import get_backend, resolve_backend_name

            name = resolve_backend_name(self._storage_name)
            self._storage = get_backend(name).from_graph(self)
            self._storage_name = name
        return self._storage

    def with_storage(
        self, storage: "GraphStorageBackend | str"
    ) -> "TemporalGraph":
        """A new graph over the same frames pinned to ``storage``."""
        return TemporalGraph(
            timeline=self.timeline,
            node_presence=self.node_presence,
            edge_presence=self.edge_presence,
            static_attrs=self.static_attrs,
            varying_attrs=self.varying_attrs,
            validate=False,
            edge_attrs=self.edge_attrs,
            storage=storage,
        )

    def presence_mask(
        self,
        entity: str,
        times: Sequence[Hashable] | None = None,
        mode: str = "any",
    ) -> np.ndarray:
        """Boolean per-entity presence reduction over a window.

        Delegates to the storage backend; ``entity`` is ``"nodes"`` or
        ``"edges"``, ``mode`` is ``"any"``/``"all"``/``"none"`` (the
        union / intersection / difference selection rules).
        """
        return self.storage.presence_mask(entity, times, mode)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All node identifiers, in storage order."""
        return self.node_presence.row_labels

    @property
    def edges(self) -> tuple[EdgeId, ...]:
        """All edge identifiers ``(u, v)``, in storage order."""
        return self.edge_presence.row_labels  # type: ignore[return-value]

    @property
    def n_nodes(self) -> int:
        return self.node_presence.n_rows

    @property
    def n_edges(self) -> int:
        return self.edge_presence.n_rows

    @property
    def static_attribute_names(self) -> tuple[str, ...]:
        return tuple(str(c) for c in self.static_attrs.col_labels)

    @property
    def varying_attribute_names(self) -> tuple[str, ...]:
        return tuple(self.varying_attrs)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Static attributes first, then time-varying ones."""
        return self.static_attribute_names + self.varying_attribute_names

    @property
    def edge_attribute_names(self) -> tuple[str, ...]:
        """Names of the (static) edge attributes; empty when none exist."""
        if self.edge_attrs is None:
            return ()
        return tuple(str(c) for c in self.edge_attrs.col_labels)

    def edge_attribute_value(self, edge: EdgeId, attribute: str) -> Any:
        """The value of one static edge attribute on one edge."""
        if self.edge_attrs is None:
            raise UnknownLabelError("this graph has no edge attributes")
        return self.edge_attrs.cell(edge, attribute)

    def is_static(self, attribute: str) -> bool:
        """Whether ``attribute`` is static (raises if unknown)."""
        if attribute in set(self.static_attribute_names):
            return True
        if attribute in self.varying_attrs:
            return False
        raise UnknownLabelError(
            f"unknown attribute {attribute!r}; graph has {self.attribute_names!r}"
        )

    def node_times(self, node: NodeId) -> tuple[Hashable, ...]:
        """``tau_u(u)``: the time points at which a node exists."""
        row = self.node_presence.row(node)
        return tuple(
            t for t, flag in zip(self.timeline.labels, row) if flag
        )

    def edge_times(self, edge: EdgeId) -> tuple[Hashable, ...]:
        """``tau_e(e)``: the time points at which an edge exists."""
        row = self.edge_presence.row(edge)
        return tuple(
            t for t, flag in zip(self.timeline.labels, row) if flag
        )

    def attribute_value(self, node: NodeId, attribute: str, time: Hashable | None = None) -> Any:
        """``A_i(u, t)`` — ``time`` is required for time-varying attributes."""
        if self.is_static(attribute):
            return self.static_attrs.cell(node, attribute)
        if time is None:
            raise ValidationError(
                f"attribute {attribute!r} is time-varying; a time point is required"
            )
        return self.varying_attrs[attribute].cell(node, time)

    # ------------------------------------------------------------------
    # Per-time statistics (Tables 3 / 4)
    # ------------------------------------------------------------------

    def nodes_at(self, time: Hashable) -> tuple[NodeId, ...]:
        """Nodes existing at one time point."""
        return self.node_presence.rows_any([time])

    def edges_at(self, time: Hashable) -> tuple[EdgeId, ...]:
        """Edges existing at one time point."""
        return self.edge_presence.rows_any([time])  # type: ignore[return-value]

    def n_nodes_at(self, time: Hashable) -> int:
        return int(self.node_presence.any_mask([time]).sum())

    def n_edges_at(self, time: Hashable) -> int:
        return int(self.edge_presence.any_mask([time]).sum())

    def size_table(self) -> list[tuple[Hashable, int, int]]:
        """``(time point, #nodes, #edges)`` rows — the layout of the
        paper's Tables 3 and 4."""
        return [
            (t, self.n_nodes_at(t), self.n_edges_at(t))
            for t in self.timeline.labels
        ]

    # ------------------------------------------------------------------
    # Restriction (shared by the temporal operators)
    # ------------------------------------------------------------------

    def restricted(
        self,
        nodes: Sequence[NodeId],
        edges: Sequence[EdgeId],
        times: Sequence[Hashable],
        validate: bool = False,
    ) -> "TemporalGraph":
        """A new graph keeping the given nodes, edges and time columns.

        The temporal operators of Section 2.1 all reduce to choosing a
        node mask, an edge mask and a time window; this method applies the
        choice consistently across every stored array (presence matrices,
        static and time-varying attribute arrays).  The label-based form
        of :meth:`take`.
        """
        return self.take(
            [self.node_presence.row_position(n) for n in nodes],
            [self.edge_presence.row_position(e) for e in edges],
            times,
            validate,
        )

    def take(
        self,
        node_rows: Sequence[int],
        edge_rows: Sequence[int],
        times: Sequence[Hashable],
        validate: bool = False,
    ) -> "TemporalGraph":
        """:meth:`restricted` by node and edge row *positions*."""
        return TemporalGraph(
            timeline=Timeline(times),
            node_presence=self.node_presence.take(node_rows, times),
            edge_presence=self.edge_presence.take(edge_rows, times),
            static_attrs=self.static_attrs.take(node_rows),
            varying_attrs={
                name: frame.take(node_rows, times)
                for name, frame in self.varying_attrs.items()
            },
            validate=validate,
            edge_attrs=(
                self.edge_attrs.take(edge_rows)
                if self.edge_attrs is not None
                else None
            ),
            # Propagate the backend *selection*, never the instance: the
            # restricted graph's arrays differ, so it builds its own.
            storage=self._storage_name,
        )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self.timeline == other.timeline
            and self.node_presence == other.node_presence
            and self.edge_presence == other.edge_presence
            and self.static_attrs == other.static_attrs
            and set(self.varying_attrs) == set(other.varying_attrs)
            and all(
                self.varying_attrs[name] == other.varying_attrs[name]
                for name in self.varying_attrs
            )
            and self.edge_attrs == other.edge_attrs
        )

    def __repr__(self) -> str:
        return (
            f"TemporalGraph({self.n_nodes} nodes, {self.n_edges} edges, "
            f"{len(self.timeline)} time points, "
            f"attrs={list(self.attribute_names)!r})"
        )


class TemporalGraphBuilder:
    """Incremental construction of a :class:`TemporalGraph`.

    Dataset generators and loaders accumulate nodes/edges event by event;
    the builder assembles the presence matrices and attribute arrays in
    one pass at :meth:`build` time.

    Examples
    --------
    >>> builder = TemporalGraphBuilder([2000, 2001], static=["gender"],
    ...                                varying=["pubs"])
    >>> builder.add_node("u1", {"gender": "m"})
    >>> builder.set_node_presence("u1", 2000, pubs=3)
    >>> graph = builder.build()
    >>> graph.attribute_value("u1", "pubs", 2000)
    3
    """

    def __init__(
        self,
        times: Sequence[Hashable],
        static: Sequence[str] = (),
        varying: Sequence[str] = (),
        edge_static: Sequence[str] = (),
        allow_self_loops: bool = False,
    ) -> None:
        self.timeline = Timeline(times)
        self._static_names = tuple(static)
        self._varying_names = tuple(varying)
        self._edge_static_names = tuple(edge_static)
        self._allow_self_loops = allow_self_loops
        self._nodes: dict[NodeId, dict[str, Any]] = {}
        self._node_presence: dict[NodeId, set[Hashable]] = {}
        self._varying_values: dict[str, dict[tuple[NodeId, Hashable], Any]] = {
            name: {} for name in self._varying_names
        }
        self._edges: dict[EdgeId, set[Hashable]] = {}
        self._edge_values: dict[EdgeId, dict[str, Any]] = {}

    def add_node(self, node: NodeId, static: Mapping[str, Any] | None = None) -> None:
        """Register a node and its static attribute values.

        Re-adding an existing node merges the static values (later wins).
        """
        static = dict(static or {})
        unknown = set(static) - set(self._static_names)
        if unknown:
            raise UnknownLabelError(f"unknown static attributes: {sorted(unknown)}")
        record = self._nodes.setdefault(node, {})
        record.update(static)
        self._node_presence.setdefault(node, set())

    def set_node_presence(
        self, node: NodeId, time: Hashable, **varying: Any
    ) -> None:
        """Mark a node present at ``time`` and record its time-varying
        attribute values there."""
        if node not in self._nodes:
            raise UnknownLabelError(f"add_node({node!r}) before setting presence")
        self.timeline.index_of(time)  # validate
        self._node_presence[node].add(time)
        unknown = set(varying) - set(self._varying_names)
        if unknown:
            raise UnknownLabelError(f"unknown time-varying attributes: {sorted(unknown)}")
        for name, value in varying.items():
            self._varying_values[name][(node, time)] = value

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        times: Iterable[Hashable] = (),
        static: Mapping[str, Any] | None = None,
    ) -> None:
        """Register a directed edge and (optionally) presence times.

        Endpoints must already exist as nodes; each presence time must be
        a presence time of both endpoints (kept as a hard invariant so the
        evolution semantics stay well-defined).  ``static`` carries edge
        attribute values for the declared ``edge_static`` attributes.
        """
        if u == v and not self._allow_self_loops:
            raise ValidationError(f"self loops are not allowed: {(u, v)!r}")
        for endpoint in (u, v):
            if endpoint not in self._nodes:
                raise UnknownLabelError(f"edge endpoint {endpoint!r} is not a node")
        static = dict(static or {})
        unknown = set(static) - set(self._edge_static_names)
        if unknown:
            raise UnknownLabelError(f"unknown edge attributes: {sorted(unknown)}")
        record = self._edge_values.setdefault((u, v), {})
        record.update(static)
        presence = self._edges.setdefault((u, v), set())
        for time in times:
            self.timeline.index_of(time)
            if time not in self._node_presence[u] or time not in self._node_presence[v]:
                raise ValidationError(
                    f"edge {(u, v)!r} cannot be active at {time!r}: "
                    "an endpoint is absent"
                )
            presence.add(time)

    def set_edge_presence(self, u: NodeId, v: NodeId, time: Hashable) -> None:
        """Mark an existing edge present at one more time point."""
        if (u, v) not in self._edges:
            raise UnknownLabelError(f"add_edge({u!r}, {v!r}) before setting presence")
        self.add_edge(u, v, [time])

    def build(self, validate: bool = True) -> TemporalGraph:
        """Assemble the temporal graph from everything recorded so far."""
        times = self.timeline.labels
        node_ids = tuple(self._nodes)
        node_values = np.zeros((len(node_ids), len(times)), dtype=np.uint8)
        time_pos = {t: i for i, t in enumerate(times)}
        for row, node in enumerate(node_ids):
            for t in self._node_presence[node]:
                node_values[row, time_pos[t]] = 1
        node_presence = LabeledFrame(node_ids, times, node_values)

        static_values = np.empty(
            (len(node_ids), len(self._static_names)), dtype=object
        )
        for row, node in enumerate(node_ids):
            for col, name in enumerate(self._static_names):
                static_values[row, col] = self._nodes[node].get(name)
        static_attrs = LabeledFrame(node_ids, self._static_names, static_values)

        node_pos = {n: i for i, n in enumerate(node_ids)}
        varying_attrs: dict[str, LabeledFrame] = {}
        for name in self._varying_names:
            values = np.full((len(node_ids), len(times)), None, dtype=object)
            for (node, t), value in self._varying_values[name].items():
                values[node_pos[node], time_pos[t]] = value
            varying_attrs[name] = LabeledFrame(node_ids, times, values)

        edge_ids = tuple(self._edges)
        edge_values = np.zeros((len(edge_ids), len(times)), dtype=np.uint8)
        for row, edge in enumerate(edge_ids):
            for t in self._edges[edge]:
                edge_values[row, time_pos[t]] = 1
        edge_presence = LabeledFrame(edge_ids, times, edge_values)

        edge_attrs: LabeledFrame | None = None
        if self._edge_static_names:
            attr_values = np.empty(
                (len(edge_ids), len(self._edge_static_names)), dtype=object
            )
            for row, edge in enumerate(edge_ids):
                record = self._edge_values.get(edge, {})
                for col, name in enumerate(self._edge_static_names):
                    attr_values[row, col] = record.get(name)
            edge_attrs = LabeledFrame(
                edge_ids, self._edge_static_names, attr_values
            )

        return TemporalGraph(
            timeline=self.timeline,
            node_presence=node_presence,
            edge_presence=edge_presence,
            static_attrs=static_attrs,
            varying_attrs=varying_attrs,
            validate=validate,
            edge_attrs=edge_attrs,
        )
