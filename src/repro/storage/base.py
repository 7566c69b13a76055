"""The pluggable graph-storage contract (ROADMAP item 2).

GraphTempo's operators (Definitions 2.2-2.5), the aggregation kernel
(and its Algorithm-2 reference) and the exploration lattice (Section 3)
all reduce to four physical primitives over the Section-4 arrays:

* boolean **presence reductions** over a time window
  (:meth:`GraphStorageBackend.presence_mask`);
* **time slicing** — restricting every array to a window
  (:meth:`GraphStorageBackend.slice_time`);
* **attribute column reads** (:meth:`GraphStorageBackend.attribute_column`);
* **endpoint rows** resolving edge endpoints to node rows
  (:meth:`GraphStorageBackend.endpoint_rows`, iterated per edge by
  :meth:`GraphStorageBackend.adjacency_scan`).

A :class:`GraphStorageBackend` implements those primitives over some
physical layout and round-trips losslessly to the dense
:class:`~repro.frames.LabeledFrame` representation
(:meth:`GraphStorageBackend.to_frames`), so readers stay oblivious to
the layout — the TVA-style separation of logical model from physical
storage.  Backends register by name; selection threads through
``TemporalGraph(storage=...)``, ``GraphTempoSession(storage=...)`` and
the ``REPRO_STORAGE_BACKEND`` environment default.

Every registered backend is held to the same oracle: the conformance
suite (``tests/test_storage_conformance.py``) runs the Table-1 cases,
every registered fuzz law, exploration mask bit-equality and streaming
replay identity against each backend, and the ``backend-storage``
differential law keeps fuzzing them forever after.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterator, Sequence
from typing import TYPE_CHECKING, Any, ClassVar, NamedTuple

import numpy as np

from ..errors import StorageError
from ..frames import LabeledFrame

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ..core.graph import TemporalGraph

__all__ = [
    "ENV_BACKEND",
    "GraphStorageBackend",
    "StorageFrames",
    "backend_names",
    "frames_of",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "resolve_endpoint_rows",
]

#: Environment variable naming the default backend for graphs that do
#: not pin one explicitly.
ENV_BACKEND = "REPRO_STORAGE_BACKEND"


class StorageFrames(NamedTuple):
    """The dense Section-4 representation every backend round-trips to.

    This is exactly the constructor payload of
    :class:`~repro.core.graph.TemporalGraph` (minus the timeline object,
    recoverable from ``times``), so ``frames -> backend -> to_frames``
    identity is a meaningful bit-exactness statement.
    """

    times: tuple[Hashable, ...]
    node_presence: LabeledFrame
    edge_presence: LabeledFrame
    static_attrs: LabeledFrame
    varying_attrs: dict[str, LabeledFrame]
    edge_attrs: LabeledFrame | None


def frames_of(graph: "TemporalGraph") -> StorageFrames:
    """The :class:`StorageFrames` view of a graph (shared, not copied)."""
    return StorageFrames(
        times=graph.timeline.labels,
        node_presence=graph.node_presence,
        edge_presence=graph.edge_presence,
        static_attrs=graph.static_attrs,
        varying_attrs=dict(graph.varying_attrs),
        edge_attrs=graph.edge_attrs,
    )


class GraphStorageBackend(ABC):
    """Abstract physical layout of one temporal attributed graph.

    Subclasses set :attr:`name` and implement the abstract primitives.
    All implementations must be **bit-exact** peers: identical masks,
    identical reconstructed frames, identical taxonomy errors on the
    same inputs.  Backends are value-like once constructed — nothing in
    the reader API mutates them — so a backend instance may be shared
    between a graph, its restrictions and forked workers.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = "abstract"

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    @abstractmethod
    def from_frames(cls, frames: StorageFrames) -> "GraphStorageBackend":
        """Build the backend's physical layout from dense frames."""

    @classmethod
    def from_graph(cls, graph: "TemporalGraph") -> "GraphStorageBackend":
        """Build from a :class:`~repro.core.graph.TemporalGraph`."""
        return cls.from_frames(frames_of(graph))

    @abstractmethod
    def to_frames(self) -> StorageFrames:
        """Reconstruct the dense frames, bit-exactly."""

    def to_graph(self, validate: bool = False) -> "TemporalGraph":
        """Materialize a :class:`~repro.core.graph.TemporalGraph` whose
        ``storage`` is this backend instance."""
        from ..core.graph import TemporalGraph

        frames = self.to_frames()
        return TemporalGraph(
            timeline=_timeline(frames.times),
            node_presence=frames.node_presence,
            edge_presence=frames.edge_presence,
            static_attrs=frames.static_attrs,
            varying_attrs=frames.varying_attrs,
            validate=validate,
            edge_attrs=frames.edge_attrs,
            storage=self,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def times(self) -> tuple[Hashable, ...]:
        """Time-point labels, in timeline order."""

    @property
    @abstractmethod
    def node_labels(self) -> tuple[Hashable, ...]:
        """Node identifiers, in storage order."""

    @property
    @abstractmethod
    def edge_labels(self) -> tuple[Hashable, ...]:
        """Edge identifiers, in storage order."""

    def entity_labels(self, entity: str) -> tuple[Hashable, ...]:
        """Labels of one entity axis (``"nodes"`` or ``"edges"``)."""
        if entity == "nodes":
            return self.node_labels
        if entity == "edges":
            return self.edge_labels
        raise StorageError(
            f"unknown entity {entity!r}; expected 'nodes' or 'edges'"
        )

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def presence_mask(
        self,
        entity: str,
        times: Sequence[Hashable] | None = None,
        mode: str = "any",
    ) -> np.ndarray:
        """Boolean per-entity mask over a time window.

        ``mode="any"`` — present at *some* window point (union rule);
        ``mode="all"`` — present at *every* window point (intersection
        rule, vacuously true on an empty window); ``mode="none"`` —
        absent throughout (difference rule).  ``times=None`` means the
        whole timeline.  Unknown time labels raise
        :class:`~repro.errors.LabelError`; unknown modes raise
        :class:`~repro.errors.StorageError`.  Semantics — including
        duplicate and unordered window labels — must match
        :meth:`repro.frames.LabeledFrame.any_mask` and friends exactly.
        """

    @abstractmethod
    def presence_matrix(self, entity: str) -> np.ndarray:
        """The full boolean presence matrix ``(n_entities, n_times)``.

        Always a fresh, writable array the caller may own.
        """

    @abstractmethod
    def slice_time(self, times: Sequence[Hashable]) -> "GraphStorageBackend":
        """A new backend restricted to the given time columns, in the
        given order, keeping every entity row (the storage-level time
        projection of Section 4.1)."""

    def slice_entities(
        self, entity: str, start: int, stop: int
    ) -> "GraphStorageBackend":
        """A new backend restricted to one contiguous entity-row range.

        ``entity="nodes"`` keeps ``node_labels[start:stop]`` (presence,
        static and time-varying attributes), leaving the timeline and
        the edge axis whole — an edge whose endpoint fell outside the
        shard reports ``-1`` from :meth:`endpoint_rows`, per that
        contract.  ``entity="edges"`` slices the edge axis instead.
        Empty ranges produce a valid empty-axis backend, so a shard plan
        with more shards than rows stays total.  The slice is rebuilt
        through ``from_frames`` so it is a first-class backend of the
        same physical layout.
        """
        labels = self.entity_labels(entity)
        if not (0 <= start <= stop <= len(labels)):
            raise StorageError(
                f"invalid {entity} range [{start}:{stop}] for axis of "
                f"{len(labels)} rows"
            )
        keep = list(labels[start:stop])
        frames = self.to_frames()
        if entity == "nodes":
            sliced = StorageFrames(
                times=frames.times,
                node_presence=frames.node_presence.select_rows(keep),
                edge_presence=frames.edge_presence,
                static_attrs=frames.static_attrs.select_rows(keep),
                varying_attrs={
                    name: frame.select_rows(keep)
                    for name, frame in frames.varying_attrs.items()
                },
                edge_attrs=frames.edge_attrs,
            )
        else:
            sliced = StorageFrames(
                times=frames.times,
                node_presence=frames.node_presence,
                edge_presence=frames.edge_presence.select_rows(keep),
                static_attrs=frames.static_attrs,
                varying_attrs=dict(frames.varying_attrs),
                edge_attrs=(
                    None
                    if frames.edge_attrs is None
                    else frames.edge_attrs.select_rows(keep)
                ),
            )
        return type(self).from_frames(sliced)

    @abstractmethod
    def attribute_column(
        self, name: str, time: Hashable | None = None
    ) -> np.ndarray:
        """One attribute's per-node values as an object array.

        Static attributes take ``time=None``; time-varying attributes
        require a time point (``None`` raises
        :class:`~repro.errors.StorageError`, matching the
        ``TemporalGraph.attribute_value`` contract).  Unknown names
        raise :class:`~repro.errors.LabelError`.
        """

    @abstractmethod
    def endpoint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)``: each edge's source and target node row.

        Two read-only ``int32`` arrays aligned with :attr:`edge_labels`;
        rows index :attr:`node_labels`.  A dangling endpoint (a label
        absent from the node axis) or a malformed edge label (not a
        ``(u, v)`` pair) is ``-1`` -- resolving never raises, callers
        decide the severity.
        """

    def adjacency_scan(self) -> Iterator[tuple[Any, int, int]]:
        """Yield ``(edge_label, source_row, target_row)`` per edge, in
        storage order -- :meth:`endpoint_rows` one edge at a time."""
        src, dst = self.endpoint_rows()
        return zip(self.edge_labels, src.tolist(), dst.tolist())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @abstractmethod
    def nbytes(self) -> int:
        """Bytes of array payload this layout holds resident.

        Used by ``benchmarks/bench_storage.py`` for the machine-independent
        footprint comparison; label/index overhead (shared by all
        backends) is excluded.
        """

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def _check_mode(mode: str) -> str:
        if mode not in ("any", "all", "none"):
            raise StorageError(
                f"unknown presence mode {mode!r}; expected 'any', 'all' or 'none'"
            )
        return mode

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.node_labels)} nodes, "
            f"{len(self.edge_labels)} edges, {len(self.times)} time points)"
        )


def resolve_endpoint_rows(
    node_labels: Sequence[Hashable], edge_labels: Sequence[Hashable]
) -> tuple[np.ndarray, np.ndarray]:
    """The :meth:`GraphStorageBackend.endpoint_rows` arrays for one
    node axis and edge axis, frozen read-only."""
    index = {label: row for row, label in enumerate(node_labels)}
    pairs = [
        (index.get(edge[0], -1), index.get(edge[1], -1))
        if isinstance(edge, tuple) and len(edge) == 2
        else (-1, -1)
        for edge in edge_labels
    ]
    rows = np.array(pairs, dtype=np.int32).reshape(len(pairs), 2).T.copy()
    rows.flags.writeable = False
    return rows[0], rows[1]


def _timeline(times: Sequence[Hashable]) -> Any:
    from ..core.intervals import Timeline

    return Timeline(times)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[GraphStorageBackend]] = {}


def register_backend(
    cls: type[GraphStorageBackend],
) -> type[GraphStorageBackend]:
    """Class decorator registering a backend under ``cls.name``."""
    name = cls.name
    if name in _REGISTRY:
        raise StorageError(f"storage backend {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> type[GraphStorageBackend]:
    """The backend class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise StorageError(
            f"unknown storage backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an explicit name, the env default, or ``"dense"``.

    The resolved name is validated against the registry so typos in
    ``REPRO_STORAGE_BACKEND`` fail loudly at first use instead of
    silently falling back.
    """
    resolved = name or os.environ.get(ENV_BACKEND) or "dense"
    get_backend(resolved)
    return resolved
