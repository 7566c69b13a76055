"""The cell index: a graph's present cells, time-major, with integer
attribute codes.

Algorithm 2 counts groups over the cells where an entity is present.
The kernel (:mod:`repro.core.fast`) reads those cells from one
:class:`CellIndex` per graph, so a call touches only the cells of its
window instead of scanning the dense ``entities x window`` block:

* node and edge presence as time-major compressed sparse rows (CSR):
  per time column, the ascending ``int32`` rows present there, with an
  ``indptr`` delimiting the columns;
* one ``int32`` code per static attribute per node row, and one per
  time-varying attribute per node event (aligned with the node rows);
* a value pool per attribute, in code order.  ``None`` at a present
  cell is a pool value like any other; absent cells hold no code.

A graph builds its index from its dense frames on its first kernel call
(:func:`build_cells`), and hands it on from then on: an append extends
the parent's index by the new column (:meth:`CellIndex.extended`).  An
operator's result, a view, is read through its input's index, and
derives one of its own (:meth:`CellIndex.taken`) only when it must own
one.  The versions of one graph share append-only
buffers that double their capacity.  Each version reads its own prefix,
so a version costs only its own events, and no extension ever changes
what an existing index reads.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

import numpy as np

from ..frames.labeled_frame import SharedRows
from ..storage.columnar import _event_index

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .graph import TemporalGraph

#: The kernel's internal layout: nothing here is public API.
__all__: list[str] = []


class _Pool:
    """The values of one attribute in code order, and the code of each
    hashable value.  Only extensions of its ``owner`` lineage append to
    it, under that lineage's lock."""

    __slots__ = ("owner", "values", "codes")

    def __init__(self, owner: "_Lineage") -> None:
        self.owner = owner
        self.values: list[Any] = []
        self.codes: dict[Any, int] = {}

    def encode(self, values: Sequence[Any] | np.ndarray) -> np.ndarray:
        """The ``int32`` code of every value, appending the values not
        seen yet in first-seen order.  An unhashable value takes a new
        slot at every occurrence."""
        codes, pool = self.codes, self.values
        try:
            for value in dict.fromkeys(values):
                if value not in codes:
                    codes[value] = len(pool)
                    pool.append(value)
            return np.fromiter(map(codes.__getitem__, values), np.int32, len(values))
        except TypeError:
            pass
        out = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            try:
                code = codes.get(value)
            except TypeError:
                code = None
            if code is None:
                code = len(pool)
                pool.append(value)
                try:
                    codes[value] = code
                except TypeError:
                    pass
            out[i] = code
        return out


class _Lineage:
    """The append-only buffers, by name, that one chain of versions
    shares; each version reads its own prefix of every buffer.

    ``generation`` counts the extensions written into the buffers; only
    the version of the latest one, the tip, extends them in place
    (:func:`extending`).  Appended graphs (:mod:`repro.core.updates`)
    share their frames, endpoint rows and, in ``rows``, their node and
    edge labels and indexes by the same rule.
    """

    __slots__ = ("lock", "generation", "buffers", "rows")

    def __init__(
        self,
        buffers: dict[str, np.ndarray],
        rows: dict[str, SharedRows] | None = None,
    ) -> None:
        self.lock = threading.Lock()
        self.generation = 0
        self.buffers = buffers
        self.rows = rows or {}


@contextmanager
def extending(
    lineage: _Lineage | None, generation: int, fork: Callable[[], _Lineage]
) -> Iterator[_Lineage]:
    """The lineage that an extension of the version at ``generation`` of
    ``lineage`` writes into: ``lineage`` itself when that version is its
    tip, else ``fork()``, new buffers holding the version's own prefix
    (also for a version that has no lineage).

    The extension runs under ``lineage``'s lock, and the generation is
    advanced before it writes: a write that fails partway leaves no
    version at the tip, so the next extension forks.  Inside the block,
    the yielded lineage's ``generation`` is the new version's.
    """
    if lineage is None:
        lineage, generation = fork(), 0
    with lineage.lock:
        if lineage.generation != generation:
            lineage = fork()
        lineage.generation += 1
        yield lineage


def blank(shape: tuple[int, ...], dtype: np.dtype[Any]) -> np.ndarray:
    """An array that reads as absent everywhere: ``None`` for objects,
    zero otherwise."""
    if dtype == object:
        return np.full(shape, None, dtype=object)
    return np.zeros(shape, dtype=dtype)


def room(
    buffer: np.ndarray, used: tuple[int, ...], shape: tuple[int, ...]
) -> np.ndarray:
    """``buffer`` when it holds ``shape``, else a :func:`blank` buffer
    that does, at least twice as long on every axis ``shape`` outgrew,
    holding the same ``used`` prefix.  The prefix is never written."""
    if all(n <= size for n, size in zip(shape, buffer.shape)):
        return buffer
    grown = blank(
        tuple(
            size if n <= size else max(n, 2 * size)
            for n, size in zip(shape, buffer.shape)
        ),
        buffer.dtype,
    )
    prefix = tuple(map(slice, used))
    grown[prefix] = buffer[prefix]
    return grown


def _put(buffer: np.ndarray, used: int, extra: np.ndarray) -> np.ndarray:
    """``buffer`` with ``extra`` written after its first ``used`` items,
    in a :func:`room` buffer when it is full."""
    end = used + len(extra)
    buffer = room(buffer, (used,), (end,))
    buffer[used:end] = extra
    return buffer


#: The prefix of an attribute's code buffer name in a cell lineage.
_CODES = "codes:"


def _cell_lineage(
    node_indptr: np.ndarray,
    edge_indptr: np.ndarray,
    node_rows: np.ndarray,
    edge_rows: np.ndarray,
    codes: dict[str, np.ndarray],
) -> _Lineage:
    """A cell index's lineage over these buffers."""
    buffers = {
        "node_indptr": node_indptr,
        "edge_indptr": edge_indptr,
        "node_rows": node_rows,
        "edge_rows": edge_rows,
    }
    buffers.update((_CODES + name, array) for name, array in codes.items())
    return _Lineage(buffers)


def _increasing(values: np.ndarray) -> bool:
    """Whether ``values`` rise strictly."""
    return values.size < 2 or bool((values[1:] > values[:-1]).all())


def window_events(
    indptr: np.ndarray, positions: np.ndarray
) -> tuple[slice | np.ndarray, np.ndarray]:
    """The events of the time columns ``positions``, column by column:
    their ids (a slice for a run of adjacent columns) and the window
    column of each."""
    starts, stops = indptr[positions], indptr[positions + 1]
    counts = stops - starts
    cols = np.repeat(np.arange(positions.size), counts)
    if positions.size and bool((positions[1:] - positions[:-1] == 1).all()):
        return slice(int(starts[0]), int(stops[-1])), cols
    offsets = np.cumsum(counts) - counts
    return np.arange(cols.size) - (offsets - starts)[cols], cols


def _taken_events(
    indptr: np.ndarray,
    rows: np.ndarray,
    n_rows: int,
    kept: np.ndarray,
    positions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, rows, event ids)`` of the events at ``positions`` whose
    row is ``kept``, renumbered to positions in ``kept``, ascending
    within each column."""
    remap = np.full(n_rows, -1, dtype=np.int32)
    remap[kept] = np.arange(kept.size, dtype=np.int32)
    window, cols = window_events(indptr, positions)
    taken = remap[rows[window]]
    keep = np.flatnonzero(taken >= 0)
    taken, cols = taken[keep], cols[keep]
    events = keep + window.start if isinstance(window, slice) else window[keep]
    if not _increasing(kept):
        order = np.lexsort((taken, cols))
        events, cols, taken = events[order], cols[order], taken[order]
    new_indptr = np.searchsorted(cols, np.arange(positions.size + 1))
    return new_indptr.astype(np.int64), taken, events


class CellIndex:
    """One graph's present cells and attribute codes (see the module
    docstring).  Immutable once built: every accessor reads this
    version's prefix of the shared buffers."""

    __slots__ = (
        "_lineage",
        "_generation",
        "n_times",
        "n_nodes",
        "n_edges",
        "_node_events",
        "_edge_events",
        "static_names",
        "_pools",
    )

    def __init__(
        self,
        lineage: _Lineage,
        n_times: int,
        n_nodes: int,
        n_edges: int,
        node_events: int,
        edge_events: int,
        static_names: frozenset[str],
        pools: dict[str, tuple[_Pool, int]],
    ) -> None:
        self._lineage = lineage
        self._generation = lineage.generation
        self.n_times = n_times
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self._node_events = node_events
        self._edge_events = edge_events
        #: Names of the static attributes; every other pool is time-varying.
        self.static_names = static_names
        #: Attribute name -> (pool, the number of its values this index sees).
        self._pools = pools

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def node_indptr(self) -> np.ndarray:
        return self._lineage.buffers["node_indptr"][: self.n_times + 1]

    @property
    def edge_indptr(self) -> np.ndarray:
        return self._lineage.buffers["edge_indptr"][: self.n_times + 1]

    @property
    def node_rows(self) -> np.ndarray:
        return self._lineage.buffers["node_rows"][: self._node_events]

    @property
    def edge_rows(self) -> np.ndarray:
        return self._lineage.buffers["edge_rows"][: self._edge_events]

    def codes(self, name: str) -> np.ndarray:
        """A static attribute's code per node row, or a time-varying
        one's code per node event."""
        used = self.n_nodes if name in self.static_names else self._node_events
        return self._lineage.buffers[_CODES + name][:used]

    def pool(self, name: str) -> tuple[list[Any], int]:
        """An attribute's values in code order, and how many this index
        sees (codes run below it)."""
        pool, size = self._pools[name]
        return pool.values, size

    def decoded(self) -> dict[str, Any]:
        """The index in plain values: the rows present per time column,
        and each attribute's value per node row (static) or per node
        event (time-varying).  Equal for two indexes of equal frames,
        however each was built."""

        def columns(indptr: np.ndarray, rows: np.ndarray) -> list[list[int]]:
            bounds = indptr.tolist()
            return [rows[a:b].tolist() for a, b in zip(bounds, bounds[1:])]

        values = {}
        for name in self._pools:
            pool, _ = self.pool(name)
            values[name] = [pool[code] for code in self.codes(name).tolist()]
        return {
            "nodes": columns(self.node_indptr, self.node_rows),
            "edges": columns(self.edge_indptr, self.edge_rows),
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "static": sorted(self.static_names),
            "values": values,
        }

    # ------------------------------------------------------------------
    # Carrying
    # ------------------------------------------------------------------

    def extended(
        self,
        n_nodes: int,
        n_edges: int,
        node_rows: np.ndarray,
        edge_rows: np.ndarray,
        static: Mapping[str, np.ndarray],
        varying: Mapping[str, np.ndarray],
    ) -> "CellIndex":
        """The index of this graph grown by one time column.

        ``node_rows`` and ``edge_rows`` are the rows present in the new
        column, ascending; ``varying[name]`` holds their time-varying
        values, aligned with ``node_rows``; ``static[name]`` holds the
        static values of the new nodes ``self.n_nodes .. n_nodes - 1``.
        The shared buffers are extended in place when this index is
        their tip; otherwise this index's prefix is copied first
        (:func:`extending`), and no existing index reads anything
        different afterwards.
        """
        with extending(self._lineage, self._generation, self._fork) as lineage:
            buffers = lineage.buffers
            pools: dict[str, tuple[_Pool, int]] = {}
            for name, (pool, size) in self._pools.items():
                if pool.owner is not lineage:
                    copied = _Pool(lineage)
                    copied.encode(pool.values[:size])
                    pool = copied
                if name in self.static_names:
                    new, used = static[name], self.n_nodes
                else:
                    new, used = varying[name], self._node_events
                key = _CODES + name
                buffers[key] = _put(buffers[key], used, pool.encode(new))
                pools[name] = (pool, len(pool.values))
            node_events = self._node_events + len(node_rows)
            edge_events = self._edge_events + len(edge_rows)
            for key, used, new in (
                ("node_rows", self._node_events, node_rows),
                ("edge_rows", self._edge_events, edge_rows),
                ("node_indptr", self.n_times + 1, np.array([node_events])),
                ("edge_indptr", self.n_times + 1, np.array([edge_events])),
            ):
                buffers[key] = _put(buffers[key], used, new)
            return CellIndex(
                lineage,
                self.n_times + 1,
                n_nodes,
                n_edges,
                node_events,
                edge_events,
                self.static_names,
                pools,
            )

    def _fork(self) -> _Lineage:
        """A new lineage holding a copy of this index's prefixes."""
        return _cell_lineage(
            self.node_indptr.copy(),
            self.edge_indptr.copy(),
            self.node_rows.copy(),
            self.edge_rows.copy(),
            {name: self.codes(name).copy() for name in self._pools},
        )

    def taken(
        self,
        node_rows: np.ndarray,
        edge_rows: np.ndarray,
        positions: Sequence[int],
    ) -> "CellIndex":
        """The index of ``graph.take(node_rows, edge_rows, times)``, where
        ``positions`` are the timeline positions of ``times``: the events
        of kept rows at those columns, renumbered.  The derived index
        reads the same pools; its first extension copies them.  Only a
        view that must own an index derives one: one appended onto, one
        an ``EventCounter`` reads, or one pinned with ``with_storage``."""
        at = np.asarray(positions, dtype=np.intp)
        node_indptr, nodes, node_events = _taken_events(
            self.node_indptr, self.node_rows, self.n_nodes, node_rows, at
        )
        edge_indptr, edges, _ = _taken_events(
            self.edge_indptr, self.edge_rows, self.n_edges, edge_rows, at
        )
        codes = {
            name: self.codes(name)[node_rows if name in self.static_names else node_events]
            for name in self._pools
        }
        lineage = _cell_lineage(node_indptr, edge_indptr, nodes, edges, codes)
        return CellIndex(
            lineage,
            at.size,
            node_rows.size,
            edge_rows.size,
            nodes.size,
            edges.size,
            self.static_names,
            dict(self._pools),
        )


def build_cells(graph: "TemporalGraph") -> CellIndex:
    """The cell index of ``graph``, from its dense frames."""
    node_indptr, node_rows = _event_index(graph.node_presence.values)
    edge_indptr, edge_rows = _event_index(graph.edge_presence.values)
    times = np.repeat(np.arange(len(graph.timeline)), np.diff(node_indptr))
    lineage = _cell_lineage(node_indptr, edge_indptr, node_rows, edge_rows, {})
    pools: dict[str, tuple[_Pool, int]] = {}
    columns: list[tuple[Hashable, np.ndarray]] = [
        (label, graph.static_attrs.values[:, col])
        for col, label in enumerate(graph.static_attrs.col_labels)
    ]
    columns += [
        (name, frame.values[node_rows, times])
        for name, frame in graph.varying_attrs.items()
    ]
    for label, values in columns:
        pool = _Pool(lineage)
        lineage.buffers[_CODES + str(label)] = pool.encode(values.tolist())
        pools[str(label)] = (pool, len(pool.values))
    return CellIndex(
        lineage,
        len(graph.timeline),
        graph.n_nodes,
        graph.n_edges,
        node_rows.size,
        edge_rows.size,
        frozenset(str(label) for label in graph.static_attrs.col_labels),
        pools,
    )
