"""The factorized numpy kernel behind aggregation and evolution.

:func:`repro.core.aggregate` and :func:`repro.core.aggregate_evolution`
run here.  For one window the kernel slices the present cells out of
the graph's time-major cell index (:mod:`repro.core.cells`), combines
their integer attribute codes into one dense *tuple code* per cell,
counts DIST over distinct ``(row, code)`` keys and ALL with
``np.bincount``, resolves edges through the graph's int32 endpoint rows
(its backend's, or the ones it carries, without building a backend),
and decodes only the distinct output keys.  A view (an operator result)
that has no index of its own is read through its source's index and
endpoint rows, keeping the cells of its rows at its time points, so an
aggregate over an operator result derives nothing.  The
paper's literal Algorithm 2 is the oracle it is diffed against
(:mod:`repro.testing.reference`).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import AggregationError, ValidationError
from ..storage.base import ViewSource
from .cells import CellIndex, window_events
from .graph import TemporalGraph

__all__ = [
    "WindowCells",
    "window_cells",
    "static_codes",
    "count_nodes",
    "count_edges",
    "evolution_counts",
    "check_no_dangling_edges",
]

#: Mixed-radix tuple keys are re-densified before they could overflow.
_KEY_LIMIT = 2**62

#: A key space at most this many times the key count is made dense with
#: ``np.bincount``; a wider one with ``np.unique``.
_BINCOUNT_SPAN = 4


@dataclass(frozen=True)
class WindowCells:
    """The present node cells of a window: node ``rows`` and window
    ``cols``, each cell's tuple ``codes``, the attribute tuple of each
    code, and ``grid`` -- the code at every ``(node row, column)``, ``-1``
    where the node is absent."""

    rows: np.ndarray
    cols: np.ndarray
    codes: np.ndarray
    tuples: list[tuple[Any, ...]]
    grid: np.ndarray


def _dense(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Codes ``0..k-1`` of the keys (each in ``[0, bound)``) in key order,
    and the ``k`` distinct keys."""
    if bound <= _BINCOUNT_SPAN * key.size + 64:
        seen = np.bincount(key, minlength=bound) > 0
        return (np.cumsum(seen) - 1)[key], np.flatnonzero(seen)
    distinct, codes = np.unique(key, return_inverse=True)
    return codes.reshape(key.shape), distinct


def _tuple_codes(
    layers: list[tuple[np.ndarray, list[Any], int]], n: int
) -> tuple[np.ndarray, list[tuple[Any, ...]]]:
    """One dense code per item from per-attribute ``(codes, pool values,
    pool size)`` layers, and the attribute tuple of each code."""
    key, bound = np.zeros(n, dtype=np.int64), 1
    for codes, _, radix in layers:
        radix = max(radix, 1)
        if bound > _KEY_LIMIT // radix:
            key, distinct = _dense(key, bound)
            bound = max(distinct.size, 1)
        key, bound = key * radix + codes, bound * radix
    codes, distinct = _dense(key, bound)
    first = np.empty(distinct.size, dtype=np.intp)
    first[codes] = np.arange(n)
    columns = [
        [values[c] for c in layer[first].tolist()] for layer, values, _ in layers
    ]
    return codes, list(zip(*columns))


def _layer(
    index: CellIndex, name: str, rows: np.ndarray, events: slice | np.ndarray
) -> tuple[np.ndarray, list[Any], int]:
    """The ``(codes, pool values, pool size)`` of one attribute at the
    node ``rows`` (static) or node ``events`` (time-varying)."""
    values, size = index.pool(name)
    if name in index.static_names:
        return index.codes(name)[rows], values, size
    return index.codes(name)[events], values, size


def _read(
    graph: TemporalGraph, positions: Sequence[int]
) -> tuple[CellIndex, ViewSource | None, np.ndarray]:
    """The index the kernel reads for ``graph``, the view whose rows it
    keeps (``None``: every row), and the index positions of ``graph``'s
    timeline ``positions``.  A view that has no index of its own is read
    through its source's; any other graph reads its own."""
    carried = graph._carried
    view = carried.source
    at = np.asarray(positions, dtype=np.intp)
    if view is None or carried.cells is not None:
        return graph._cell_index(), None, at
    return view.graph._cell_index(), view, view.positions[at]


def _kept(
    view: ViewSource,
    entity: str,
    events: slice | np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The events among ``events`` (at source ``rows`` and window
    ``cols``) of the rows ``view`` keeps: their ids, view rows, window
    columns and source rows."""
    mapped = view.row_map(entity)[rows]
    keep = np.flatnonzero(mapped >= 0)
    kept = keep + events.start if isinstance(events, slice) else events[keep]
    return kept, mapped[keep], cols[keep], rows[keep]


def window_cells(
    graph: TemporalGraph,
    attributes: Sequence[str],
    positions: Sequence[int],
) -> WindowCells:
    """The present node cells at timeline ``positions`` and their
    attribute tuples.  A present node whose time-varying value is
    ``None`` carries ``None`` in its tuple."""
    for name in attributes:
        graph.is_static(name)  # raises on an unknown attribute
    index, view, at = _read(graph, positions)
    events, cols = window_events(index.node_indptr, at)
    rows = source_rows = index.node_rows[events]
    if view is not None:
        events, rows, cols, source_rows = _kept(view, "nodes", events, rows, cols)
    layers = [_layer(index, name, source_rows, events) for name in attributes]
    codes, tuples = _tuple_codes(layers, rows.size)
    grid = np.full((graph.n_nodes, at.size), -1, dtype=np.int64)
    grid[rows, cols] = codes
    return WindowCells(rows, cols, codes, tuples, grid)


def static_codes(
    graph: TemporalGraph, attributes: Sequence[str], rows: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[Any, ...]]]:
    """The static attribute tuple of every node row (or of node ``rows``)
    as a dense code, and the tuple of each code."""
    for name in attributes:
        graph.static_attrs.col_position(name)  # raises unless static
    index = graph._cell_index()
    selected = np.arange(graph.n_nodes) if rows is None else np.asarray(rows)
    layers = [_layer(index, name, selected, selected) for name in attributes]
    return _tuple_codes(layers, selected.size)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (a sort beats numpy's hashing ``unique`` here)."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def _count(
    entities: np.ndarray, codes: np.ndarray, labels: list[Any], distinct: bool
) -> dict[Any, int]:
    """COUNT per label; DIST counts each ``(entity, code)`` once."""
    if distinct:
        n = max(len(labels), 1)
        codes = _distinct(entities.astype(np.int64) * n + codes) % n
    counts = np.bincount(codes, minlength=len(labels)).tolist()
    return {label: count for label, count in zip(labels, counts) if count}


def count_nodes(cells: WindowCells, distinct: bool) -> dict[tuple[Any, ...], int]:
    """Node weights over the scanned cells."""
    return _count(cells.rows, cells.codes, cells.tuples, distinct)


def _dangling_error(
    graph: TemporalGraph, row: int, error: type[ValidationError] = AggregationError
) -> ValidationError:
    """The taxonomy error naming dangling edge ``row`` and its missing node."""
    backend = graph.storage
    edge = backend.edge_labels[row]
    if not (isinstance(edge, tuple) and len(edge) == 2):
        problem = "is not a (source, target) pair"
    else:
        missing = edge[0] if graph._endpoint_rows()[0][row] < 0 else edge[1]
        problem = f"references node {missing!r} absent from node presence"
    return error(
        f"edge {edge!r} {problem}; the graph has dangling edges "
        f"(storage backend {backend.name!r})"
    )


def check_no_dangling_edges(
    graph: TemporalGraph,
    times: Sequence[Hashable] | None = None,
    error: type[ValidationError] = AggregationError,
) -> None:
    """Raise ``error`` if an edge present in the window (``None``: the
    whole timeline) lacks a node row, naming the first one in row order.

    The rule every aggregation engine shares: an aggregate raises if and
    only if a dangling edge is present in the aggregated window, so
    aggregating in place over a window fails exactly when aggregating
    the window's union graph does.  Exploration counts that read
    endpoint attributes apply it to the whole timeline.  Reads the
    endpoint rows the graph holds or carries, so a valid graph builds no
    storage backend here; the error names the backend.
    """
    src, dst = graph._endpoint_rows()
    unresolved = (src < 0) | (dst < 0)
    if unresolved.any():
        dangling = unresolved & graph.presence_mask("edges", times, "any")
        if dangling.any():
            raise _dangling_error(graph, int(np.argmax(dangling)), error)


def _edge_cells(
    graph: TemporalGraph,
    cells: WindowCells,
    positions: Sequence[int],
    strict: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Any]]:
    """``(edge rows, cols, pair codes, pairs)`` of the present edge
    cells whose endpoints are both present.

    A dangling edge present in the window raises when ``strict`` and is
    dropped otherwise.
    """
    index, view, at = _read(graph, positions)
    events, ecols = window_events(index.edge_indptr, at)
    erows = index.edge_rows[events]
    if view is None:
        src, dst = (rows[erows] for rows in graph._endpoint_rows())
    else:
        _, erows, ecols, source_rows = _kept(view, "edges", events, erows, ecols)
        nodes = view.row_map("nodes")
        src, dst = (nodes[rows[source_rows]] for rows in view.graph._endpoint_rows())
    resolved = (src >= 0) & (dst >= 0)
    if strict and not resolved.all():
        raise _dangling_error(graph, int(erows[~resolved].min()))
    erows, ecols = erows[resolved], ecols[resolved]
    source = cells.grid[src[resolved], ecols]
    target = cells.grid[dst[resolved], ecols]
    present = (source >= 0) & (target >= 0)
    n = max(len(cells.tuples), 1)
    codes, unique = _dense(source[present] * n + target[present], n * n)
    tuples = cells.tuples
    pairs = [(tuples[s], tuples[t]) for s, t in zip(unique // n, unique % n)]
    return erows[present], ecols[present], codes, pairs


def count_edges(
    graph: TemporalGraph,
    cells: WindowCells,
    positions: Sequence[int],
    distinct: bool,
) -> dict[tuple[tuple[Any, ...], tuple[Any, ...]], int]:
    """Edge weights over the window."""
    erows, _, codes, pairs = _edge_cells(graph, cells, positions, True)
    return _count(erows, codes, pairs, distinct)


def _events(
    entities: np.ndarray,
    codes: np.ndarray,
    in_old: np.ndarray,
    in_new: np.ndarray,
    labels: list[Any],
) -> dict[Any, tuple[int, int, int]]:
    """``(stability, growth, shrinkage)`` per label from the
    ``(entity, code)`` appearances seen in the old and new window."""
    n = max(len(labels), 1)
    keys = entities.astype(np.int64) * n + codes
    old, new = _distinct(keys[in_old]), _distinct(keys[in_new])
    kinds = (
        np.intersect1d(old, new, assume_unique=True),
        np.setdiff1d(new, old, assume_unique=True),
        np.setdiff1d(old, new, assume_unique=True),
    )
    counts = [np.bincount(k % n, minlength=len(labels)).tolist() for k in kinds]
    return {label: w for label, w in zip(labels, zip(*counts)) if any(w)}


def evolution_counts(
    graph: TemporalGraph,
    attributes: Sequence[str],
    old_positions: Sequence[int],
    new_positions: Sequence[int],
) -> tuple[dict[Any, tuple[int, int, int]], dict[Any, tuple[int, int, int]]]:
    """Node and edge ``(stability, growth, shrinkage)`` counts between two
    windows (Fig. 4b): ``(entity row, tuple code)`` appearances keyed with
    one code table over both windows.  An edge with a dangling or absent
    endpoint contributes no appearance."""
    positions = sorted(set(old_positions) | set(new_positions))
    in_old = np.isin(positions, list(old_positions))
    in_new = np.isin(positions, list(new_positions))
    cells = window_cells(graph, attributes, positions)
    erows, ecols, codes, pairs = _edge_cells(graph, cells, positions, False)
    nodes = _events(
        cells.rows, cells.codes, in_old[cells.cols], in_new[cells.cols], cells.tuples
    )
    return nodes, _events(erows, codes, in_old[ecols], in_new[ecols], pairs)
