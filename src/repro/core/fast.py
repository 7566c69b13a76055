"""The factorized numpy kernel behind aggregation and evolution.

:func:`repro.core.aggregate` and :func:`repro.core.aggregate_evolution`
run here.  For one window the kernel finds the present node cells with
``np.nonzero``, factorizes attribute values at those cells only into one
dense *tuple code* per cell, counts DIST over distinct ``(row, code)``
keys and ALL with ``np.bincount``, resolves edges through the storage
backend's int32 ``endpoint_rows``, and decodes only the distinct output
keys.  The paper's literal Algorithm 2 is the oracle it is diffed
against (:mod:`repro.testing.reference`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import AggregationError, ValidationError
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


def _factorize(values: Iterable[Any]) -> tuple[np.ndarray, list[Any]]:
    """Dense codes in first-seen order, and the value of each code."""
    items = list(values)
    index = {value: code for code, value in enumerate(dict.fromkeys(items))}
    codes = np.fromiter(map(index.__getitem__, items), np.int64, len(items))
    return codes, list(index)


def window_cells(
    graph: TemporalGraph,
    attributes: Sequence[str],
    positions: Sequence[int],
) -> WindowCells:
    """Factorize the attribute tuples of the nodes present at timeline
    ``positions``.  A present node whose time-varying value is ``None``
    carries ``None`` in its tuple."""
    at = np.asarray(positions, dtype=np.intp)
    rows, cols = np.nonzero(graph.node_presence.values[:, at])
    key, bound = np.zeros(rows.size, dtype=np.int64), 1
    layers = []
    for name in attributes:
        if graph.is_static(name):
            column = graph.static_attrs.column(name)
            present, inverse = np.unique(rows, return_inverse=True)
            codes, values = _factorize(column[present])
            codes = codes[inverse]
        else:
            codes, values = _factorize(graph.varying_attrs[name].values[rows, at[cols]])
        layers.append((codes, values))
        radix = max(len(values), 1)
        if bound > _KEY_LIMIT // radix:
            key, bound = np.unique(key, return_inverse=True)[1], rows.size
        key, bound = key * radix + codes, bound * radix
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    columns = [[values[c] for c in layer[first].tolist()] for layer, values in layers]
    grid = np.full((graph.n_nodes, at.size), -1, dtype=np.int64)
    grid[rows, cols] = codes
    return WindowCells(rows, cols, codes, list(zip(*columns)), grid)


def static_codes(
    graph: TemporalGraph, attributes: Sequence[str], rows: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[Any, ...]]]:
    """The static attribute tuple of every node row (or of node ``rows``)
    as a dense code in first-seen order, and the tuple of each code."""
    columns = [graph.static_attrs.column(name) for name in attributes]
    if rows is not None:
        columns = [column[rows] for column in columns]
    return _factorize(zip(*columns))


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
        codes = _distinct(entities * n + codes) % n
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
        missing = edge[0] if backend.endpoint_rows()[0][row] < 0 else edge[1]
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
    storage backend's ``endpoint_rows`` and names the backend in the
    error.
    """
    src, dst = graph.storage.endpoint_rows()
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
    block = graph.edge_presence.values[:, np.asarray(positions, np.intp)]
    erows, ecols = np.nonzero(block)
    src, dst = (rows[erows] for rows in graph.storage.endpoint_rows())
    resolved = (src >= 0) & (dst >= 0)
    if strict and not resolved.all():
        raise _dangling_error(graph, int(erows[np.argmin(resolved)]))
    erows, ecols = erows[resolved], ecols[resolved]
    source = cells.grid[src[resolved], ecols]
    target = cells.grid[dst[resolved], ecols]
    present = (source >= 0) & (target >= 0)
    n = max(len(cells.tuples), 1)
    unique, codes = np.unique(source[present] * n + target[present], return_inverse=True)
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
    keys = entities * n + codes
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
