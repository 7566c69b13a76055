"""A 2-D array with labeled rows and columns, backed by numpy.

This is the storage primitive of Section 4 of the paper: the node presence
array **V** (rows = node ids, columns = time points), the edge presence
array **E** (rows = edge id pairs), the static attribute array **S**
(columns = attribute names) and one array per time-varying attribute
(columns = time points) are all :class:`LabeledFrame` instances.

The frame is deliberately small and explicit — it supports exactly the
operations the paper's algorithms require (column restriction, row
selection by boolean reductions over column subsets, row insertion by
label) plus generic conveniences (iteration, equality, copies).  It is
*not* a general dataframe; relational operations (unpivot / merge /
deduplicate / group-count, used by Algorithm 2) live in
:mod:`repro.frames.table`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, islice, repeat
from typing import Any

import numpy as np

from .errors import DuplicateLabelError, LabelError, ShapeError

__all__ = ["LabeledFrame"]


def _build_index(labels: Sequence[Hashable], axis: str) -> dict[Hashable, int]:
    """Map each label to its position, rejecting duplicates."""
    index = {label: position for position, label in enumerate(labels)}
    if len(index) != len(labels):
        seen: set[Hashable] = set()
        duplicates = [lbl for lbl in labels if lbl in seen or seen.add(lbl)]
        raise DuplicateLabelError(
            f"duplicate {axis} labels are not allowed: {duplicates[:5]!r}"
        )
    return index


class SharedRows:
    """Row labels that only ever grow at their end, and their label ->
    row index, which the frames of several versions share: each version
    reads its first ``n`` rows through a :class:`RowPrefix`.

    ``base`` and ``base_index`` are the first version's own label tuple
    and complete index, shared as they are; ``labels`` and ``index``
    hold the rows appended after them.  Only the writer at the chain's
    tip appends (under its lock, :func:`repro.core.cells.extending`).
    Readers look labels up and read positions below their ``n``; they
    never iterate ``index``, which a tip append may grow meanwhile.
    """

    __slots__ = ("base", "base_index", "labels", "index")

    def __init__(
        self,
        base: tuple[Hashable, ...],
        base_index: Mapping[Hashable, int],
        labels: list[Hashable] | None = None,
    ) -> None:
        self.base = base
        self.base_index = base_index
        self.labels: list[Hashable] = []
        self.index: dict[Hashable, int] = {}
        self.extend(labels or [])

    def extend(self, labels: list[Hashable]) -> None:
        """Append ``labels``, none of which this holds yet."""
        start = len(self.base) + len(self.labels)
        self.index.update(zip(labels, range(start, start + len(labels))))
        self.labels.extend(labels)

    def forked(self, n: int) -> "SharedRows":
        """New shared rows holding this one's first ``n``: the base is
        shared, the appended part copied."""
        return SharedRows(self.base, self.base_index, self.labels[: n - len(self.base)])


class RowPrefix(Mapping[Hashable, int]):
    """The first ``n`` rows of a :class:`SharedRows`: one version's row
    labels, in order, mapped to their rows.  Read-only; labels appended
    after them are not in it."""

    __slots__ = ("shared", "n", "_labels")

    def __init__(self, shared: SharedRows, n: int) -> None:
        self.shared = shared
        self.n = n
        self._labels: tuple[Hashable, ...] | None = None

    def labels(self) -> tuple[Hashable, ...]:
        """The labels as a tuple, built on the first call."""
        labels = self._labels
        if labels is None:
            shared = self.shared
            labels = shared.base
            if self.n > len(labels):
                labels = labels + tuple(shared.labels[: self.n - len(labels)])
            self._labels = labels
        return labels

    def get(self, label: Hashable, default: Any = None) -> Any:
        shared = self.shared
        row = shared.base_index.get(label)
        if row is None:
            row = shared.index.get(label)
            if row is None or row >= self.n:
                return default
        return row

    def __getitem__(self, label: Hashable) -> int:
        row = self.get(label)
        if row is None:
            raise LabelError(f"unknown row label: {label!r}")
        return row

    def __contains__(self, label: object) -> bool:
        return self.get(label) is not None

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Hashable]:
        shared = self.shared
        return chain(shared.base, islice(shared.labels, self.n - len(shared.base)))

    def rows(self, labels: list[Hashable]) -> np.ndarray:
        """The row of each of ``labels``, ``-1`` for one not held."""
        shared = self.shared
        rows = np.fromiter(
            map(shared.base_index.get, labels, repeat(-1)), np.intp, len(labels)
        )
        rest = np.flatnonzero(rows < 0)
        if rest.size and shared.labels:
            found = np.fromiter(
                map(shared.index.get, map(labels.__getitem__, rest.tolist()), repeat(-1)),
                np.intp,
                rest.size,
            )
            found[found >= self.n] = -1
            rows[rest] = found
        return rows

    def take(self, positions: np.ndarray) -> tuple[Hashable, ...]:
        """The labels at ``positions`` (each below ``n``), read in C from
        the base tuple and the appended list."""
        shared = self.shared
        base, split = shared.base, len(shared.base)
        low = positions < split
        first = int(np.count_nonzero(low))
        if not low[first:].any():  # base positions first, as in any sorted take
            return tuple(
                chain(
                    map(base.__getitem__, positions[:first].tolist()),
                    map(shared.labels.__getitem__, (positions[first:] - split).tolist()),
                )
            )
        high = ~low
        labels = np.empty(positions.size, dtype=object)
        labels[low] = np.fromiter(
            map(base.__getitem__, positions[low].tolist()), object, int(low.sum())
        )
        labels[high] = np.fromiter(
            map(shared.labels.__getitem__, (positions[high] - split).tolist()),
            object,
            int(high.sum()),
        )
        return tuple(labels.tolist())


class LabeledFrame:
    """An immutable-shape 2-D array with hashable row and column labels.

    Parameters
    ----------
    row_labels:
        Hashable identifiers for the rows, in order.  Must be unique.
    col_labels:
        Hashable identifiers for the columns, in order.  Must be unique.
    values:
        Anything :func:`numpy.asarray` accepts, of shape
        ``(len(row_labels), len(col_labels))``.  The array is copied so the
        frame owns its storage.
    dtype:
        Optional dtype override passed through to numpy.

    Examples
    --------
    >>> frame = LabeledFrame(["u1", "u2"], [2000, 2001], [[1, 0], [1, 1]])
    >>> frame.cell("u2", 2001)
    1
    >>> frame.rows_any([2000])
    ('u1', 'u2')
    """

    __slots__ = ("_row_labels", "_col_labels", "_values", "_row_index", "_col_index")

    def __init__(
        self,
        row_labels: Sequence[Hashable],
        col_labels: Sequence[Hashable],
        values: Any,
        dtype: Any = None,
    ) -> None:
        labels = tuple(row_labels)
        #: The row labels, or the :class:`RowPrefix` they are read from.
        self._row_labels: tuple[Hashable, ...] | RowPrefix = labels
        self._col_labels: tuple[Hashable, ...] = tuple(col_labels)
        array = np.array(values, dtype=dtype)
        if array.ndim == 1 and array.size == 0:
            array = array.reshape(len(labels), len(self._col_labels))
        if array.shape != (len(labels), len(self._col_labels)):
            raise ShapeError(
                f"values shape {array.shape} does not match labels "
                f"({len(labels)}, {len(self._col_labels)})"
            )
        self._values = array
        self._row_index: Mapping[Hashable, int] = _build_index(labels, "row")
        self._col_index: Mapping[Hashable, int] = _build_index(
            self._col_labels, "column"
        )

    @classmethod
    def _adopt(
        cls,
        row_labels: tuple[Hashable, ...] | RowPrefix,
        col_labels: tuple[Hashable, ...],
        values: np.ndarray,
        row_index: Mapping[Hashable, int],
        col_index: Mapping[Hashable, int] | None = None,
    ) -> "LabeledFrame":
        """A frame that owns ``values`` and the given label indexes as is.

        No copy and no shape or duplicate-label check: the caller hands
        over a freshly built array and indexes that match the labels and
        that nothing else mutates, so frames may share them.  A row
        index is either complete or an empty dict, and an empty one is
        filled on the first label lookup, in place, for every frame that
        shares it; a ``None`` column index is built (and validated) now.
        Rows read from shared rows pass their :class:`RowPrefix` as both
        the labels and the index.
        """
        frame = cls.__new__(cls)
        frame._row_labels, frame._col_labels = row_labels, col_labels
        frame._values, frame._row_index = values, row_index
        frame._col_index = (
            _build_index(col_labels, "column") if col_index is None else col_index
        )
        return frame

    def _rows(self) -> Mapping[Hashable, int]:
        """Row label -> position (filled lazily after :meth:`take`).  The
        labels are unique, so an index holding fewer entries is not
        filled yet; filling it twice writes the same entries."""
        index = self._row_index
        if len(index) < len(self._row_labels):
            assert isinstance(index, dict)
            index.update(zip(self._row_labels, range(len(self._row_labels))))
        return index

    def _prefix(self) -> RowPrefix:
        """This frame's rows as a :class:`RowPrefix`: its own, or shared
        rows whose base is its label tuple and (filled) index."""
        labels = self._row_labels
        if isinstance(labels, RowPrefix):
            return labels
        return RowPrefix(SharedRows(labels, self._rows()), len(labels))

    def _same_rows(self, other: "LabeledFrame") -> bool:
        """Whether ``other`` has the same row labels, in order; frames
        that share their rows compare without building a tuple."""
        return self._row_labels is other._row_labels or self.row_labels == other.row_labels

    def __reduce__(self) -> tuple[Any, ...]:
        # A frame over shared rows pickles its own labels only; the copy
        # fills a plain row index on its first label lookup.
        index = self._row_index
        return LabeledFrame._adopt, (
            self.row_labels,
            self._col_labels,
            self._values,
            {} if isinstance(index, RowPrefix) else index,
            self._col_index,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(
        cls, col_labels: Sequence[Hashable], dtype: Any = None
    ) -> "LabeledFrame":
        """A frame with the given columns and no rows."""
        width = len(tuple(col_labels))
        values = np.empty((0, width), dtype=dtype if dtype is not None else object)
        return cls((), col_labels, values)

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[Hashable, Sequence[Any]],
        col_labels: Sequence[Hashable],
        dtype: Any = None,
    ) -> "LabeledFrame":
        """Build a frame from a mapping ``row label -> row values``."""
        row_labels = tuple(rows)
        cols = tuple(col_labels)
        if not row_labels:
            return cls.empty(cols, dtype=dtype)
        data = []
        for label in row_labels:
            row = tuple(rows[label])
            if len(row) != len(cols):
                raise ShapeError(
                    f"row {label!r} has {len(row)} values, expected {len(cols)}"
                )
            data.append(row)
        array = np.empty((len(row_labels), len(cols)), dtype=dtype or object)
        for i, row in enumerate(data):
            for j, value in enumerate(row):
                array[i, j] = value
        return cls(row_labels, cols, array)

    @classmethod
    def zeros(
        cls,
        row_labels: Sequence[Hashable],
        col_labels: Sequence[Hashable],
        dtype: Any = np.uint8,
    ) -> "LabeledFrame":
        """An all-zero frame — the shape presence matrices start from."""
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        return cls(rows, cols, np.zeros((len(rows), len(cols)), dtype=dtype))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def row_labels(self) -> tuple[Hashable, ...]:
        """Row labels, in storage order."""
        labels = self._row_labels
        return labels if isinstance(labels, tuple) else labels.labels()

    @property
    def col_labels(self) -> tuple[Hashable, ...]:
        """Column labels, in storage order."""
        return self._col_labels

    @property
    def values(self) -> np.ndarray:
        """The underlying numpy array (a live view — treat as read-only)."""
        return self._values

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape  # type: ignore[return-value]

    @property
    def n_rows(self) -> int:
        return len(self._row_labels)

    @property
    def n_cols(self) -> int:
        return len(self._col_labels)

    def has_row(self, label: Hashable) -> bool:
        return label in self._rows()

    def has_col(self, label: Hashable) -> bool:
        return label in self._col_index

    def row_position(self, label: Hashable) -> int:
        """Storage position of a row label."""
        try:
            return self._rows()[label]
        except KeyError:
            raise LabelError(f"unknown row label: {label!r}") from None

    def col_position(self, label: Hashable) -> int:
        """Storage position of a column label."""
        try:
            return self._col_index[label]
        except KeyError:
            raise LabelError(f"unknown column label: {label!r}") from None

    # ------------------------------------------------------------------
    # Element / row access
    # ------------------------------------------------------------------

    def cell(self, row: Hashable, col: Hashable) -> Any:
        """The value stored at ``(row, col)``."""
        return self._values[self.row_position(row), self.col_position(col)]

    def row(self, label: Hashable) -> np.ndarray:
        """A copy of one row's values."""
        return self._values[self.row_position(label)].copy()

    def row_dict(self, label: Hashable) -> dict[Hashable, Any]:
        """One row as a ``column label -> value`` mapping."""
        row = self._values[self.row_position(label)]
        return dict(zip(self._col_labels, row))

    def column(self, label: Hashable) -> np.ndarray:
        """A copy of one column's values."""
        return self._values[:, self.col_position(label)].copy()

    def iter_rows(self) -> Iterator[tuple[Hashable, np.ndarray]]:
        """Yield ``(row label, row values view)`` pairs in order."""
        for label, row in zip(self._row_labels, self._values):
            yield label, row

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def restrict_cols(self, cols: Sequence[Hashable]) -> "LabeledFrame":
        """A new frame keeping only the given columns, in the given order.

        This is the paper's *time projection* on the storage level
        ("restricting the arrays to the columns corresponding to a given
        time interval", Section 4.1).
        """
        positions = [self.col_position(c) for c in cols]
        return LabeledFrame(
            self.row_labels, tuple(cols), self._values[:, positions].copy()
        )

    def select_rows(self, rows: Sequence[Hashable]) -> "LabeledFrame":
        """A new frame keeping only the given rows, in the given order."""
        return self.take([self.row_position(r) for r in rows])

    def take(
        self, rows: Sequence[int], cols: Sequence[Hashable] | None = None
    ) -> "LabeledFrame":
        """A new frame keeping the rows at the given *positions*, in the
        given order, and optionally only the given columns (in order).

        The positional counterpart of :meth:`select_rows` +
        :meth:`restrict_cols`, in one copy: the temporal operators take
        the ``np.flatnonzero`` positions of their presence masks.
        """
        positions = np.asarray(rows, dtype=np.intp)
        col_axis = None
        if cols is not None:
            labels = tuple(cols)
            col_axis = self._col_axis(labels, _build_index(labels, "column"))
        return self._taken(positions, self._row_axis(positions), col_axis)

    def _row_axis(
        self, positions: np.ndarray
    ) -> tuple[tuple[Hashable, ...], Mapping[Hashable, int]]:
        """The row labels at ``positions`` and their row index, for every
        frame taken at the same positions to share.  Unordered (possibly
        repeated) positions validate the labels now; increasing ones keep
        them unique, so the index waits for the first label lookup (most
        takes never see one)."""
        rows = self._row_labels
        if isinstance(rows, tuple):
            labels = tuple(map(rows.__getitem__, positions.tolist()))
        else:
            labels = rows.take(positions)
        if positions.size > 1 and not (np.diff(positions) > 0).all():
            return labels, _build_index(labels, "row")
        return labels, {}

    def _col_axis(
        self, labels: tuple[Hashable, ...], index: Mapping[Hashable, int]
    ) -> tuple[list[int], tuple[Hashable, ...], Mapping[Hashable, int]]:
        """The positions of the columns ``labels``, the labels and their
        column index ``index`` (unique labels), for every frame with
        these columns to share."""
        return [self.col_position(c) for c in labels], labels, index

    def _taken(
        self,
        positions: np.ndarray,
        row_axis: tuple[tuple[Hashable, ...], Mapping[Hashable, int]],
        col_axis: tuple[list[int], tuple[Hashable, ...], Mapping[Hashable, int]]
        | None = None,
    ) -> "LabeledFrame":
        """:meth:`take` over a :meth:`_row_axis` and a :meth:`_col_axis`
        (``None``: every column) that several frames share."""
        labels, row_index = row_axis
        if col_axis is None:
            return LabeledFrame._adopt(
                labels, self._col_labels, self._values[positions], row_index,
                self._col_index,
            )
        cols, col_labels, col_index = col_axis
        values = self._values[np.ix_(positions, cols)]
        return LabeledFrame._adopt(labels, col_labels, values, row_index, col_index)

    def select_rows_present(self, rows: Iterable[Hashable]) -> "LabeledFrame":
        """Like :meth:`select_rows` but silently skips unknown labels.

        Useful when intersecting an entity list with the rows actually
        stored (e.g. attribute rows for nodes that survived an operator).
        """
        index = self._rows()
        known = [r for r in rows if r in index]
        return self.select_rows(known)

    def mask_rows(self, mask: np.ndarray) -> "LabeledFrame":
        """A new frame keeping rows where ``mask`` is truthy."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_rows,):
            raise ShapeError(
                f"mask shape {mask.shape} does not match row count {self.n_rows}"
            )
        return self.take(np.flatnonzero(mask))

    # ------------------------------------------------------------------
    # Boolean reductions (presence-matrix queries)
    # ------------------------------------------------------------------

    def _col_positions(self, cols: Sequence[Hashable] | None) -> list[int]:
        if cols is None:
            return list(range(self.n_cols))
        return [self.col_position(c) for c in cols]

    def any_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row has a nonzero value in *any* given column.

        This is the selection rule of the union operator (Algorithm 1,
        line 4: ``if any V[v, t] = 1``).
        """
        positions = self._col_positions(cols)
        if not positions:
            return np.zeros(self.n_rows, dtype=bool)
        block = self._values[:, positions]
        return (block.astype(bool)).any(axis=1)

    def all_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row is nonzero in *every* given column.

        Used for intersection-semantics spans where an entity must exist
        throughout an interval.  With no columns the mask is all-True
        (vacuous truth), matching ``numpy.all`` over an empty axis.
        """
        positions = self._col_positions(cols)
        if not positions:
            return np.ones(self.n_rows, dtype=bool)
        block = self._values[:, positions]
        return (block.astype(bool)).all(axis=1)

    def none_mask(self, cols: Sequence[Hashable] | None = None) -> np.ndarray:
        """Boolean row mask: row is zero in *all* given columns.

        This is the exclusion rule of the difference operator
        (Section 4.1: "all V[v, t'] with t' in T2 are equal to 0").
        """
        return ~self.any_mask(cols)

    def rows_any(self, cols: Sequence[Hashable] | None = None) -> tuple[Hashable, ...]:
        """Labels of rows with a nonzero value in any given column."""
        mask = self.any_mask(cols)
        return tuple(lbl for lbl, keep in zip(self._row_labels, mask) if keep)

    def rows_all(self, cols: Sequence[Hashable] | None = None) -> tuple[Hashable, ...]:
        """Labels of rows nonzero in every given column."""
        mask = self.all_mask(cols)
        return tuple(lbl for lbl, keep in zip(self._row_labels, mask) if keep)

    def count_nonzero_by_row(
        self, cols: Sequence[Hashable] | None = None
    ) -> dict[Hashable, int]:
        """Per-row count of nonzero cells over the given columns.

        This powers the static-attribute fast path of non-distinct
        aggregation (Section 4.2): the multiplicity of a node/edge over an
        interval is the number of 1-columns in its presence row.
        """
        positions = self._col_positions(cols)
        if not positions:
            return {label: 0 for label in self._row_labels}
        counts = np.count_nonzero(
            self._values[:, positions].astype(bool), axis=1
        )
        return dict(zip(self._row_labels, counts.tolist()))

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------

    def concat_rows(self, other: "LabeledFrame") -> "LabeledFrame":
        """Stack another frame's rows under this one.

        Column labels must match exactly; row label sets must be disjoint.
        """
        if other.col_labels != self._col_labels:
            raise ShapeError(
                "cannot concat frames with different columns: "
                f"{self._col_labels!r} vs {other.col_labels!r}"
            )
        values = np.concatenate([self._values, other.values], axis=0)
        return LabeledFrame(self.row_labels + other.row_labels, self._col_labels, values)

    def copy(self) -> "LabeledFrame":
        return LabeledFrame(self.row_labels, self._col_labels, self._values.copy())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, label: Hashable) -> bool:
        return label in self._rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledFrame):
            return NotImplemented
        return (
            self._same_rows(other)
            and self._col_labels == other._col_labels
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return (
            f"LabeledFrame({self.n_rows} rows x {self.n_cols} cols, "
            f"dtype={self._values.dtype})"
        )

    def to_string(self, max_rows: int = 20) -> str:
        """A small aligned text rendering for reports and examples."""
        header = ["Id"] + [str(c) for c in self._col_labels]
        body: list[list[str]] = []
        for label, row in list(self.iter_rows())[:max_rows]:
            body.append([str(label)] + [str(v) for v in row])
        widths = [
            max(len(line[i]) for line in [header] + body) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(header, widths))]
        for line in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        if self.n_rows > max_rows:
            lines.append(f"... ({self.n_rows - max_rows} more rows)")
        return "\n".join(lines)
