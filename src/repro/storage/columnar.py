"""The compressed columnar backend (ROADMAP item 2).

Physical layout, per graph:

* **presence** — bit-packed boolean matrices (``np.packbits``, one bit
  per ``(entity, time)`` cell, 8x smaller than the dense ``uint8``
  arrays) *plus* a time-sorted event index in CSR form: ``time_indptr``
  (length ``T + 1``) delimits, inside the flat ``entity_idx`` array, the
  entities present at each time point.  Window reductions
  (:meth:`ColumnarBackend.presence_mask`) bincount the event slices of
  the window's columns — O(events in window), not O(entities x window) —
  and time slicing locates columns by binary search over the index;
* **adjacency** — per-edge source/target node rows resolved once into
  the two ``int32`` :meth:`~ColumnarBackend.endpoint_rows` arrays
  (``-1`` marks a dangling or malformed endpoint), so the aggregation
  kernel's dangling-edge check and endpoint grouping never touch a
  Python dict;
* **attributes** — object values factorized into narrow integer code
  matrices (``int8``/``int16``/``int32``, the smallest the pool fits in)
  plus small per-column object pools (``-1`` encodes the absent cells of
  Table 2), replacing 8-byte pointers per cell with 1-4 byte codes;
* **persistence** — :meth:`ColumnarBackend.save` writes every numeric
  array as a ``.npy`` file; :meth:`ColumnarBackend.open` reloads them
  with ``mmap_mode="r"``, so graphs larger than RAM load lazily and the
  mapping is enforced read-only.  A memmapped backend pickles as its
  *path* and reopens on unpickle, so another process that receives it —
  forked or spawned — shares the same pages instead of copying arrays
  (the GT007 fork-safety contract).

Every primitive is bit-exact with :class:`~repro.storage.dense.DenseBackend`;
the conformance suite (``tests/test_storage_conformance.py``) and the
``backend-storage`` fuzz law hold it to that.
"""

from __future__ import annotations

import pickle
from collections.abc import Hashable, Sequence
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from ..errors import LabelError, StorageError
from ..frames import LabeledFrame
from ..frames.labeled_frame import RowPrefix
from .base import CarriedState, GraphStorageBackend, StorageFrames, register_backend
from .dense import _object_array_nbytes

__all__ = ["ColumnarBackend"]

#: Layout version stamped into saved directories; bumped on any change
#: to the file set or array meanings.
_LAYOUT_VERSION = 1


def _code_dtype(pool_size: int) -> type:
    """The narrowest signed dtype holding codes ``-1 .. pool_size - 1``."""
    if pool_size < 2**7:
        return np.int8
    if pool_size < 2**15:
        return np.int16
    return np.int32


def _encode_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one object column/matrix into integer codes + a pool.

    ``None`` cells (the "-" of Table 2) become code ``-1``.  Codes are
    downcast to the narrowest signed dtype the pool fits in (a 4-8x
    footprint win over the 8-byte object pointers they replace).
    Unhashable values fall back to one pool slot per occurrence —
    correctness over compression.
    """
    flat = values.ravel()
    codes = np.empty(flat.shape[0], dtype=np.int32)
    pool: list[Any] = []
    code_of: dict[Any, int] = {}
    for i, value in enumerate(flat):
        if value is None:
            codes[i] = -1
            continue
        try:
            code = code_of.get(value)
        except TypeError:
            code = None
        if code is None:
            code = len(pool)
            pool.append(value)
            try:
                code_of[value] = code
            except TypeError:
                pass
        codes[i] = code
    pool_array = np.empty(len(pool), dtype=object)
    for i, value in enumerate(pool):
        pool_array[i] = value
    narrow = codes.astype(_code_dtype(len(pool)))
    return narrow.reshape(values.shape), pool_array


def _decode(codes: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The object array a code matrix + pool factorized from."""
    out = np.empty(codes.shape, dtype=object)
    mask = np.asarray(codes) >= 0
    if pool.shape[0]:
        out[mask] = pool[np.asarray(codes)[mask]]
    return out


def _event_index(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-sorted event CSR of a boolean presence matrix.

    Returns ``(time_indptr, entity_idx)``: entities present at time
    column ``t`` are ``entity_idx[time_indptr[t]:time_indptr[t + 1]]``.
    """
    n_times = matrix.shape[1]
    tcols, rows = np.nonzero(matrix.T)
    time_indptr = np.searchsorted(tcols, np.arange(n_times + 1))
    return time_indptr.astype(np.int64), rows.astype(np.int32)


def _pack(matrix: np.ndarray) -> np.ndarray:
    packed = np.packbits(matrix.astype(bool), axis=1)
    packed.flags.writeable = False
    return packed


def _labels(rows: tuple[Hashable, ...] | RowPrefix) -> tuple[Hashable, ...]:
    """The labels of ``rows`` as a tuple (a :class:`RowPrefix` builds it
    on the first call)."""
    return rows if isinstance(rows, tuple) else rows.labels()


def _freeze(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:
        array.flags.writeable = False
    return array


@register_backend
class ColumnarBackend(GraphStorageBackend):
    """Bit-packed, time-indexed, factorized columnar layout."""

    name: ClassVar[str] = "columnar"

    def __init__(
        self,
        times: tuple[Hashable, ...],
        node_labels: tuple[Hashable, ...] | RowPrefix,
        edge_labels: tuple[Hashable, ...] | RowPrefix,
        node_packed: np.ndarray,
        edge_packed: np.ndarray,
        node_index_arrays: tuple[np.ndarray, np.ndarray],
        edge_index_arrays: tuple[np.ndarray, np.ndarray],
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        static_names: tuple[str, ...],
        static_codes: np.ndarray,
        static_pools: tuple[np.ndarray, ...],
        varying_names: tuple[str, ...],
        varying_codes: dict[str, np.ndarray],
        varying_pools: dict[str, np.ndarray],
        edge_attr_names: tuple[str, ...] | None,
        edge_attr_codes: np.ndarray | None,
        edge_attr_pools: tuple[np.ndarray, ...],
        path: str | None = None,
        mmap: bool = False,
    ) -> None:
        self._times = times
        #: The labels, or the shared rows of an appended version's frames,
        #: whose tuple is built on the first read of ``node_labels`` or
        #: ``edge_labels``.
        self._node_labels = node_labels
        self._edge_labels = edge_labels
        self._time_index = {t: i for i, t in enumerate(times)}
        self._node_packed = _freeze(node_packed)
        self._edge_packed = _freeze(edge_packed)
        self._node_indptr, self._node_idx = (
            _freeze(node_index_arrays[0]),
            _freeze(node_index_arrays[1]),
        )
        self._edge_indptr, self._edge_idx = (
            _freeze(edge_index_arrays[0]),
            _freeze(edge_index_arrays[1]),
        )
        self._src_rows = _freeze(src_rows)
        self._dst_rows = _freeze(dst_rows)
        self._static_names = static_names
        self._static_codes = _freeze(static_codes)
        self._static_pools = static_pools
        self._varying_names = varying_names
        self._varying_codes = {
            name: _freeze(codes) for name, codes in varying_codes.items()
        }
        self._varying_pools = dict(varying_pools)
        self._edge_attr_names = edge_attr_names
        self._edge_attr_codes = (
            _freeze(edge_attr_codes) if edge_attr_codes is not None else None
        )
        self._edge_attr_pools = edge_attr_pools
        #: Directory this backend was opened from (memmapped backends
        #: pickle as their path and reopen, so workers share pages).
        self._path = path
        self._mmap = mmap

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: StorageFrames) -> "ColumnarBackend":
        return cls._from_frames(frames, CarriedState())

    @classmethod
    def _from_frames(
        cls, frames: StorageFrames, carried: CarriedState
    ) -> "ColumnarBackend":
        node_bool = frames.node_presence.values.astype(bool)
        edge_bool = frames.edge_presence.values.astype(bool)
        node_labels = frames.node_presence._row_labels
        edge_labels = frames.edge_presence._row_labels

        src, dst = carried.endpoint_rows(frames)

        static_names = tuple(str(c) for c in frames.static_attrs.col_labels)
        static_values = frames.static_attrs.values
        static_codes = np.empty(
            (len(node_labels), len(static_names)), dtype=np.int32
        )
        static_pools: list[np.ndarray] = []
        for col in range(len(static_names)):
            codes, pool = _encode_column(static_values[:, col])
            static_codes[:, col] = codes
            static_pools.append(pool)

        varying_codes: dict[str, np.ndarray] = {}
        varying_pools: dict[str, np.ndarray] = {}
        for vname, frame in frames.varying_attrs.items():
            codes, pool = _encode_column(frame.values)
            varying_codes[vname] = codes
            varying_pools[vname] = pool

        edge_attr_names: tuple[str, ...] | None = None
        edge_attr_codes: np.ndarray | None = None
        edge_attr_pools: list[np.ndarray] = []
        if frames.edge_attrs is not None:
            edge_attr_names = tuple(
                str(c) for c in frames.edge_attrs.col_labels
            )
            edge_attr_codes = np.empty(
                (len(edge_labels), len(edge_attr_names)), dtype=np.int32
            )
            for col in range(len(edge_attr_names)):
                codes, pool = _encode_column(frames.edge_attrs.values[:, col])
                edge_attr_codes[:, col] = codes
                edge_attr_pools.append(pool)

        return cls(
            times=frames.times,
            node_labels=node_labels,
            edge_labels=edge_labels,
            node_packed=_pack(node_bool),
            edge_packed=_pack(edge_bool),
            node_index_arrays=_event_index(node_bool),
            edge_index_arrays=_event_index(edge_bool),
            src_rows=src,
            dst_rows=dst,
            static_names=static_names,
            static_codes=static_codes,
            static_pools=tuple(static_pools),
            varying_names=tuple(varying_codes),
            varying_codes=varying_codes,
            varying_pools=varying_pools,
            edge_attr_names=edge_attr_names,
            edge_attr_codes=edge_attr_codes,
            edge_attr_pools=tuple(edge_attr_pools),
        )

    def to_frames(self) -> StorageFrames:
        times = self._times
        node_labels, edge_labels = self.node_labels, self.edge_labels
        node_presence = LabeledFrame(
            node_labels, times, self.presence_matrix("nodes").astype(np.uint8)
        )
        edge_presence = LabeledFrame(
            edge_labels, times, self.presence_matrix("edges").astype(np.uint8)
        )
        static_values = np.empty(
            (len(self._node_labels), len(self._static_names)), dtype=object
        )
        for col, pool in enumerate(self._static_pools):
            static_values[:, col] = _decode(self._static_codes[:, col], pool)
        static_attrs = LabeledFrame(node_labels, self._static_names, static_values)
        varying_attrs = {
            name: LabeledFrame(
                node_labels,
                times,
                _decode(self._varying_codes[name], self._varying_pools[name]),
            )
            for name in self._varying_names
        }
        edge_attrs: LabeledFrame | None = None
        if self._edge_attr_names is not None:
            assert self._edge_attr_codes is not None
            attr_values = np.empty(
                (len(self._edge_labels), len(self._edge_attr_names)),
                dtype=object,
            )
            for col, pool in enumerate(self._edge_attr_pools):
                attr_values[:, col] = _decode(
                    self._edge_attr_codes[:, col], pool
                )
            edge_attrs = LabeledFrame(edge_labels, self._edge_attr_names, attr_values)
        return StorageFrames(
            times=times,
            node_presence=node_presence,
            edge_presence=edge_presence,
            static_attrs=static_attrs,
            varying_attrs=varying_attrs,
            edge_attrs=edge_attrs,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def times(self) -> tuple[Hashable, ...]:
        return self._times

    @property
    def node_labels(self) -> tuple[Hashable, ...]:
        return _labels(self._node_labels)

    @property
    def edge_labels(self) -> tuple[Hashable, ...]:
        return _labels(self._edge_labels)

    @property
    def path(self) -> str | None:
        """Directory this backend is persisted at (``None`` = in-RAM)."""
        return self._path

    @property
    def is_memmapped(self) -> bool:
        return self._mmap

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _time_position(self, label: Hashable) -> int:
        try:
            return self._time_index[label]
        except KeyError:
            raise LabelError(f"unknown column label: {label!r}") from None

    def _entity_arrays(
        self, entity: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        if entity == "nodes":
            return (
                self._node_packed,
                self._node_indptr,
                self._node_idx,
                len(self._node_labels),
            )
        if entity == "edges":
            return (
                self._edge_packed,
                self._edge_indptr,
                self._edge_idx,
                len(self._edge_labels),
            )
        raise StorageError(
            f"unknown entity {entity!r}; expected 'nodes' or 'edges'"
        )

    def presence_mask(
        self,
        entity: str,
        times: Sequence[Hashable] | None = None,
        mode: str = "any",
    ) -> np.ndarray:
        self._check_mode(mode)
        _, indptr, idx, n = self._entity_arrays(entity)
        if times is None:
            positions: Sequence[int] = range(len(self._times))
        else:
            positions = [self._time_position(t) for t in times]
        # Duplicate window labels reduce identically to their set under
        # any/all/none, matching the dense elementwise semantics.
        unique = sorted(set(positions))
        if not unique:
            if mode == "any":
                return np.zeros(n, dtype=bool)
            return np.ones(n, dtype=bool)
        parts = [idx[indptr[p] : indptr[p + 1]] for p in unique]
        events = np.concatenate(parts) if len(parts) > 1 else parts[0]
        counts = np.bincount(events, minlength=n)
        if mode == "all":
            return counts == len(unique)
        any_mask = counts > 0
        return any_mask if mode == "any" else ~any_mask

    def presence_matrix(self, entity: str) -> np.ndarray:
        packed, _, _, n = self._entity_arrays(entity)
        n_times = len(self._times)
        if n == 0 or n_times == 0:
            return np.zeros((n, n_times), dtype=bool)
        return np.unpackbits(
            np.asarray(packed), axis=1, count=n_times
        ).astype(bool)

    def slice_time(self, times: Sequence[Hashable]) -> "ColumnarBackend":
        positions = [self._time_position(t) for t in times]
        node_bool = self.presence_matrix("nodes")[:, positions]
        edge_bool = self.presence_matrix("edges")[:, positions]
        varying_codes = {
            name: np.ascontiguousarray(
                np.asarray(self._varying_codes[name])[:, positions]
            )
            for name in self._varying_names
        }
        return ColumnarBackend(
            times=tuple(times),
            node_labels=self._node_labels,
            edge_labels=self._edge_labels,
            node_packed=_pack(node_bool),
            edge_packed=_pack(edge_bool),
            node_index_arrays=_event_index(node_bool),
            edge_index_arrays=_event_index(edge_bool),
            src_rows=np.asarray(self._src_rows).copy(),
            dst_rows=np.asarray(self._dst_rows).copy(),
            static_names=self._static_names,
            static_codes=np.asarray(self._static_codes).copy(),
            static_pools=self._static_pools,
            varying_names=self._varying_names,
            varying_codes=varying_codes,
            varying_pools=dict(self._varying_pools),
            edge_attr_names=self._edge_attr_names,
            edge_attr_codes=(
                np.asarray(self._edge_attr_codes).copy()
                if self._edge_attr_codes is not None
                else None
            ),
            edge_attr_pools=self._edge_attr_pools,
        )

    def attribute_column(
        self, name: str, time: Hashable | None = None
    ) -> np.ndarray:
        if name in self._varying_codes:
            if time is None:
                raise StorageError(
                    f"attribute {name!r} is time-varying; a time point is required"
                )
            pos = self._time_position(time)
            return _decode(
                np.asarray(self._varying_codes[name])[:, pos],
                self._varying_pools[name],
            )
        if name in self._static_names:
            if time is not None:
                raise StorageError(
                    f"attribute {name!r} is static; time must be None"
                )
            col = self._static_names.index(name)
            return _decode(
                np.asarray(self._static_codes)[:, col], self._static_pools[col]
            )
        raise LabelError(f"unknown attribute {name!r}")

    def endpoint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self._src_rows), np.asarray(self._dst_rows)

    def _resolved_endpoint_rows(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self.endpoint_rows()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        arrays = [
            self._node_packed,
            self._edge_packed,
            self._node_indptr,
            self._node_idx,
            self._edge_indptr,
            self._edge_idx,
            self._src_rows,
            self._dst_rows,
            self._static_codes,
            *self._varying_codes.values(),
        ]
        if self._edge_attr_codes is not None:
            arrays.append(self._edge_attr_codes)
        total = sum(int(np.asarray(a).nbytes) for a in arrays)
        for pool in (
            *self._static_pools,
            *self._varying_pools.values(),
            *self._edge_attr_pools,
        ):
            total += _object_array_nbytes(pool)
        return total

    # ------------------------------------------------------------------
    # Persistence (np.memmap)
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the layout into a directory; returns the directory.

        Numeric arrays become individual ``.npy`` files (so
        :meth:`open` can memory-map each one); labels, names and the
        small object pools travel in a pickled sidecar.
        """
        target = Path(path)
        target.mkdir(parents=True, exist_ok=True)
        numeric = self._numeric_arrays()
        for fname, array in numeric.items():
            np.save(target / f"{fname}.npy", np.asarray(array))
        meta = {
            "layout_version": _LAYOUT_VERSION,
            "times": self._times,
            "node_labels": self.node_labels,
            "edge_labels": self.edge_labels,
            "static_names": self._static_names,
            "static_pools": self._static_pools,
            "varying_names": self._varying_names,
            "varying_pools": self._varying_pools,
            "edge_attr_names": self._edge_attr_names,
            "edge_attr_pools": self._edge_attr_pools,
            "has_edge_attr_codes": self._edge_attr_codes is not None,
            "numeric_files": tuple(numeric),
        }
        with (target / "meta.pkl").open("wb") as handle:
            pickle.dump(meta, handle)
        return target

    @classmethod
    def open(cls, path: str | Path, mmap: bool = True) -> "ColumnarBackend":
        """Reopen a saved layout, memory-mapping the numeric arrays.

        With ``mmap=True`` every numeric array is a read-only
        ``np.memmap`` view — pages load lazily and are shared between
        processes mapping the same files; writes raise.
        """
        source = Path(path)
        try:
            with (source / "meta.pkl").open("rb") as handle:
                meta = pickle.load(handle)
        except (OSError, pickle.UnpicklingError) as exc:
            raise StorageError(
                f"cannot open columnar graph at {source}: {exc}"
            ) from None
        if meta.get("layout_version") != _LAYOUT_VERSION:
            raise StorageError(
                f"columnar layout at {source} has version "
                f"{meta.get('layout_version')!r}; this build reads "
                f"{_LAYOUT_VERSION}"
            )
        mode = "r" if mmap else None
        arrays: dict[str, np.ndarray] = {}
        for fname in meta["numeric_files"]:
            try:
                arrays[fname] = np.load(source / f"{fname}.npy", mmap_mode=mode)
            except (OSError, ValueError) as exc:
                raise StorageError(
                    f"cannot load array {fname!r} at {source}: {exc}"
                ) from None
        varying_codes = {
            name: arrays[f"varying_codes_{i}"]
            for i, name in enumerate(meta["varying_names"])
        }
        return cls(
            times=meta["times"],
            node_labels=meta["node_labels"],
            edge_labels=meta["edge_labels"],
            node_packed=arrays["node_packed"],
            edge_packed=arrays["edge_packed"],
            node_index_arrays=(arrays["node_indptr"], arrays["node_idx"]),
            edge_index_arrays=(arrays["edge_indptr"], arrays["edge_idx"]),
            src_rows=arrays["src_rows"],
            dst_rows=arrays["dst_rows"],
            static_names=meta["static_names"],
            static_codes=arrays["static_codes"],
            static_pools=meta["static_pools"],
            varying_names=meta["varying_names"],
            varying_codes=varying_codes,
            varying_pools=meta["varying_pools"],
            edge_attr_names=meta["edge_attr_names"],
            edge_attr_codes=(
                arrays["edge_attr_codes"]
                if meta["has_edge_attr_codes"]
                else None
            ),
            edge_attr_pools=meta["edge_attr_pools"],
            path=str(source),
            mmap=mmap,
        )

    def _numeric_arrays(self) -> dict[str, np.ndarray]:
        numeric: dict[str, np.ndarray] = {
            "node_packed": self._node_packed,
            "edge_packed": self._edge_packed,
            "node_indptr": self._node_indptr,
            "node_idx": self._node_idx,
            "edge_indptr": self._edge_indptr,
            "edge_idx": self._edge_idx,
            "src_rows": self._src_rows,
            "dst_rows": self._dst_rows,
            "static_codes": self._static_codes,
        }
        for i, name in enumerate(self._varying_names):
            numeric[f"varying_codes_{i}"] = self._varying_codes[name]
        if self._edge_attr_codes is not None:
            numeric["edge_attr_codes"] = self._edge_attr_codes
        return numeric

    # ------------------------------------------------------------------
    # Pickling (fork/spawn worker transport, GT007)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        if self._path is not None:
            # A persisted backend ships as its path: the receiving
            # process maps the same files instead of copying arrays.
            return {"path": self._path, "mmap": self._mmap}
        state = dict(self.__dict__)
        # Materialize any views and shared rows so the pickle is
        # self-contained.
        state["_node_labels"] = self.node_labels
        state["_edge_labels"] = self.edge_labels
        state["_node_packed"] = np.asarray(self._node_packed).copy()
        state["_edge_packed"] = np.asarray(self._edge_packed).copy()
        return {"state": state}

    def __setstate__(self, payload: dict[str, Any]) -> None:
        if "path" in payload:
            reopened = type(self).open(payload["path"], mmap=payload["mmap"])
            self.__dict__.update(reopened.__dict__)
            return
        self.__dict__.update(payload["state"])
