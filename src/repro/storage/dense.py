"""The dense backend: the existing ``LabeledFrame`` path, unchanged.

This backend *is* the Section-4 layout — it wraps the graph's frames
without copying and delegates every primitive to the frame methods the
operators have always used, so it is bit-exact with the pre-substrate
behavior by construction.  It exists to anchor the conformance suite:
every other backend is measured against this one.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Any, ClassVar

import numpy as np

from ..errors import LabelError, StorageError
from .base import (
    GraphStorageBackend,
    StorageFrames,
    register_backend,
    resolve_endpoint_rows,
)

__all__ = ["DenseBackend"]


@register_backend
class DenseBackend(GraphStorageBackend):
    """Dense row-major presence matrices and object attribute arrays."""

    name: ClassVar[str] = "dense"

    def __init__(self, frames: StorageFrames) -> None:
        self._frames = frames
        #: ``endpoint_rows`` arrays, resolved on first use: most graphs
        #: an operator derives are only masked, never aggregated.
        self._endpoints: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction / round-trip
    # ------------------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: StorageFrames) -> "DenseBackend":
        return cls(frames)

    def to_frames(self) -> StorageFrames:
        frames = self._frames
        return StorageFrames(
            times=frames.times,
            node_presence=frames.node_presence,
            edge_presence=frames.edge_presence,
            static_attrs=frames.static_attrs,
            varying_attrs=dict(frames.varying_attrs),
            edge_attrs=frames.edge_attrs,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def times(self) -> tuple[Hashable, ...]:
        return self._frames.times

    @property
    def node_labels(self) -> tuple[Hashable, ...]:
        return self._frames.node_presence.row_labels

    @property
    def edge_labels(self) -> tuple[Hashable, ...]:
        return self._frames.edge_presence.row_labels

    # ------------------------------------------------------------------
    # Physical primitives
    # ------------------------------------------------------------------

    def _presence_frame(self, entity: str) -> Any:
        if entity == "nodes":
            return self._frames.node_presence
        if entity == "edges":
            return self._frames.edge_presence
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
        frame = self._presence_frame(entity)
        if mode == "any":
            return frame.any_mask(times)
        if mode == "all":
            return frame.all_mask(times)
        return frame.none_mask(times)

    def presence_matrix(self, entity: str) -> np.ndarray:
        return self._presence_frame(entity).values.astype(bool)

    def slice_time(self, times: Sequence[Hashable]) -> "DenseBackend":
        frames = self._frames
        return DenseBackend(
            StorageFrames(
                times=tuple(times),
                node_presence=frames.node_presence.restrict_cols(times),
                edge_presence=frames.edge_presence.restrict_cols(times),
                static_attrs=frames.static_attrs,
                varying_attrs={
                    name: frame.restrict_cols(times)
                    for name, frame in frames.varying_attrs.items()
                },
                edge_attrs=frames.edge_attrs,
            )
        )

    def attribute_column(
        self, name: str, time: Hashable | None = None
    ) -> np.ndarray:
        frames = self._frames
        if name in frames.varying_attrs:
            if time is None:
                raise StorageError(
                    f"attribute {name!r} is time-varying; a time point is required"
                )
            return frames.varying_attrs[name].column(time)
        if frames.static_attrs.has_col(name):
            if time is not None:
                raise StorageError(
                    f"attribute {name!r} is static; time must be None"
                )
            return frames.static_attrs.column(name)
        raise LabelError(f"unknown attribute {name!r}")

    def endpoint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._endpoints is None:
            self._endpoints = resolve_endpoint_rows(
                self.node_labels, self.edge_labels
            )
        return self._endpoints

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        frames = self._frames
        total = int(frames.node_presence.values.nbytes)
        total += int(frames.edge_presence.values.nbytes)
        total += _object_array_nbytes(frames.static_attrs.values)
        for frame in frames.varying_attrs.values():
            total += _object_array_nbytes(frame.values)
        if frames.edge_attrs is not None:
            total += _object_array_nbytes(frames.edge_attrs.values)
        return total


def _object_array_nbytes(values: np.ndarray) -> int:
    """Array payload plus the boxed objects the cells point to.

    An ``object`` array's ``nbytes`` counts only the pointers; the boxed
    values dominate the resident footprint, so each *distinct* boxed
    object is counted once via ``sys.getsizeof`` — interning shared by
    the columnar pool is thereby credited to both layouts consistently.
    """
    import sys

    total = int(values.nbytes)
    if values.dtype == object:
        seen: set[int] = set()
        for value in values.ravel():
            if value is not None and id(value) not in seen:
                seen.add(id(value))
                total += sys.getsizeof(value)
    return total
