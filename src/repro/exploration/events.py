"""Event definition and counting (``result(G)``, Section 3).

Three event kinds are derived from an ordered pair of sides
``(old, new)``:

* **stability** — entities qualifying on both sides (the intersection
  graph of the pair);
* **growth** — entities qualifying on the new side but not the old
  (``T_new - T_old``);
* **shrinkage** — entities qualifying on the old side but not the new
  (``T_old - T_new``).

``result(G)`` is the number of events of interest in the aggregate of the
event graph: either the total entity count, or — as in the paper's
Figures 13/14, which track female-female edges — the DIST weight of one
aggregate entity.  :class:`EventCounter` precomputes, with array
operations, the counted entity's presence matrix and the attributes'
integer tuple codes (per entity for static attributes, per ``(entity,
time)`` cell for time-varying ones), so a single count is a handful of
vectorized mask operations; exploration runs thousands of counts.

:class:`ChainEvaluator` goes one step further for the exploration
workload itself: along one semi-lattice extension chain, consecutive
pairs differ by exactly one base time point, so the extended side's
qualification mask can be maintained with a single OR/AND per step
instead of re-reducing the whole growing window.
"""

from __future__ import annotations

import copy
import enum
from collections.abc import Hashable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import Interval, TemporalGraph
from ..core.fast import check_no_dangling_edges, static_codes, window_cells
from .lattice import ExtendSide, Semantics, Side
from ..errors import ExplorationError
from ..obs.metrics import get_metrics

__all__ = [
    "EventType",
    "EntityKind",
    "EventCounter",
    "ChainEvaluator",
    "ChainStep",
    "event_mask_from",
    "static_match_mask",
]

#: Sentinel tuple code for a key whose tuple never occurs in the graph:
#: distinct from every assigned code (>= 0) and from the "entity absent"
#: marker (-1), so comparisons against it match nothing.
_UNSEEN_CODE = -2


class EventType(enum.Enum):
    """The three evolution event kinds (Section 3)."""

    STABILITY = "stability"
    GROWTH = "growth"
    SHRINKAGE = "shrinkage"

    def __str__(self) -> str:
        return self.value


class EntityKind(enum.Enum):
    """Which entities an exploration counts events over."""

    NODES = "nodes"
    EDGES = "edges"

    def __str__(self) -> str:
        return self.value


def event_mask_from(
    event: EventType, old_mask: np.ndarray, new_mask: np.ndarray
) -> np.ndarray:
    """Combine two side-qualification masks into the event-entity mask.

    Public because it *is* the lattice-to-operator correspondence the
    metamorphic laws check: stability is the intersection mask, growth
    the ``new - old`` difference mask, shrinkage the reverse.
    """
    if event is EventType.STABILITY:
        return old_mask & new_mask
    if event is EventType.GROWTH:
        return new_mask & ~old_mask
    return old_mask & ~new_mask


def _pair_codes(
    codes: np.ndarray, src: np.ndarray, dst: np.ndarray, base: int
) -> np.ndarray:
    """Endpoint tuple codes combined into one pair code per edge row (per
    ``(row, time)`` cell for a code grid); ``-1`` where an endpoint is
    unresolved or absent."""
    resolved = (src >= 0) & (dst >= 0)
    pairs = np.full((src.size, *codes.shape[1:]), -1, dtype=np.int64)
    s, t = codes[src[resolved]], codes[dst[resolved]]
    pairs[resolved] = np.where((s >= 0) & (t >= 0), s * base + t, -1)
    return pairs


def _tuple_code(tuples: Sequence[tuple[Any, ...]], key: Any) -> int:
    """The code of ``key`` among ``tuples``, or the unseen sentinel."""
    return {t: code for code, t in enumerate(tuples)}.get(tuple(key), _UNSEEN_CODE)


def static_match_mask(
    graph: TemporalGraph,
    entity: EntityKind,
    attributes: Sequence[str],
    key: Any,
    entities: Sequence[Hashable] | None = None,
) -> np.ndarray:
    """Per-entity boolean mask: static attribute tuple matches ``key``.

    ``entities`` restricts the mask to a subset of entity ids (in the
    given order) — the delta path :class:`repro.streaming.ExplorationView`
    uses to extend its match mask with only the rows a snapshot append
    introduced; only those rows and their endpoints are read.  With
    ``entities=None`` the mask covers every row of the entity's presence
    frame, in row order.  Edges raise as :class:`EventCounter` does.
    """
    rows: np.ndarray | None = None
    if entities is not None:
        frame = graph.edge_presence
        if entity is EntityKind.NODES:
            frame = graph.node_presence
        rows = np.fromiter(map(frame.row_position, entities), np.intp, len(entities))

    def matches(node_rows: np.ndarray | None, wanted: Any) -> np.ndarray:
        codes, tuples = static_codes(graph, attributes, node_rows)
        return codes == _tuple_code(tuples, wanted)

    if entity is EntityKind.NODES:
        return matches(rows, key)
    source_key, target_key = key
    src, dst = graph.storage.endpoint_rows()
    if rows is not None:
        src, dst = src[rows], dst[rows]
    resolved = (src >= 0) & (dst >= 0)
    if not resolved.all():
        check_no_dangling_edges(graph, error=ExplorationError)
    mask = np.zeros(src.size, dtype=bool)
    mask[resolved] = matches(src[resolved], source_key) & matches(
        dst[resolved], target_key
    )
    return mask


class EventCounter:
    """Counts events of one kind of entity between two sides.

    Parameters
    ----------
    graph:
        The temporal graph being explored.
    entity:
        Count node events or edge events.
    attributes:
        Aggregation attributes; empty means "count raw entities".
    key:
        The aggregate entity whose weight is the result.  For nodes, an
        attribute tuple (e.g. ``("f",)``); for edges, a
        ``(source tuple, target tuple)`` pair (e.g. ``(("f",), ("f",))``
        for female-female edges).  ``None`` counts all entities.

    Construction builds a key-independent index with array operations:
    the counted entity's presence matrix and the attribute tuple codes,
    one per entity for static attributes and one per ``(entity, time)``
    cell (``-1`` where absent) for time-varying ones; edges combine their
    endpoints' codes through the storage backend's ``endpoint_rows``.
    A static key resolves to a boolean match mask, a time-varying one to
    the code each count compares against.  :meth:`with_key` binds another
    key to the same index.

    An edge counter that reads endpoint attributes (time-varying ones,
    or static ones with a key) raises :class:`ExplorationError` if and
    only if a dangling edge is present on the timeline, as a
    whole-timeline aggregate does, naming the first one in row order.
    """

    def __init__(
        self,
        graph: TemporalGraph,
        entity: EntityKind = EntityKind.EDGES,
        attributes: Sequence[str] = (),
        key: Any = None,
    ) -> None:
        self.graph = graph
        self.entity = entity
        self.attributes = tuple(attributes)
        self._all_static = all(graph.is_static(a) for a in self.attributes)
        self._presence_matrix = graph.storage.presence_matrix(entity.value)
        #: Tuple code per entity, or per (entity, time) cell with -1 where
        #: absent; pair codes for edges.  ``None`` without attributes.
        self._codes: np.ndarray | None = None
        #: The attribute tuple of each node code.
        self._tuples: list[tuple[Any, ...]] = []
        #: Row stride for building distinct (entity, code) ids.
        self._code_stride = 1
        if self.attributes:
            self._build_codes()
        self._bind_key(key)

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------

    def _build_codes(self) -> None:
        graph = self.graph
        if self._all_static:
            codes, self._tuples = static_codes(graph, self.attributes)
        else:
            cells = window_cells(graph, self.attributes, range(len(graph.timeline)))
            codes, self._tuples = cells.grid, cells.tuples
        base = max(1, len(self._tuples))
        if self.entity is EntityKind.NODES:
            self._codes, self._code_stride = codes, base
            return
        self._codes = _pair_codes(codes, *graph.storage.endpoint_rows(), base)
        self._code_stride = base * base

    def _bind_key(self, key: Any) -> None:
        """Resolve ``key`` against the index: a static match mask, or the
        code a time-varying count compares against."""
        if key is not None and not self.attributes:
            raise ExplorationError("a key filter requires aggregation attributes")
        self.key = key
        #: Per-entity boolean match of a static key.
        self._match_mask: np.ndarray | None = None
        #: Resolved code of ``key`` (pair code for edges) on the
        #: time-varying path.
        self._key_code: int | None = None
        if self.entity is EntityKind.EDGES and self.attributes and (
            key is not None or not self._all_static
        ):
            check_no_dangling_edges(self.graph, error=ExplorationError)
        if key is None:
            return
        if self.entity is EntityKind.NODES:
            code = _tuple_code(self._tuples, key)
        else:
            source, target = (_tuple_code(self._tuples, side) for side in key)
            code = (
                source * max(1, len(self._tuples)) + target
                if source >= 0 and target >= 0
                else _UNSEEN_CODE
            )
        if self._all_static:
            assert self._codes is not None
            self._match_mask = self._codes == code
        else:
            self._key_code = code

    def with_key(self, key: Any) -> "EventCounter":
        """A counter for ``key`` sharing this counter's presence matrix
        and tuple codes, so the index is built once for every key."""
        counter = copy.copy(self)
        counter._bind_key(key)
        return counter

    # ------------------------------------------------------------------
    # Side qualification
    # ------------------------------------------------------------------

    def _presence(self) -> np.ndarray:
        return self._presence_matrix

    def _qualify(self, side: Side) -> np.ndarray:
        """Boolean entity mask: qualifies on this side (ANY vs ALL)."""
        window = self._presence()[:, side.interval.start : side.interval.stop + 1]
        if side.semantics is Semantics.UNION:
            return window.any(axis=1)
        return window.all(axis=1)

    def event_mask(self, event: EventType, old: Side, new: Side) -> np.ndarray:
        """Boolean mask of entities participating in the event."""
        return event_mask_from(event, self._qualify(old), self._qualify(new))

    def event_entities(
        self, event: EventType, old: Side, new: Side
    ) -> tuple[Hashable, ...]:
        """The entity ids participating in the event."""
        mask = self.event_mask(event, old, new)
        labels = self.graph.storage.entity_labels(self.entity.value)
        return tuple(label for label, keep in zip(labels, mask) if keep)

    # ------------------------------------------------------------------
    # result(G)
    # ------------------------------------------------------------------

    def count(self, event: EventType, old: Side, new: Side) -> int:
        """``result(G)`` for the event graph of ``(old, new)``."""
        return self.count_for_mask(
            event, old, new, self.event_mask(event, old, new)
        )

    def count_for_mask(
        self, event: EventType, old: Side, new: Side, mask: np.ndarray
    ) -> int:
        """``result(G)`` given a precomputed event-entity mask.

        The mask must be the one :meth:`event_mask` would return for the
        same pair; :class:`ChainEvaluator` maintains it incrementally
        along extension chains instead of recomputing it per pair.
        """
        if self._match_mask is not None:
            return int((mask & self._match_mask).sum())
        if self._all_static:
            return int(mask.sum())
        return self._count_appearances(event, old, new, mask)

    def _event_window_indices(
        self, event: EventType, old: Side, new: Side
    ) -> list[int]:
        """Timeline indices whose attribute values define the event's
        tuples, deduplicated (overlapping stability sides would repeat
        indices) and in timeline order."""
        if event is EventType.GROWTH:
            return list(new.interval.indices())
        if event is EventType.SHRINKAGE:
            return list(old.interval.indices())
        return sorted(set(old.interval.indices()) | set(new.interval.indices()))

    def _event_window(self, event: EventType, old: Side, new: Side) -> list[Hashable]:
        """Time points whose attribute values define the event's tuples."""
        labels = self.graph.timeline.labels
        return [labels[i] for i in self._event_window_indices(event, old, new)]

    def _count_appearances(
        self, event: EventType, old: Side, new: Side, mask: np.ndarray
    ) -> int:
        """Fallback for time-varying attributes: distinct (entity, tuple)
        appearances in the event window, optionally filtered by key.

        Pure masked numpy reductions over the precomputed tuple-code
        matrix: a key count is one equality + ``any`` per entity row, a
        keyless count one ``np.unique`` over the masked (entity, code)
        ids.
        """
        codes = self._codes
        if codes is None:  # pragma: no cover - guarded by count_for_mask
            raise ExplorationError("tuple codes were not built for this counter")
        window = self._event_window_indices(event, old, new)
        window_codes = codes[:, window]
        valid = (
            self._presence()[:, window]
            & (window_codes >= 0)
            & mask[:, None]
        )
        if self.key is not None:
            hits = valid & (window_codes == self._key_code)
            return int(hits.any(axis=1).sum())
        rows, cols = np.nonzero(valid)
        ids = rows * self._code_stride + window_codes[rows, cols]
        return int(np.unique(ids).size)


@dataclass(frozen=True)
class ChainStep:
    """One evaluated interval pair along an extension chain."""

    old: Side
    new: Side
    count: int
    #: The event-entity mask the count was reduced from (parity-tested
    #: against :meth:`EventCounter.event_mask`).
    mask: np.ndarray


class ChainEvaluator:
    """Incremental ``result(G)`` evaluation along semi-lattice chains.

    One exploration run evaluates thousands of interval pairs, but the
    pairs are not independent: along one extension chain the reference
    side never changes and the extended side grows by exactly one base
    time point per step.  The evaluator exploits both facts —

    * the reference side's qualification mask is computed **once per
      chain** instead of once per pair;
    * the extended side's mask is maintained **incrementally**: each
      semi-lattice extension is a single OR (union semantics) or AND
      (intersection semantics) with one presence column, O(entities)
      instead of O(entities x span).

    ``incremental=False`` recomputes both side masks from scratch at
    every step — the naive per-pair path the seed implementation used.
    Both modes produce bit-identical masks and counts (asserted by the
    parity suite); the flag exists for parity testing and for the
    old-vs-new rows of ``benchmarks/bench_exploration_scaling.py``.
    """

    def __init__(
        self,
        counter: EventCounter,
        event: EventType,
        incremental: bool = True,
    ) -> None:
        self.counter = counter
        self.event = event
        self.incremental = incremental

    # ------------------------------------------------------------------
    # Mask primitives (also used by the two-sided explorer)
    # ------------------------------------------------------------------

    def _presence(self) -> np.ndarray:
        return self.counter._presence()

    def point_mask(self, index: int) -> np.ndarray:
        """The presence column of one base time point."""
        return self._presence()[:, index]

    def extend_side_mask(
        self, mask: np.ndarray, index: int, semantics: Semantics
    ) -> np.ndarray:
        """The mask of a side extended by the base point ``index`` —
        one OR/AND with a single presence column."""
        column = self.point_mask(index)
        if semantics is Semantics.UNION:
            return mask | column
        return mask & column

    def _step(
        self,
        old: Side,
        new: Side,
        old_mask: np.ndarray | None,
        new_mask: np.ndarray | None,
    ) -> ChainStep:
        if not self.incremental or old_mask is None or new_mask is None:
            old_mask = self.counter._qualify(old)
            new_mask = self.counter._qualify(new)
        mask = event_mask_from(self.event, old_mask, new_mask)
        count = self.counter.count_for_mask(self.event, old, new, mask)
        get_metrics().inc("exploration.chain_steps")
        return ChainStep(old, new, count, mask)

    def pair_count(
        self,
        old: Side,
        new: Side,
        old_mask: np.ndarray | None = None,
        new_mask: np.ndarray | None = None,
    ) -> int:
        """``result(G)`` for one explicit pair, reusing caller-maintained
        side masks when given (the two-sided explorer's entry point)."""
        return self._step(old, new, old_mask, new_mask).count

    # ------------------------------------------------------------------
    # Chain walks (the Table-1 strategies' inner loops)
    # ------------------------------------------------------------------

    def chain(
        self, reference: int, extend: ExtendSide, semantics: Semantics
    ) -> Iterator[ChainStep]:
        """The extension chain of one reference point, lazily evaluated.

        Extending NEW: the reference is the old point ``reference`` and
        the new side runs ``[reference+1]``, ``[reference+1..reference+2]``,
        ...  Extending OLD: the reference is the new point
        ``reference + 1`` and the old side runs ``[reference]``,
        ``[reference-1..reference]``, ...  Laziness matters: U-Explore
        and I-Explore prune the tail of the chain, and no pruned step is
        ever evaluated.
        """
        presence = self._presence()
        n_times = presence.shape[1]
        if not 0 <= reference < n_times - 1:
            raise ExplorationError(
                f"chain reference {reference} out of range 0..{n_times - 2}"
            )
        get_metrics().inc("exploration.chains")
        if extend is ExtendSide.NEW:
            old = Side.point(reference)
            reference_mask = presence[:, reference]
            extended = presence[:, reference + 1]
            for stop in range(reference + 1, n_times):
                if stop > reference + 1:
                    extended = self.extend_side_mask(extended, stop, semantics)
                yield self._step(
                    old,
                    Side(Interval(reference + 1, stop), semantics),
                    reference_mask,
                    extended,
                )
        else:
            new = Side.point(reference + 1)
            reference_mask = presence[:, reference + 1]
            extended = presence[:, reference]
            for start in range(reference, -1, -1):
                if start < reference:
                    extended = self.extend_side_mask(extended, start, semantics)
                yield self._step(
                    Side(Interval(start, reference), semantics),
                    new,
                    extended,
                    reference_mask,
                )

    def consecutive(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[ChainStep]:
        """Consecutive point pairs ``(T_i, T_{i+1})`` — threshold
        initialization (Section 3.5) and the degenerate minimal cases.
        Each presence column is sliced once and shared by its two pairs.
        ``start``/``stop`` bound the reference indices ``i`` (defaults:
        every pair), letting the parallel explorer hand each chunk a
        slice of the references."""
        presence = self._presence()
        last = presence.shape[1] - 1 if stop is None else stop
        for i in range(start, last):
            yield self._step(
                Side.point(i),
                Side.point(i + 1),
                presence[:, i],
                presence[:, i + 1],
            )

    def longest(
        self, extend: ExtendSide, start: int = 0, stop: int | None = None
    ) -> Iterator[ChainStep]:
        """Per reference point, the longest intersection-semantics
        extension — the degenerate maximal cases of Table 1.  The
        prefix/suffix ANDs are accumulated incrementally, one column per
        reference, instead of re-reducing each full-length window.

        ``start``/``stop`` bound the reference indices.  A ranged call
        seeds the prefix (and trims the suffix precomputation) with the
        same left-to-right / right-to-left column order as the full
        walk, so every step's mask is bit-identical to the serial one.
        """
        presence = self._presence()
        n_times = presence.shape[1]
        last = n_times - 1 if stop is None else stop
        if extend is ExtendSide.OLD:
            accumulated = presence[:, 0] if n_times else None
            if accumulated is not None:
                for column in range(1, start + 1):
                    accumulated = accumulated & presence[:, column]
            for i in range(start, last):
                if i > start and accumulated is not None:
                    accumulated = accumulated & presence[:, i]
                yield self._step(
                    Side(Interval(0, i), Semantics.INTERSECTION),
                    Side.point(i + 1),
                    accumulated,
                    presence[:, i + 1],
                )
        else:
            suffix: list[np.ndarray | None] = [None] * n_times
            if self.incremental and n_times > 1:
                running = presence[:, n_times - 1]
                suffix[n_times - 1] = running
                for column in range(n_times - 2, start, -1):
                    running = presence[:, column] & running
                    suffix[column] = running
            for i in range(start, last):
                yield self._step(
                    Side.point(i),
                    Side(Interval(i + 1, n_times - 1), Semantics.INTERSECTION),
                    presence[:, i],
                    suffix[i + 1],
                )
