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
vectorized mask operations; exploration runs thousands of counts.  The
index also holds the presence as packed, time-major bit rows, so one
time point of every entity is a few contiguous uint64 words.

:class:`ChainEvaluator` goes one step further for the exploration
workload itself: along one semi-lattice extension chain, consecutive
pairs differ by exactly one base time point, so the extended side's
qualification mask can be maintained with a single OR/AND per step
instead of re-reducing the whole growing window.  The Table-1
strategies advance every live chain of a reference range by one depth
at a time over the packed rows, and count with ``np.bitwise_count``.
"""

from __future__ import annotations

import copy
import enum
from collections.abc import Callable, Hashable, Iterator, Sequence
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


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """An ``(entities, times)`` boolean matrix as time-major packed rows.

    Row ``t`` of the ``(times, ceil(entities / 64))`` uint64 result holds
    entity ``e`` at bit ``e % 64`` of word ``e // 64``.  Padding bits
    past the last entity are zero, so ``new & ~old`` stays exact; a bare
    ``~old`` does not, and is never counted.
    """
    n_rows, n_times = bits.shape
    n_words = -(-n_rows // 64)
    padded = np.zeros((n_words * 64, n_times), dtype=np.uint8)
    padded[:n_rows] = bits
    # Pack eight entities into a byte in the entity-major layout, then
    # transpose the eight-times smaller bytes: transposing the bool
    # matrix itself costs several times more.
    grouped = padded.reshape(n_words * 8, 8, n_times)
    packed = grouped[:, 0, :].copy()
    for bit in range(1, 8):
        packed |= grouped[:, bit, :] << bit
    return np.ascontiguousarray(packed.T).view(np.uint64)


def _unpack_row(words: np.ndarray, n_rows: int) -> np.ndarray:
    """One packed row back as a boolean entity mask."""
    return np.unpackbits(
        words.view(np.uint8), count=n_rows, bitorder="little"
    ).astype(bool)


def _window_hits(
    event: EventType, old_hits: np.ndarray, new_hits: np.ndarray
) -> np.ndarray:
    """Key hits over the event's window (see
    :meth:`EventCounter._event_window_indices`) from each side's hits."""
    if event is EventType.GROWTH:
        return new_hits
    if event is EventType.SHRINKAGE:
        return old_hits
    return old_hits | new_hits


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
    The index also packs the presence into time-major bit rows
    (``times x ceil(entities / 64)`` uint64 words) with their running
    ANDs from the first point and to the last, which the batched walks
    of :class:`ChainEvaluator` read.  A static key resolves to a boolean
    match mask and its packed row; a time-varying one to the code each
    count compares against and one packed row of key hits per time
    point (present, and the cell's code equals the key's).
    :meth:`with_key` binds another key to the same index.

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
        #: The presence as packed time-major rows, and the AND of rows
        #: ``0..t`` (prefix) and ``t..T-1`` (suffix) at row ``t``.
        self._rows = _pack_rows(self._presence_matrix)
        self._prefix = np.bitwise_and.accumulate(self._rows, axis=0)
        self._suffix = np.bitwise_and.accumulate(self._rows[::-1], axis=0)[::-1]
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
        #: Per-entity boolean match of a static key, and its packed row.
        self._match_mask: np.ndarray | None = None
        self._match_row: np.ndarray | None = None
        #: Resolved code of ``key`` (pair code for edges) on the
        #: time-varying path, and its packed hit row per time point --
        #: zero words wide otherwise, so the batched walks carry hits
        #: whatever the key.
        self._key_code: int | None = None
        self._hit_rows: np.ndarray = np.zeros((self._rows.shape[0], 0), np.uint64)
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
        assert self._codes is not None
        if self._all_static:
            self._match_mask = self._codes == code
            self._match_row = _pack_rows(self._match_mask[:, None])[0]
        else:
            self._key_code = code
            self._hit_rows = _pack_rows(self._presence_matrix & (self._codes == code))

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

    @property
    def _counts_appearances(self) -> bool:
        """Whether a count is the number of distinct ``(entity, tuple)``
        appearances (time-varying attributes, no key): an ``np.unique``
        per pair, which no popcount can give."""
        return not self._all_static and self.key is None

    def _packed_counts(
        self,
        event: EventType,
        old: np.ndarray,
        new: np.ndarray,
        hits: tuple[np.ndarray, np.ndarray],
        sides: Sequence[tuple[Side, Side]] = (),
    ) -> np.ndarray:
        """``result(G)`` for a batch of pairs, one per row of the packed
        side masks ``old`` and ``new`` (``pairs x words``).

        ``hits`` are each side's packed key hits, ORed over the side's
        points (read for a time-varying key only).  ``sides`` names
        every pair for the appearance counts
        (:attr:`_counts_appearances`), which run per pair on the
        unpacked mask.  Returns ``int64`` counts.
        """
        words = event_mask_from(event, old, new)
        if self._counts_appearances:
            n_rows = self._presence_matrix.shape[0]
            return np.array(
                [
                    self._count_appearances(event, o, n, _unpack_row(row, n_rows))
                    for row, (o, n) in zip(words, sides, strict=True)
                ],
                dtype=np.int64,
            )
        if self._match_row is not None:
            words &= self._match_row
        elif self._key_code is not None:
            words &= _window_hits(event, *hits)
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)

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

    :meth:`chain` walks one reference's chain lazily, a pair at a time.
    The Table-1 strategies use the batched walks instead
    (:meth:`walk_chains`, :meth:`walk_consecutive`,
    :meth:`walk_longest`): over the counter's packed time-major rows,
    every live chain of a reference range advances one depth per
    iteration, and every pair at that depth is counted together.

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
        """Consecutive point pairs ``(T_i, T_{i+1})``, one pair at a time
        -- the per-pair oracle of :meth:`walk_consecutive`.  ``start`` /
        ``stop`` bound the reference indices ``i`` (defaults: every
        pair)."""
        last = self._presence().shape[1] - 1 if stop is None else stop
        for i in range(start, last):
            yield self._step(*self._consecutive_sides(i), None, None)

    def longest(
        self, extend: ExtendSide, start: int = 0, stop: int | None = None
    ) -> Iterator[ChainStep]:
        """Per reference point, the longest intersection-semantics
        extension -- the degenerate maximal cases of Table 1 -- one pair
        at a time: the per-pair oracle of :meth:`walk_longest`.
        ``start``/``stop`` bound the reference indices."""
        last = self._presence().shape[1] - 1 if stop is None else stop
        for i in range(start, last):
            yield self._step(*self._longest_sides(extend, i), None, None)

    # ------------------------------------------------------------------
    # Batched walks (the Table-1 strategies over a reference range)
    # ------------------------------------------------------------------

    @staticmethod
    def _chain_sides(
        reference: int, depth: int, extend: ExtendSide, semantics: Semantics
    ) -> tuple[Side, Side]:
        """The pair at ``depth`` (from 1) of a reference's chain, equal
        to the one :meth:`chain` builds: a one-point extended side keeps
        the chain's semantics."""
        if extend is ExtendSide.NEW:
            extended = Side(Interval(reference + 1, reference + depth), semantics)
            return Side.point(reference), extended
        extended = Side(Interval(reference + 1 - depth, reference), semantics)
        return extended, Side.point(reference + 1)

    @staticmethod
    def _consecutive_sides(i: int) -> tuple[Side, Side]:
        return Side.point(i), Side.point(i + 1)

    def _longest_sides(self, extend: ExtendSide, i: int) -> tuple[Side, Side]:
        if extend is ExtendSide.OLD:
            return Side(Interval(0, i), Semantics.INTERSECTION), Side.point(i + 1)
        last = self._presence().shape[1] - 1
        return Side.point(i), Side(Interval(i + 1, last), Semantics.INTERSECTION)

    def walk_chains(
        self,
        start: int,
        stop: int,
        extend: ExtendSide,
        semantics: Semantics,
        k: int,
    ) -> tuple[list[tuple[Side, Side, int]], int]:
        """U-Explore (union semantics) or I-Explore (intersection) over
        the chains of references ``start .. stop-1``, one depth at a time.

        Each iteration extends every live chain by one base point -- one
        gather of packed rows and one OR/AND across all of them -- and
        counts every pair at that depth together.  U-Explore retires a
        chain at its first pair reaching ``k`` (the reported one);
        I-Explore retires it at its first failure and reports the last
        passing pair.  Either retires a chain that runs out.  So exactly
        the pairs :meth:`chain`'s per-step walk would evaluate are
        evaluated.  Returns the reported ``(old, new, count)`` triples in
        reference order and the number of pairs evaluated.
        """
        counter = self.counter
        # A time-varying key's hits ride along, ORed whatever the
        # semantics.
        rows, hit_rows = counter._rows, counter._hit_rows
        n_times = rows.shape[0]
        references = np.arange(start, stop)
        # Per chain: the reference point, the extended side's nearest
        # point, the step to its next one, and the chain's length.
        if extend is ExtendSide.NEW:
            anchors, nearest, direction = references, references + 1, 1
            capacity = n_times - 1 - references
        else:
            anchors, nearest, direction = references + 1, references, -1
            capacity = references + 1
        union = semantics is Semantics.UNION
        extend_rows: np.ufunc = np.bitwise_or if union else np.bitwise_and
        live = np.arange(references.size)
        anchor, extended = rows[anchors], rows[nearest]
        anchor_hits, extended_hits = hit_rows[anchors], hit_rows[nearest]
        found_depth = np.zeros(references.size, dtype=np.intp)
        found_count = np.zeros(references.size, dtype=np.int64)
        evaluations = pruned = 0
        depth = 1
        while live.size:
            if depth > 1:
                points = nearest[live] + direction * (depth - 1)
                extend_rows(extended, rows[points], out=extended)
                np.bitwise_or(extended_hits, hit_rows[points], out=extended_hits)
            sides: list[tuple[Side, Side]] = []
            if counter._counts_appearances:
                sides = [
                    self._chain_sides(reference, depth, extend, semantics)
                    for reference in references[live].tolist()
                ]
            if extend is ExtendSide.NEW:
                pair, hits = (anchor, extended), (anchor_hits, extended_hits)
            else:
                pair, hits = (extended, anchor), (extended_hits, anchor_hits)
            counts = counter._packed_counts(self.event, *pair, hits, sides)
            evaluations += live.size
            passed = counts >= k
            found_depth[live[passed]] = depth
            found_count[live[passed]] = counts[passed]
            retired = (passed if union else ~passed) | (capacity[live] == depth)
            if retired.any():
                pruned += int((capacity[live[retired]] - depth).sum())
                keep = ~retired
                live, anchor, extended = live[keep], anchor[keep], extended[keep]
                anchor_hits, extended_hits = anchor_hits[keep], extended_hits[keep]
            depth += 1
        metrics = get_metrics()
        if references.size:
            metrics.inc("exploration.chains", int(references.size))
            metrics.inc("exploration.chain_steps", evaluations)
        if pruned:
            metrics.inc("exploration.pruned_steps", pruned)
        found = np.flatnonzero(found_depth)
        pairs = [
            (*self._chain_sides(reference, depth, extend, semantics), count)
            for reference, depth, count in zip(
                references[found].tolist(),
                found_depth[found].tolist(),
                found_count[found].tolist(),
            )
        ]
        return pairs, evaluations

    def consecutive_counts(
        self, start: int = 0, stop: int | None = None
    ) -> list[int]:
        """Counts of the consecutive point pairs ``(T_i, T_{i+1})`` for
        references ``i`` in ``start .. stop-1`` (default: every pair),
        all evaluated together -- threshold initialization (Section 3.5)
        and the degenerate minimal cases of Table 1."""
        rows, hit_rows = self.counter._rows, self.counter._hit_rows
        last = rows.shape[0] - 1 if stop is None else stop
        if last <= start:
            return []
        head, tail = slice(start, last), slice(start + 1, last + 1)
        return self._batch_counts(
            rows[head],
            rows[tail],
            (hit_rows[head], hit_rows[tail]),
            self._consecutive_sides,
            start,
            last,
        )

    def walk_consecutive(
        self, start: int, stop: int, k: int
    ) -> tuple[list[tuple[Side, Side, int]], int]:
        """The consecutive pairs of references ``start .. stop-1`` that
        reach ``k``, and the number of pairs evaluated."""
        counts = self.consecutive_counts(start, stop)
        return self._passing(counts, start, k, self._consecutive_sides)

    def walk_longest(
        self, extend: ExtendSide, start: int, stop: int, k: int
    ) -> tuple[list[tuple[Side, Side, int]], int]:
        """The longest intersection-semantics extensions of references
        ``start .. stop-1`` that reach ``k``, all evaluated together from
        the counter's prefix (extending OLD) or suffix (extending NEW)
        ANDs, and the number of pairs evaluated."""
        counter = self.counter
        rows, hit_rows = counter._rows, counter._hit_rows
        if stop <= start:
            return [], 0
        head, tail = slice(start, stop), slice(start + 1, stop + 1)
        if extend is ExtendSide.OLD:
            old, new = counter._prefix[head], rows[tail]
            prefix_hits = np.bitwise_or.accumulate(hit_rows, axis=0)
            hits = (prefix_hits[head], hit_rows[tail])
        else:
            old, new = rows[head], counter._suffix[tail]
            suffix_hits = np.bitwise_or.accumulate(hit_rows[::-1], axis=0)[::-1]
            hits = (hit_rows[head], suffix_hits[tail])

        def sides(i: int) -> tuple[Side, Side]:
            return self._longest_sides(extend, i)

        counts = self._batch_counts(old, new, hits, sides, start, stop)
        return self._passing(counts, start, k, sides)

    def _batch_counts(
        self,
        old: np.ndarray,
        new: np.ndarray,
        hits: tuple[np.ndarray, np.ndarray],
        sides: Callable[[int], tuple[Side, Side]],
        start: int,
        stop: int,
    ) -> list[int]:
        """Counts of the pairs of references ``start .. stop-1``, given
        as packed side rows; ``sides`` names a reference's pair."""
        named = (
            [sides(i) for i in range(start, stop)]
            if self.counter._counts_appearances
            else []
        )
        counts = self.counter._packed_counts(self.event, old, new, hits, named)
        get_metrics().inc("exploration.chain_steps", stop - start)
        return counts.tolist()

    @staticmethod
    def _passing(
        counts: list[int],
        start: int,
        k: int,
        sides: Callable[[int], tuple[Side, Side]],
    ) -> tuple[list[tuple[Side, Side, int]], int]:
        pairs = [
            (*sides(i), count)
            for i, count in enumerate(counts, start)
            if count >= k
        ]
        return pairs, len(counts)
