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

:class:`ChainEvaluator` runs the exploration workload itself: along one
semi-lattice extension chain, consecutive pairs differ by exactly one
base time point, so the extended side's packed row is maintained with a
single OR/AND per step instead of re-reducing the whole growing window.
The Table-1 strategies advance every live chain of a reference range by
one depth at a time over the packed rows, and count with
``np.bitwise_count``.
"""

from __future__ import annotations

import copy
import enum
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import TemporalGraph
from ..core.fast import _distinct, check_no_dangling_edges, static_codes, window_cells
from .lattice import ExtendSide, Semantics, Side
from .pairs import EMPTY, PairTable
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

#: Packed rows of the old and of the new side, one row per chain.
_Pair = tuple[np.ndarray, np.ndarray]

#: Tabulates the pairs of some references, given their counts.
_Pairs = Callable[[np.ndarray, np.ndarray], PairTable]

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


def _pack_bits(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Boolean rows over entities (the last axis) as packed rows of
    ``n_words`` uint64 words, laid out as :func:`_pack_rows` lays out
    each time row."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = np.zeros((*bits.shape[:-1], n_words * 8), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    return words.view(np.uint64)


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
    one per entity for static attributes, and for time-varying ones a
    time-major ``(times, entities)`` grid with one code per cell
    (``-1`` where the entity is absent); edges combine their endpoints'
    codes through the storage backend's ``endpoint_rows``.  The index
    also packs the presence into time-major bit rows
    (``times x ceil(entities / 64)`` uint64 words) with their running
    ANDs from the first point and to the last, which the batched walks
    of :class:`ChainEvaluator` read.  Binding a key reads the index and
    builds no part of it: a static key resolves to a boolean match mask
    and its packed row (one ``np.packbits``); a time-varying one to the
    code each count compares against and one packed row of key hits per
    time point (one comparison against the code grid, packed along its
    rows).  :meth:`with_key` binds another key to the same index.

    An edge counter that reads endpoint attributes (time-varying ones,
    or static ones with a key) raises :class:`ExplorationError` if and
    only if a dangling edge is present on the timeline, as a
    whole-timeline aggregate does, naming the first one in row order.
    The index looks for one once, when it is built.
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
        #: Static attributes: the tuple code of each entity (pair codes
        #: for edges).  ``None`` otherwise.
        self._codes: np.ndarray | None = None
        #: Time-varying attributes: the ``(times, entities)`` code grid,
        #: -1 where the entity is absent.  ``None`` otherwise.
        self._code_grid: np.ndarray | None = None
        #: The attribute tuple of each node code, and back.
        self._tuples: list[tuple[Any, ...]] = []
        self._tuple_codes: dict[tuple[Any, ...], int] = {}
        #: Row stride for building distinct (entity, code) ids.
        self._code_stride = 1
        #: Why an endpoint-reading bind fails: the dangling-edge error's
        #: message, or ``None``.
        self._dangling: str | None = None
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
        self._tuple_codes = {t: code for code, t in enumerate(self._tuples)}
        base = max(1, len(self._tuples))
        self._code_stride = base
        if self.entity is EntityKind.EDGES:
            codes = _pair_codes(codes, *graph.storage.endpoint_rows(), base)
            self._code_stride = base * base
            try:
                check_no_dangling_edges(graph, error=ExplorationError)
            except ExplorationError as error:
                self._dangling = str(error)
        if self._all_static:
            self._codes = codes
        else:
            grid = np.where(self._presence_matrix, codes, -1)
            self._code_grid = np.ascontiguousarray(grid.T)

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
        if self._dangling is not None and (key is not None or not self._all_static):
            raise ExplorationError(self._dangling)
        if key is None:
            return
        if self.entity is EntityKind.NODES:
            code = self._tuple_codes.get(tuple(key), _UNSEEN_CODE)
        else:
            source, target = (
                self._tuple_codes.get(tuple(side), _UNSEEN_CODE) for side in key
            )
            code = (
                source * max(1, len(self._tuples)) + target
                if source >= 0 and target >= 0
                else _UNSEEN_CODE
            )
        n_words = self._rows.shape[1]
        if self._code_grid is None:
            assert self._codes is not None
            self._match_mask = self._codes == code
            self._match_row = _pack_bits(self._match_mask, n_words)
        else:
            self._key_code = code
            self._hit_rows = _pack_bits(self._code_grid == code, n_words)

    def with_key(self, key: Any) -> "EventCounter":
        """A counter for ``key`` sharing this counter's presence matrix
        and tuple codes, so the index is built once for every key."""
        counter = copy.copy(self)
        counter._bind_key(key)
        return counter

    # ------------------------------------------------------------------
    # Side qualification
    # ------------------------------------------------------------------

    def _qualify(self, side: Side) -> np.ndarray:
        """Boolean entity mask: qualifies on this side (ANY vs ALL)."""
        window = self._presence_matrix[:, side.interval.start : side.interval.stop + 1]
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
        """``result(G)`` given a precomputed event-entity mask: the one
        :meth:`event_mask` returns for the same pair."""
        if self._match_mask is not None:
            return int((mask & self._match_mask).sum())
        if self._all_static:
            return int(mask.sum())
        return self._count_appearances(event, old, new, mask)

    @property
    def _counts_appearances(self) -> bool:
        """Whether a count is the number of distinct ``(entity, tuple)``
        appearances (time-varying attributes, no key): a distinct count
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
        keyless count one sort-based distinct over the masked (entity,
        code) ids.
        """
        grid = self._code_grid
        if grid is None:  # pragma: no cover - guarded by count_for_mask
            raise ExplorationError("tuple codes were not built for this counter")
        window_codes = grid[self._event_window_indices(event, old, new)]
        valid = (window_codes >= 0) & mask
        if self.key is not None:
            hits = valid & (window_codes == self._key_code)
            return int(hits.any(axis=0).sum())
        cols, rows = np.nonzero(valid)
        ids = rows * self._code_stride + window_codes[cols, rows]
        return int(_distinct(ids).size)


@dataclass(frozen=True)
class ChainStep:
    """One evaluated interval pair along an extension chain, as
    :class:`repro.streaming.ExplorationView` and the per-pair oracle
    record it."""

    old: Side
    new: Side
    count: int
    #: The event-entity mask the count was reduced from.
    mask: np.ndarray


def check_counter(
    counter: EventCounter | None,
    graph: TemporalGraph,
    entity: EntityKind,
    attributes: Sequence[str],
    key: Any,
) -> None:
    """Raise :class:`ExplorationError` unless ``counter`` is ``None`` or
    was built for exactly this graph, entity, attribute list and key."""
    if counter is not None and (
        counter.graph is not graph
        or counter.entity is not entity
        or counter.attributes != tuple(attributes)
        or counter.key != key
    ):
        raise ExplorationError(
            "counter was built for another graph, entity, attribute list or key"
        )


class ChainEvaluator:
    """``result(G)`` along semi-lattice chains, over the counter's packed
    time-major rows.

    One exploration run evaluates thousands of interval pairs, but the
    pairs are not independent: along one extension chain the reference
    side never changes and the extended side grows by exactly one base
    time point per step.  So the reference side's row is gathered
    **once per chain**, and each extension is a single OR (union
    semantics) or AND (intersection semantics) with one packed presence
    row.  Every live chain of a reference range advances one depth per
    iteration, and every pair at that depth is counted together
    (:meth:`walk_depths`, which the other chain walks run on); the
    degenerate Table-1 strategies count all their pairs in one batch
    (:meth:`walk_consecutive`, :meth:`walk_longest`).

    The per-pair path, which re-reduces both side masks for every pair,
    is the parity oracle in :mod:`repro.testing.reference`.
    """

    def __init__(self, counter: EventCounter, event: EventType) -> None:
        self.counter = counter
        self.event = event

    @staticmethod
    def chain_pairs(
        references: Any,
        depths: Any,
        counts: Any,
        extend: ExtendSide,
        semantics: Semantics,
    ) -> PairTable:
        """The pairs at ``depths`` (from 1) of the chains of
        ``references``, with their ``counts``: the point ``reference``
        against ``[reference+1..reference+depth]`` (extending NEW), or
        ``[reference+1-depth..reference]`` against the point
        ``reference + 1`` (extending OLD)."""
        references = np.asarray(references)
        if extend is ExtendSide.NEW:
            return PairTable.of(
                references,
                references,
                references + 1,
                references + depths,
                counts,
                Semantics.UNION,
                semantics,
            )
        return PairTable.of(
            references + 1 - depths,
            references,
            references + 1,
            references + 1,
            counts,
            semantics,
            Semantics.UNION,
        )

    @classmethod
    def chain_sides(
        cls, reference: int, depth: int, extend: ExtendSide, semantics: Semantics
    ) -> tuple[Side, Side]:
        """The sides of the pair at ``depth`` of a reference's chain
        (see :meth:`chain_pairs`)."""
        pair = cls.chain_pairs(reference, depth, 0, extend, semantics)[0]
        return pair.old, pair.new

    def _consecutive_pairs(self, references: np.ndarray, counts: np.ndarray) -> PairTable:
        """The point pairs ``(T_i, T_{i+1})`` of ``references``: the first
        pair of each chain."""
        return self.chain_pairs(references, 1, counts, ExtendSide.NEW, Semantics.UNION)

    def _longest_pairs(
        self, extend: ExtendSide, references: np.ndarray, counts: np.ndarray
    ) -> PairTable:
        """Per reference, its longest intersection-semantics extension of
        the ``extend`` side: the last pair of its chain."""
        last = self.counter._rows.shape[0] - 1
        depths = references + 1 if extend is ExtendSide.OLD else last - references
        return self.chain_pairs(references, depths, counts, extend, Semantics.INTERSECTION)

    # ------------------------------------------------------------------
    # Chain walks, one depth at a time
    # ------------------------------------------------------------------

    def walk_depths(
        self, start: int, stop: int, extend: ExtendSide, semantics: Semantics
    ) -> Iterator[tuple[int, np.ndarray, _Pair, _Pair, np.ndarray]]:
        """The chains of references ``start .. stop-1``, one depth at a
        time: per depth from 1, ``(depth, live, (old, new), (old hits, new
        hits), retire)`` -- the live chains' positions in the range,
        ascending, and their packed side rows and key hits (ORed whatever
        the semantics), which the next step updates in place.  A step
        extends every live chain by one base point: one gather of packed
        rows and one OR/AND across all of them.

        A chain retires when it runs out, or when the caller sets its
        entry of ``retire`` (all ``False``, one per live chain): the
        U-/I-Explore pruning, whose skipped pairs count as
        ``exploration.pruned_steps``.
        """
        counter = self.counter
        rows, hit_rows = counter._rows, counter._hit_rows
        n_times = rows.shape[0]
        references = np.arange(start, stop)
        if references.size and not 0 <= start < stop < n_times:
            raise ExplorationError(f"chain references {start}..{stop - 1} out of range")
        # Per chain: the reference point, the extended side's nearest
        # point, the step to its next one, and the chain's length.
        if extend is ExtendSide.NEW:
            anchors, nearest, direction = references, references + 1, 1
            capacity = n_times - 1 - references
        else:
            anchors, nearest, direction = references + 1, references, -1
            capacity = references + 1
        extend_rows: np.ufunc = (
            np.bitwise_or if semantics is Semantics.UNION else np.bitwise_and
        )
        live = np.arange(references.size)
        anchor, extended = rows[anchors], rows[nearest]
        anchor_hits, extended_hits = hit_rows[anchors], hit_rows[nearest]
        steps = pruned = 0
        depth = 1
        try:
            while live.size:
                if depth > 1:
                    points = nearest[live] + direction * (depth - 1)
                    extend_rows(extended, rows[points], out=extended)
                    np.bitwise_or(extended_hits, hit_rows[points], out=extended_hits)
                steps += live.size
                retire = np.zeros(live.size, dtype=bool)
                if extend is ExtendSide.NEW:
                    pair, hits = (anchor, extended), (anchor_hits, extended_hits)
                else:
                    pair, hits = (extended, anchor), (extended_hits, anchor_hits)
                yield depth, live, pair, hits, retire
                retire |= capacity[live] == depth
                if retire.any():
                    pruned += int((capacity[live[retire]] - depth).sum())
                    keep = ~retire
                    live, anchor, extended = live[keep], anchor[keep], extended[keep]
                    anchor_hits, extended_hits = anchor_hits[keep], extended_hits[keep]
                depth += 1
        finally:
            metrics = get_metrics()
            if references.size:
                metrics.inc("exploration.chains", int(references.size))
                metrics.inc("exploration.chain_steps", steps)
            if pruned:
                metrics.inc("exploration.pruned_steps", pruned)

    def walk_counts(
        self, start: int, stop: int, extend: ExtendSide, semantics: Semantics
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """:meth:`walk_depths` with the ``int64`` count of every live
        chain at each depth: ``(depth, live, counts, retire)``."""
        counter = self.counter
        for depth, live, pair, hits, retire in self.walk_depths(
            start, stop, extend, semantics
        ):
            sides: list[tuple[Side, Side]] = []
            if counter._counts_appearances:
                named = self.chain_pairs(
                    start + live, depth, np.zeros(live.size), extend, semantics
                )
                sides = [(p.old, p.new) for p in named]
            counts = counter._packed_counts(self.event, *pair, hits, sides)
            yield depth, live, counts, retire

    def walk_chains(
        self,
        start: int,
        stop: int,
        extend: ExtendSide,
        semantics: Semantics,
        k: int,
    ) -> tuple[PairTable, int]:
        """U-Explore (union semantics) or I-Explore (intersection) over
        the chains of references ``start .. stop-1``: a chain retires at
        its first pair reaching ``k`` (U-Explore, reporting it) or at its
        first failure (I-Explore, reporting the last pass).  Returns the
        table of reported pairs in reference order and the number of
        pairs evaluated."""
        return self._walk(start, stop, extend, semantics, k, prune=True)

    def walk_exhaustive(
        self,
        start: int,
        stop: int,
        extend: ExtendSide,
        semantics: Semantics,
        k: int,
    ) -> tuple[PairTable, int]:
        """:meth:`walk_chains` unpruned: a chain reports its first pair
        reaching ``k`` under union semantics (the minimal one, Definition
        3.4) or its last under intersection (the maximal one, 3.5)."""
        return self._walk(start, stop, extend, semantics, k, prune=False)

    def _walk(
        self,
        start: int,
        stop: int,
        extend: ExtendSide,
        semantics: Semantics,
        k: int,
        prune: bool,
    ) -> tuple[PairTable, int]:
        union = semantics is Semantics.UNION
        size = max(0, stop - start)
        found_depth = np.zeros(size, dtype=np.intp)
        found_count = np.zeros(size, dtype=np.int64)
        evaluations = 0
        for depth, live, counts, retire in self.walk_counts(
            start, stop, extend, semantics
        ):
            evaluations += live.size
            passed = counts >= k
            # A union chain reports its first passing pair, an
            # intersection chain its last; pruned, either stops there.
            if prune:
                retire |= passed if union else ~passed
            elif union:
                passed &= found_depth[live] == 0
            found_depth[live[passed]] = depth
            found_count[live[passed]] = counts[passed]
        chains = np.flatnonzero(found_depth)
        pairs = self.chain_pairs(
            start + chains, found_depth[chains], found_count[chains], extend, semantics
        )
        return pairs, evaluations

    # ------------------------------------------------------------------
    # Batched pairs (the degenerate Table-1 strategies)
    # ------------------------------------------------------------------

    def consecutive_counts(
        self, start: int = 0, stop: int | None = None
    ) -> list[int]:
        """Counts of the consecutive point pairs ``(T_i, T_{i+1})`` for
        references ``i`` in ``start .. stop-1`` (default: every pair),
        all evaluated together -- threshold initialization (Section 3.5)
        and the degenerate minimal cases of Table 1."""
        last = self.counter._rows.shape[0] - 1 if stop is None else stop
        return self._consecutive_counts(start, last).tolist()

    def _consecutive_counts(self, start: int, stop: int) -> np.ndarray:
        rows, hit_rows = self.counter._rows, self.counter._hit_rows
        if stop <= start:
            return np.zeros(0, dtype=np.int64)
        head, tail = slice(start, stop), slice(start + 1, stop + 1)
        return self._batch_counts(
            rows[head],
            rows[tail],
            (hit_rows[head], hit_rows[tail]),
            self._consecutive_pairs,
            start,
            stop,
        )

    def walk_consecutive(self, start: int, stop: int, k: int) -> tuple[PairTable, int]:
        """The consecutive pairs of references ``start .. stop-1`` that
        reach ``k``, and the number of pairs evaluated."""
        counts = self._consecutive_counts(start, stop)
        return self._passing(counts, start, k, self._consecutive_pairs)

    def walk_longest(
        self, extend: ExtendSide, start: int, stop: int, k: int
    ) -> tuple[PairTable, int]:
        """The longest intersection-semantics extensions of references
        ``start .. stop-1`` that reach ``k``, all evaluated together from
        the counter's prefix (extending OLD) or suffix (extending NEW)
        ANDs, and the number of pairs evaluated."""
        counter = self.counter
        rows, hit_rows = counter._rows, counter._hit_rows
        if stop <= start:
            return EMPTY, 0
        head, tail = slice(start, stop), slice(start + 1, stop + 1)
        if extend is ExtendSide.OLD:
            old, new = counter._prefix[head], rows[tail]
            prefix_hits = np.bitwise_or.accumulate(hit_rows, axis=0)
            hits = (prefix_hits[head], hit_rows[tail])
        else:
            old, new = rows[head], counter._suffix[tail]
            suffix_hits = np.bitwise_or.accumulate(hit_rows[::-1], axis=0)[::-1]
            hits = (hit_rows[head], suffix_hits[tail])

        def pairs(references: np.ndarray, counts: np.ndarray) -> PairTable:
            return self._longest_pairs(extend, references, counts)

        counts = self._batch_counts(old, new, hits, pairs, start, stop)
        return self._passing(counts, start, k, pairs)

    def _batch_counts(
        self,
        old: np.ndarray,
        new: np.ndarray,
        hits: tuple[np.ndarray, np.ndarray],
        pairs: _Pairs,
        start: int,
        stop: int,
    ) -> np.ndarray:
        """Counts of the pairs of references ``start .. stop-1``, given
        as packed side rows; ``pairs`` tabulates references' pairs."""
        named: list[tuple[Side, Side]] = []
        if self.counter._counts_appearances:
            references = np.arange(start, stop)
            table = pairs(references, np.zeros(references.size))
            named = [(p.old, p.new) for p in table]
        counts = self.counter._packed_counts(self.event, old, new, hits, named)
        get_metrics().inc("exploration.chain_steps", stop - start)
        return counts

    @staticmethod
    def _passing(
        counts: np.ndarray, start: int, k: int, pairs: _Pairs
    ) -> tuple[PairTable, int]:
        """The table of the pairs reaching ``k``, and the number counted."""
        passing = np.flatnonzero(counts >= k)
        return pairs(start + passing, counts[passing]), int(counts.size)
