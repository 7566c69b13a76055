"""Delta-maintained views over a streaming store.

A :class:`StreamingView` is state derived from the store's graph that is
kept current *incrementally*: each snapshot append hands the view the
new graph plus the update that produced it, and the view folds in the
new time point in O(new point) instead of recomputing from scratch.
Two maintenance strategies the base :class:`IncrementalStore` does not
cover live here:

* :class:`EvolutionView` — the evolution overlay (Definition 2.7 /
  Fig. 4b) between a pinned old window and the growing tail of appended
  points.  Appearance sets are per-point unions, so each append scans
  only the appended column and the interval algebra extends the new
  window by one point; weights come from the same helper
  :func:`~repro.core.evolution.aggregate_evolution` uses, so the
  maintained aggregate is bit-identical to a from-scratch one.
* :class:`ExplorationView` — incremental exploration state: the
  qualification mask of the growing new side is extended by exactly one
  OR (union semantics) or AND (intersection semantics) per appended
  point, the same single-column step :class:`ChainEvaluator` performs
  along a semi-lattice chain, preserving the U-/I-Explore pruning
  structure (counts stay monotone along the maintained chain).

Both exploit the append-only shape of the store: earlier presence
columns never change, and entities introduced later are absent from
every earlier column, so masks recorded before an entity existed are
extended exactly by padding with ``False``.

``rebuild(graph)`` reconstructs the full view state from a graph alone
(the store uses it at registration and to roll views back if an append
fails partway), and ``extend(graph, update)`` is the per-append delta
step; for every view here, ``rebuild`` equals the fold of ``extend``
over the appended points — the replay identity the fuzz laws check.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import Any

import numpy as np

from ..core import TemporalGraph
from ..core.evolution import (
    EvolutionAggregate,
    _appearance_sets,
    _weights_from_appearances,
)
from ..core.intervals import Interval
from ..core.operators import ordered_times
from ..core.updates import SnapshotUpdate
from ..errors import ExplorationError, ValidationError
from ..exploration.events import (
    ChainStep,
    EntityKind,
    EventType,
    event_mask_from,
    static_match_mask,
)
from ..exploration.lattice import Semantics, Side

__all__ = ["StreamingView", "EvolutionView", "ExplorationView"]


class StreamingView:
    """The contract a delta-maintained view implements.

    ``rebuild`` must reconstruct the complete state from the graph alone
    and ``extend`` must fold in exactly one appended time point, such
    that rebuilding on a grown graph equals extending point by point.
    """

    def rebuild(self, graph: TemporalGraph) -> None:
        """Reconstruct the view's state from scratch over ``graph``."""
        raise NotImplementedError

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        """Fold one appended point into the state; ``graph`` is the
        post-append graph and ``update`` the snapshot that produced it."""
        raise NotImplementedError


class EvolutionView(StreamingView):
    """Delta-maintained evolution overlay between a pinned old window
    and the growing window of appended points.

    Parameters
    ----------
    attributes:
        Aggregation attributes (Fig. 4b counts appearances of their
        tuples); at least one is required.
    old_times:
        The pinned old window ``T1``.  ``None`` pins the registration
        graph's whole timeline.

    Each append unions the appended point's ``(entity, tuple)``
    appearance sets into the maintained new-window sets — earlier
    columns never change, so a window's appearance set is exactly the
    union of its per-point sets.  :meth:`current` reduces the maintained
    sets with the same weights helper ``aggregate_evolution`` uses.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        old_times: Sequence[Hashable] | None = None,
    ) -> None:
        if not attributes:
            raise ValidationError(
                "evolution view needs at least one attribute"
            )
        self.attributes = tuple(attributes)
        self._requested_old = tuple(old_times) if old_times is not None else None
        self._initial_labels: frozenset[Hashable] | None = None
        self._graph: TemporalGraph | None = None
        self._old_times: tuple[Hashable, ...] = ()
        self._new_labels: list[Hashable] = []
        self._old_nodes: set[tuple[Any, Any]] = set()
        self._old_edges: set[tuple[Any, Any]] = set()
        self._new_nodes: set[tuple[Any, Any]] = set()
        self._new_edges: set[tuple[Any, Any]] = set()

    def rebuild(self, graph: TemporalGraph) -> None:
        if self._initial_labels is None:
            # First rebuild (view registration): pin the old window and
            # remember which labels predate streaming, so later rebuilds
            # can tell appended points apart from registration-time ones.
            self._initial_labels = frozenset(graph.timeline.labels)
        requested = (
            self._requested_old
            if self._requested_old is not None
            else tuple(t for t in graph.timeline.labels if t in self._initial_labels)
        )
        old = ordered_times(graph, requested)
        if not old:
            raise ValidationError("evolution view requires a non-empty old window")
        self._graph = graph
        self._old_times = old
        node_set, edge_set = _appearance_sets(graph, self.attributes, old)
        self._old_nodes, self._old_edges = node_set, edge_set
        self._new_labels = [
            t for t in graph.timeline.labels if t not in self._initial_labels
        ]
        self._new_nodes = set()
        self._new_edges = set()
        for label in self._new_labels:
            point = ordered_times(graph, [label])
            nodes, edges = _appearance_sets(graph, self.attributes, point)
            self._new_nodes |= nodes
            self._new_edges |= edges

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        self._graph = graph
        point = ordered_times(graph, [update.time])
        nodes, edges = _appearance_sets(graph, self.attributes, point)
        self._new_nodes |= nodes
        self._new_edges |= edges
        self._new_labels.append(update.time)

    @property
    def old_times(self) -> tuple[Hashable, ...]:
        """The pinned old window ``T1`` (timeline order)."""
        return tuple(self._old_times)

    @property
    def new_times(self) -> tuple[Hashable, ...]:
        """The appended points forming the growing new window ``T2``."""
        return tuple(self._new_labels)

    def current(self) -> EvolutionAggregate:
        """The evolution aggregate between the pinned old window and the
        appended points, reduced from the maintained appearance sets.

        Bit-identical to ``aggregate_evolution(graph, old, appended,
        attributes)`` on the current graph — the delta identity the
        ``streaming-evolution-delta`` fuzz law checks.  Raises
        :class:`~repro.errors.ValidationError` before the first append
        (the new window is still empty).
        """
        if self._graph is None:
            raise ValidationError("evolution view was never rebuilt")
        if not self._new_labels:
            raise ValidationError(
                "evolution view has no appended points yet; "
                "the new window is empty"
            )
        return EvolutionAggregate(
            attributes=self.attributes,
            old_times=self._old_times,
            new_times=ordered_times(self._graph, self._new_labels),
            node_weights=_weights_from_appearances(
                self._old_nodes, self._new_nodes
            ),
            edge_weights=_weights_from_appearances(
                self._old_edges, self._new_edges
            ),
        )


def _padded(mask: np.ndarray, n_rows: int) -> np.ndarray:
    """The mask grown to ``n_rows`` with ``False`` for appended rows.

    Exact, not approximate: ``append_snapshot`` adds new entity rows at
    the end, and a row appended at point ``k`` is absent from every
    column before ``k`` — its from-scratch mask value over any earlier
    window is ``False`` under either semantics.
    """
    if mask.shape[0] == n_rows:
        return mask
    padded = np.zeros(n_rows, dtype=bool)
    padded[: mask.shape[0]] = mask
    return padded


class ExplorationView(StreamingView):
    """Incremental exploration state over the appended tail.

    Watches one event kind between a pinned reference point (the old
    side) and the growing window of appended points (the new side) —
    the streaming analogue of one :meth:`ChainEvaluator.chain` walk with
    ``ExtendSide.NEW``.  Per append, the new side's qualification mask
    is extended by a single OR/AND with the appended presence column,
    and the event count is re-reduced from the two masks; nothing is
    recomputed over the window.  Counts along the maintained chain keep
    the semi-lattice monotonicity U-/I-Explore prune by
    (:meth:`first_reaching`).

    Parameters
    ----------
    event, semantics, entity:
        The event kind counted, the new side's window semantics, and
        whether node or edge events are counted.
    attributes, key:
        As for :class:`~repro.exploration.EventCounter`, but restricted
        to *static* attributes — time-varying tuples would need the
        whole window's values per count, which is exactly the
        recomputation this view exists to avoid.
    reference:
        Timeline index of the pinned reference point; ``None`` pins the
        registration graph's last point.
    """

    def __init__(
        self,
        event: EventType,
        semantics: Semantics = Semantics.UNION,
        entity: EntityKind = EntityKind.EDGES,
        attributes: Sequence[str] = (),
        key: Any = None,
        reference: int | None = None,
    ) -> None:
        if key is not None and not attributes:
            raise ExplorationError("a key filter requires aggregation attributes")
        self.event = event
        self.semantics = semantics
        self.entity = entity
        self.attributes = tuple(attributes)
        self.key = key
        self._requested_reference = reference
        self._reference: int | None = None
        self._old_mask: np.ndarray = np.zeros(0, dtype=bool)
        self._new_mask: np.ndarray | None = None
        self._match: np.ndarray | None = None
        self._steps: list[ChainStep] = []

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def rebuild(self, graph: TemporalGraph) -> None:
        for name in self.attributes:
            if not graph.is_static(name):
                raise ExplorationError(
                    f"exploration view attribute {name!r} is time-varying; "
                    "only static attributes are delta-maintainable"
                )
        n_times = len(graph.timeline.labels)
        if self._reference is None:
            reference = (
                self._requested_reference
                if self._requested_reference is not None
                else n_times - 1
            )
            if not 0 <= reference < n_times:
                raise ExplorationError(
                    f"view reference {reference} out of range 0..{n_times - 1}"
                )
            self._reference = reference
        presence = graph.storage.presence_matrix(self.entity.value)
        self._old_mask = presence[:, self._reference].copy()
        self._match = (
            static_match_mask(graph, self.entity, self.attributes, self.key)
            if self.key is not None
            else None
        )
        self._new_mask = None
        self._steps = []
        for index in range(self._reference + 1, n_times):
            self._absorb(presence[:, index], index)

    def extend(self, graph: TemporalGraph, update: SnapshotUpdate) -> None:
        labels = graph.storage.entity_labels(self.entity.value)
        n_rows = len(labels)
        previous_rows = self._old_mask.shape[0]
        self._old_mask = _padded(self._old_mask, n_rows)
        if self._new_mask is not None:
            self._new_mask = _padded(self._new_mask, n_rows)
        if self._match is not None and n_rows > previous_rows:
            # Delta path: resolve static tuples only for the rows this
            # append introduced, never over the whole entity set.
            appended = static_match_mask(
                graph,
                self.entity,
                self.attributes,
                self.key,
                entities=labels[previous_rows:],
            )
            self._match = np.concatenate([self._match, appended])
        # Only the appended column is read, on either backend.
        labels = graph.timeline.labels
        column = graph.presence_mask(self.entity.value, [labels[-1]], "any")
        self._absorb(column, len(labels) - 1)

    def _absorb(self, column: np.ndarray, index: int) -> None:
        """One chain step: extend the new-side mask by ``column``."""
        if self._new_mask is None:
            new_mask = column.copy()
        elif self.semantics is Semantics.UNION:
            new_mask = self._new_mask | column
        else:
            new_mask = self._new_mask & column
        self._new_mask = new_mask
        mask = event_mask_from(self.event, self._old_mask, new_mask)
        if self._match is not None:
            count = int((mask & self._match).sum())
        else:
            count = int(mask.sum())
        assert self._reference is not None
        self._steps.append(
            ChainStep(
                Side.point(self._reference),
                Side(Interval(self._reference + 1, index), self.semantics),
                count,
                mask,
            )
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def reference(self) -> int | None:
        """The pinned reference index (``None`` before first rebuild)."""
        return self._reference

    def steps(self) -> tuple[ChainStep, ...]:
        """Every maintained chain step, oldest first — the same
        ``(old, new, count, mask)`` records ``ChainEvaluator.chain``
        yields for this reference on the current graph (early-step masks
        padded with ``False`` for entities that did not exist yet)."""
        return tuple(self._steps)

    def counts(self) -> tuple[int, ...]:
        """The event count after each append, oldest first."""
        return tuple(step.count for step in self._steps)

    def current_count(self) -> int:
        """The event count between the reference and the full appended
        window; raises before the first append."""
        if not self._steps:
            raise ExplorationError(
                "exploration view has no appended points yet"
            )
        return self._steps[-1].count

    def first_reaching(self, threshold: int) -> int | None:
        """Index of the earliest step whose count meets ``threshold``.

        Under union semantics the maintained counts are monotone along
        the chain for growth/stability events, so once a step reaches
        the threshold every later step does too — the U-Explore pruning
        rule, answered here without evaluating anything new.
        """
        for i, step in enumerate(self._steps):
            if step.count >= threshold:
                return i
        return None
