"""Attribute-group exploration: which groups have interesting intervals?

The paper's exploration fixes one aggregate entity (e.g. female-female
edges) and searches intervals.  Its conclusions name the dual as future
work: "detect intervals *and attribute groups* of interest".  This
module implements it: a multi-group U-/I-Explore that walks every
reference point's extension chain **once**, one depth at a time over
the counter's packed rows, computing event counts for *every* aggregate
group of every live chain together (one sum per group over the entities
in group order per depth, instead of one full scan per group), and
reports per group the minimal/maximal pair at which it crosses the
threshold.

Only static grouping attributes are supported — group membership must
be time-invariant for a single per-entity group id to exist.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import TemporalGraph
from ..core.fast import check_no_dangling_edges
from .events import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    check_counter,
    event_mask_from,
)
from .explore import ExtendSide, Goal
from .lattice import Semantics
from .pairs import EMPTY, IntervalPairResult, PairTable
from ..errors import ExplorationError

__all__ = ["GroupExplorationResult", "explore_groups"]


@dataclass(frozen=True)
class GroupExplorationResult:
    """Per-group interesting pairs for one exploration case."""

    event: EventType
    goal: Goal
    extend: ExtendSide
    k: int
    attributes: tuple[str, ...]
    #: group key -> the table of pairs found for that group (one per
    #: reference point, as in single-group exploration).
    pairs_by_group: dict[Any, PairTable]
    evaluations: int

    @property
    def interesting_groups(self) -> tuple[Any, ...]:
        """Groups with at least one qualifying pair, by best count."""
        scored = [
            (int(pairs.counts.max()), key)
            for key, pairs in self.pairs_by_group.items()
            if len(pairs)
        ]
        return tuple(key for _, key in sorted(scored, reverse=True, key=lambda s: (s[0], str(s[1]))))

    def best_pair(self, key: Any) -> IntervalPairResult | None:
        return self.pairs_by_group.get(key, EMPTY).best()


def _group_counter(
    graph: TemporalGraph,
    entity: EntityKind,
    attributes: Sequence[str],
    counter: EventCounter | None,
) -> tuple[EventCounter, list[Any], np.ndarray, np.ndarray]:
    """An event counter over static grouping attributes (``counter``, or
    a new one), its group keys (sorted by their string form), the
    entities in group order and the position in that order where each
    group starts."""
    if not attributes:
        raise ExplorationError("group exploration needs grouping attributes")
    for name in attributes:
        if not graph.is_static(name):
            raise ExplorationError(
                f"group exploration requires static attributes; "
                f"{name!r} is time-varying"
            )
    if entity is EntityKind.EDGES:
        check_no_dangling_edges(graph, error=ExplorationError)
    if counter is None:
        counter = EventCounter(graph, entity, attributes)
    codes, tuples = counter._codes, counter._tuples
    assert codes is not None
    base = max(1, len(tuples))
    # A dangling edge absent from every point (code -1) never
    # qualifies: it joins no group, and its id 0 is never counted.
    resolved = codes >= 0
    distinct, inverse = np.unique(codes[resolved], return_inverse=True)
    keys = [
        tuples[c]
        if entity is EntityKind.NODES
        else (tuples[c // base], tuples[c % base])
        for c in distinct.tolist()
    ]
    order = sorted(range(len(keys)), key=lambda i: str(keys[i]))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    group_ids = np.zeros(codes.size, dtype=np.int64)
    group_ids[resolved] = rank[inverse]
    entities = np.argsort(group_ids, kind="stable")
    starts = np.searchsorted(group_ids[entities], np.arange(len(keys)))
    return counter, [keys[i] for i in order], entities, starts


def _group_counts(
    words: np.ndarray, entities: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``(rows, groups)`` event counts of ``(rows, words)`` packed event
    rows: each row's bits in group order, summed over each group."""
    if not starts.size:
        return np.zeros((len(words), 0), dtype=np.int64)
    bits = np.unpackbits(
        words.view(np.uint8), axis=1, count=entities.size, bitorder="little"
    )
    return np.add.reduceat(bits[:, entities], starts, axis=1, dtype=np.int64)


def explore_groups(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    attributes: Sequence[str],
    entity: EntityKind = EntityKind.EDGES,
    *,
    counter: EventCounter | None = None,
) -> GroupExplorationResult:
    """Run one exploration case for every aggregate group at once.

    Semantics per group match :func:`repro.exploration.explore` with
    ``key=<group>`` exactly (tested against it); the difference is
    cost — one chain walk total instead of one per group.  ``counter``
    is a prebuilt keyless counter for exactly this graph, entity and
    attribute list, as :func:`repro.exploration.explore` takes; ``None``
    builds one.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    check_counter(counter, graph, entity, attributes, None)
    counter, group_keys, entities, starts = _group_counter(
        graph, entity, attributes, counter
    )
    n_groups = len(group_keys)
    references = max(0, len(graph.timeline) - 1)
    minimal = goal is Goal.MINIMAL
    semantics = Semantics.UNION if minimal else Semantics.INTERSECTION
    # Per (reference, group): the depth of the reported pair and its count.
    found_depth = np.zeros((references, n_groups), dtype=np.intp)
    found_count = np.zeros((references, n_groups), dtype=np.int64)
    # A minimal chain retires once every group has crossed (so, with no
    # group, before its first pair).  Definition 3.5 makes the maximal
    # pair the *longest* passing extension, and some Table-1 maximal
    # cases are monotonically increasing (a group can fail early yet
    # pass at the longest extension), so a maximal chain is walked whole
    # and the last passing pair kept per group.
    walked = references if n_groups or not minimal else 0
    evaluator = ChainEvaluator(counter, event)
    evaluations = 0
    for depth, live, pair, _, retire in evaluator.walk_depths(
        0, walked, extend, semantics
    ):
        evaluations += live.size
        counts = _group_counts(event_mask_from(event, *pair), entities, starts)
        passed = counts >= k
        if minimal:
            passed &= found_depth[live] == 0
        chains, groups = np.nonzero(passed)
        found_depth[live[chains], groups] = depth
        found_count[live[chains], groups] = counts[chains, groups]
        if minimal:
            retire |= (found_depth[live] > 0).all(axis=1)

    pairs_by_group: dict[Any, PairTable] = {}
    for g, key in enumerate(group_keys):
        chains = np.flatnonzero(found_depth[:, g])
        pairs_by_group[key] = evaluator.chain_pairs(
            chains, found_depth[chains, g], found_count[chains, g], extend, semantics
        )
    return GroupExplorationResult(
        event=event,
        goal=goal,
        extend=extend,
        k=k,
        attributes=tuple(attributes),
        pairs_by_group=pairs_by_group,
        evaluations=evaluations,
    )
