"""Attribute-group exploration: which groups have interesting intervals?

The paper's exploration fixes one aggregate entity (e.g. female-female
edges) and searches intervals.  Its conclusions name the dual as future
work: "detect intervals *and attribute groups* of interest".  This
module implements it: a multi-group U-/I-Explore that walks each
reference point's extension chain **once**, computing event counts for
*every* aggregate group simultaneously (one ``bincount`` over
precomputed group ids per candidate pair instead of one full scan per
group), and reports per group the minimal/maximal pair at which it
crosses the threshold.

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
from .events import ChainEvaluator, EntityKind, EventCounter, EventType
from .explore import ExtendSide, Goal, IntervalPairResult
from .lattice import Semantics
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
    #: group key -> the pairs found for that group (one per reference
    #: point, as in single-group exploration).
    pairs_by_group: dict[Any, tuple[IntervalPairResult, ...]]
    evaluations: int

    @property
    def interesting_groups(self) -> tuple[Any, ...]:
        """Groups with at least one qualifying pair, by best count."""
        scored = [
            (max(p.count for p in pairs), key)
            for key, pairs in self.pairs_by_group.items()
            if pairs
        ]
        return tuple(key for _, key in sorted(scored, reverse=True, key=lambda s: (s[0], str(s[1]))))

    def best_pair(self, key: Any) -> IntervalPairResult | None:
        pairs = self.pairs_by_group.get(key, ())
        if not pairs:
            return None
        return max(pairs, key=lambda p: p.count)


class _GroupCounter:
    """Per-entity group ids over an event counter's static tuple codes,
    for one ``bincount`` per candidate pair."""

    def __init__(
        self,
        graph: TemporalGraph,
        entity: EntityKind,
        attributes: Sequence[str],
    ) -> None:
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
        self.events = EventCounter(graph, entity, attributes)
        codes, tuples = self.events._codes, self.events._tuples
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
        self.group_keys: list[Any] = [keys[i] for i in order]
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys))
        self.group_ids = np.zeros(codes.size, dtype=np.int64)
        self.group_ids[resolved] = rank[inverse]

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """Event count per group id of an event-entity mask."""
        return np.bincount(self.group_ids[mask], minlength=len(self.group_keys))


def explore_groups(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    attributes: Sequence[str],
    entity: EntityKind = EntityKind.EDGES,
) -> GroupExplorationResult:
    """Run one exploration case for every aggregate group at once.

    Semantics per group match :func:`repro.exploration.explore` with
    ``key=<group>`` exactly (tested against it); the difference is
    cost — one chain walk total instead of one per group.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    counter = _GroupCounter(graph, entity, attributes)
    n_times = len(graph.timeline)
    n_groups = len(counter.group_keys)
    semantics = Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
    found: dict[int, list[IntervalPairResult]] = {g: [] for g in range(n_groups)}
    evaluations = 0

    evaluator = ChainEvaluator(counter.events, event)
    for ref in range(n_times - 1):
        chain = evaluator.chain(ref, extend, semantics)
        if goal is Goal.MINIMAL:
            active = np.ones(n_groups, dtype=bool)
            for step in chain:
                if not active.any():
                    break
                evaluations += 1
                counts = counter.counts(step.mask)
                crossed = active & (counts >= k)
                for g in np.flatnonzero(crossed):
                    found[int(g)].append(
                        IntervalPairResult(step.old, step.new, int(counts[g]))
                    )
                active &= ~crossed
        else:
            # Definition 3.5: the maximal pair is the *longest* passing
            # extension.  Some Table-1 maximal cases are monotonically
            # increasing (a group can fail early yet pass at the longest
            # extension), so the whole chain is walked and the last
            # passing pair kept per group.
            candidate: dict[int, IntervalPairResult] = {}
            for step in chain:
                evaluations += 1
                counts = counter.counts(step.mask)
                for g in np.flatnonzero(counts >= k):
                    candidate[int(g)] = IntervalPairResult(
                        step.old, step.new, int(counts[g])
                    )
            for g, pair in candidate.items():
                found[g].append(pair)

    pairs_by_group = {
        counter.group_keys[g]: tuple(pairs) for g, pairs in found.items()
    }
    return GroupExplorationResult(
        event=event,
        goal=goal,
        extend=extend,
        k=k,
        attributes=tuple(attributes),
        pairs_by_group=pairs_by_group,
        evaluations=evaluations,
    )
