"""Two-sided exploration: extending both ends of an interval pair.

Section 3.3 closes with a warning: "When we extend both T_new and
T_old, difference is non-monotonous irrespectively to the semantics
(union or intersection) used" — which is why the paper's strategies fix
one reference point.  This module makes the consequence concrete:

* :func:`two_sided_counts` enumerates the full two-sided candidate
  space (every pair of non-overlapping spans) and its event counts;
* :func:`find_non_monotonic_path` exhibits a concrete violation — a
  chain of pairwise-nested pairs whose counts go up and then down — the
  empirical content of the paper's claim (tested on both datasets);
* :func:`two_sided_explore` is the honest fallback when both sides must
  vary: exhaustive search over the (quadratic) space with an explicit
  size guard, returning all pairs meeting the threshold that are
  minimal/maximal under pairwise span inclusion.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import Interval, TemporalGraph
from .events import EntityKind, EventCounter, EventType
from .explore import Goal
from .lattice import Semantics, Side
from ..errors import ExplorationError
from ..obs.metrics import get_metrics

__all__ = [
    "TwoSidedPair",
    "two_sided_counts",
    "find_non_monotonic_path",
    "two_sided_explore",
]

#: Pairs counted per batch of gathered side rows, which bounds the
#: memory of a count to a few batches of packed rows.
_BATCH = 4096


@dataclass(frozen=True)
class TwoSidedPair:
    """A candidate pair where both sides may be intervals."""

    old: Interval
    new: Interval
    count: int

    def contains(self, other: "TwoSidedPair") -> bool:
        """Span-wise containment (both sides)."""
        return self.old.contains(other.old) and self.new.contains(other.new)


def two_sided_counts(
    graph: TemporalGraph,
    event: EventType,
    semantics: Semantics,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    max_pairs: int = 20_000,
) -> list[TwoSidedPair]:
    """Counts for every non-overlapping (old span, new span) pair.

    The candidate space is O(n^4) in the number of time points; its size
    — the number of index quadruples ``a <= b < c <= d``, i.e.
    ``C(n+2, 4)`` — is computed arithmetically *before* anything is
    enumerated, so the ``max_pairs`` guard fails fast on a long timeline
    instead of materializing the doomed pair list first.

    Each span's packed side row is built once, by a running OR/AND over
    the counter's time-major rows from the span's first point, and the
    pairs are counted in batches of gathered rows.  Pairs come in
    ``(old start, old stop, new start, new stop)`` order.
    """
    n = len(graph.timeline)
    total = math.comb(n + 2, 4)
    if total > max_pairs:
        raise ExplorationError(
            f"two-sided space has {total} pairs (> {max_pairs}); "
            "shorten the timeline or raise max_pairs explicitly"
        )
    counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
    if not total:
        return []
    combine = np.bitwise_or if semantics is Semantics.UNION else np.bitwise_and
    rows, hit_rows = counter._rows, counter._hit_rows
    # Spans in (start, stop) order; those starting at ``a`` from first[a].
    spans = [Interval(a, b) for a in range(n) for b in range(a, n)]
    first = np.cumsum([0, *range(n, 0, -1)])
    span_rows = np.concatenate([combine.accumulate(rows[a:]) for a in range(n)])
    span_hits = np.concatenate(
        [np.bitwise_or.accumulate(hit_rows[a:]) for a in range(n)]
    )
    # Every old span against every span starting after its stop.
    pairs = [
        (i, j)
        for i, span in enumerate(spans)
        for j in range(first[span.stop + 1], len(spans))
    ]
    counts: list[int] = []
    for chunk in range(0, total, _BATCH):
        batch = pairs[chunk : chunk + _BATCH]
        old, new = np.array(batch, dtype=np.intp).T
        sides = []
        if counter._counts_appearances:
            sides = [
                (Side(spans[i], semantics), Side(spans[j], semantics))
                for i, j in batch
            ]
        hits = (span_hits[old], span_hits[new])
        counts += counter._packed_counts(
            event, span_rows[old], span_rows[new], hits, sides
        ).tolist()
    get_metrics().inc("exploration.chain_steps", total)
    return [TwoSidedPair(spans[i], spans[j], c) for (i, j), c in zip(pairs, counts)]


def find_non_monotonic_path(
    graph: TemporalGraph,
    event: EventType,
    semantics: Semantics,
    entity: EntityKind = EntityKind.EDGES,
) -> tuple[TwoSidedPair, TwoSidedPair, TwoSidedPair] | None:
    """A nested chain ``a ⊂ b ⊂ c`` whose counts are not monotone.

    Returns the witness (or ``None`` if the graph happens to be
    monotone, which finite data may be).  The existence of witnesses on
    ordinary data is the paper's justification for single-sided
    exploration.
    """
    pairs = two_sided_counts(graph, event, semantics, entity=entity)
    by_spans = {(p.old, p.new): p for p in pairs}
    for a in pairs:
        # Grow the old side, then the new side (one concrete nesting).
        if a.old.start == 0:
            continue
        b_spans = (a.old.extend_left(), a.new)
        b = by_spans.get(b_spans)
        if b is None:
            continue
        if b.new.stop + 1 >= len(graph.timeline):
            continue
        c = by_spans.get((b.old, b.new.extend_right()))
        if c is None:
            continue
        ups_then_down = a.count < b.count > c.count
        down_then_up = a.count > b.count < c.count
        if ups_then_down or down_then_up:
            return (a, b, c)
    return None


def two_sided_explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    max_pairs: int = 20_000,
) -> list[TwoSidedPair]:
    """Exhaustive two-sided exploration with pairwise-inclusion pruning.

    Returns the passing pairs that are *minimal* (no passing pair is
    span-contained in them) or *maximal* (no passing pair contains
    them).  Without monotonicity no search-space pruning is sound, so
    this is a filter over the full enumeration — the price the paper's
    reference-point restriction avoids.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    semantics = Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
    passing = [
        p
        for p in two_sided_counts(
            graph, event, semantics,
            entity=entity, attributes=attributes, key=key, max_pairs=max_pairs,
        )
        if p.count >= k
    ]
    if not passing:
        return []
    # Each passing pair is a point (old start, old stop, new start, new
    # stop) of a grid.  The pairs a pair contains lie in the box of points
    # with a later or equal start and an earlier or equal stop on both
    # sides; those that contain it, in the opposite box.  Reversing the
    # axes of the later-or-equal bounds makes every bound a prefix, so
    # one running sum per axis counts every box.  Each box holds its own
    # pair, so a pair is kept when its box counts one.
    n = len(graph.timeline)
    corners = tuple(
        np.array(
            [(p.old.start, p.old.stop, p.new.start, p.new.stop) for p in passing]
        ).T
    )
    grid = np.zeros((n, n, n, n), dtype=np.int32)
    grid[corners] = 1
    later = (0, 2) if goal is Goal.MINIMAL else (1, 3)
    grid = np.flip(grid, later)
    for axis in range(4):
        grid = grid.cumsum(axis=axis, dtype=np.int32)
    kept = np.flip(grid, later)[corners] == 1
    return [pair for pair, keep in zip(passing, kept.tolist()) if keep]
