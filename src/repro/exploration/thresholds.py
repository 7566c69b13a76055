"""Initialization of the exploration threshold ``k`` (Section 3.5).

The starting value ``w_th`` is the minimum or maximum event count over
all pairs of *consecutive* time points: the intersection graphs for
stability, the appropriate difference graphs for growth and shrinkage.
For a monotonically increasing exploration one starts from the minimum
and raises ``k``; for a decreasing one, from the maximum, lowering it —
this is how the paper derives the ``k1 <= k2 <= k3`` ladders of its
Figures 13 and 14.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..core import TemporalGraph
from .events import ChainEvaluator, EntityKind, EventCounter, EventType
from ..errors import ExplorationError

__all__ = ["consecutive_event_counts", "suggest_threshold", "threshold_ladder"]


def consecutive_event_counts(
    graph: TemporalGraph,
    event: EventType,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> list[int]:
    """Event counts for every consecutive time-point pair ``(T_i, T_i+1)``,
    evaluated together as one batch."""
    counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
    return ChainEvaluator(counter, event).consecutive_counts()


def suggest_threshold(
    graph: TemporalGraph,
    event: EventType,
    mode: str = "max",
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> int:
    """The paper's initial threshold ``w_th``.

    ``mode`` is ``"max"`` (start high and decrease — the right start for
    monotonically decreasing explorations) or ``"min"`` (start low and
    increase).  Counts of zero are ignored when they are not the only
    value, so a single empty pair does not collapse the suggestion; when
    *every* count is zero the suggestion is floored at 1, the smallest
    threshold :func:`repro.exploration.explore` accepts.
    """
    if mode not in ("max", "min"):
        raise ExplorationError(f"mode must be 'max' or 'min', got {mode!r}")
    counts = consecutive_event_counts(
        graph, event, entity=entity, attributes=attributes, key=key
    )
    positive = [c for c in counts if c > 0]
    pool = positive or counts
    if not pool:
        raise ExplorationError("graph has fewer than two time points")
    return max(1, max(pool) if mode == "max" else min(pool))


def threshold_ladder(w_th: int, factors: Sequence[float]) -> list[int]:
    """Derive a ladder of thresholds from ``w_th``.

    The paper reports results at three thresholds obtained by scaling
    ``w_th`` (e.g. ``k3 = w_th, k2 = w_th/2, k1 = w_th/86`` for
    MovieLens stability).  Values are floored to at least 1.
    """
    ladder = []
    for factor in factors:
        if factor <= 0:
            raise ExplorationError(f"ladder factors must be positive, got {factor}")
        ladder.append(max(1, round(w_th * factor)))
    return ladder
