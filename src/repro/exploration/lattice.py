"""Union / intersection semi-lattices over consecutive intervals (§3.1).

The exploration strategies never consider arbitrary time sets: starting
from pairs of consecutive base time points they repeatedly extend one
side of the pair with its *child* in the union or intersection
semi-lattice — i.e. the span grown by one adjacent base interval.  A
:class:`Side` is such a span together with the semantics that give it
meaning as a graph:

* ``Semantics.UNION`` — an entity qualifies on the side if it exists at
  *any* covered time point (the relaxed view; monotonically increasing);
* ``Semantics.INTERSECTION`` — the entity must exist at *every* covered
  time point (the strict view; monotonically decreasing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core import Interval, Timeline
from ..core.intervals import TimeSet

__all__ = ["Semantics", "Side", "ExtendSide"]


class Semantics(enum.Enum):
    """How a multi-point span selects entities."""

    UNION = "union"
    INTERSECTION = "intersection"

    def __str__(self) -> str:
        return self.value


class ExtendSide(enum.Enum):
    """Which end of the pair is extended; the other is the reference."""

    OLD = "old"
    NEW = "new"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Side:
    """One side of an interval pair: a span plus its semantics.

    A single time point is the same graph under either semantics; spans
    of length > 1 differ.
    """

    interval: Interval
    semantics: Semantics = Semantics.UNION

    @classmethod
    def point(cls, index: int) -> "Side":
        """A single-time-point side (semantics irrelevant)."""
        return cls(Interval.point(index), Semantics.UNION)

    @property
    def is_point(self) -> bool:
        return self.interval.is_point

    def labels(self, timeline: Timeline) -> TimeSet:
        """The time-point labels this side spans on a concrete timeline.

        This is the bridge from lattice coordinates to operator time
        sets: under union semantics the side *is* ``union(labels)``,
        under intersection semantics ``project(labels)`` — the
        correspondence the metamorphic exploration laws exercise.
        """
        return timeline.labels_for(self.interval)

    def __str__(self) -> str:
        if self.is_point:
            return str(self.interval)
        return f"{self.interval}({self.semantics})"

