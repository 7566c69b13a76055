"""Time points, intervals and timelines.

The paper assumes an interval-labeled temporal graph over a finite ordered
set of base time points (years for DBLP, months for MovieLens).  A
:class:`Timeline` names those points; an :class:`Interval` is a contiguous,
inclusive span of them.  The temporal operators of Section 2.1 accept
arbitrary *sets* of time points (``T1``, ``T2``); intervals are the special
case the exploration strategies of Section 3 build via the union /
intersection semi-lattices.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from ..errors import TemporalError, TimeIndexError, UnknownLabelError

__all__ = ["Interval", "Timeline", "TimeSet"]

#: A set of time-point labels, as the temporal operators consume them.
TimeSet = tuple[Hashable, ...]


@dataclass(frozen=True, order=True)
class Interval:
    """A contiguous inclusive span ``[start, stop]`` of timeline indices.

    ``Interval(3, 3)`` is a single time point.  Intervals order
    lexicographically by ``(start, stop)``, which sorts chains built by the
    exploration lattice naturally.
    """

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise TemporalError(f"interval start must be >= 0, got {self.start}")
        if self.stop < self.start:
            raise TemporalError(
                f"interval stop {self.stop} precedes start {self.start}"
            )

    @classmethod
    def point(cls, index: int) -> "Interval":
        """The length-1 interval at ``index``."""
        return cls(index, index)

    @property
    def length(self) -> int:
        """Number of base time points covered."""
        return self.stop - self.start + 1

    @property
    def is_point(self) -> bool:
        return self.start == self.stop

    def indices(self) -> range:
        """The covered timeline indices, in order."""
        return range(self.start, self.stop + 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and self.start <= index <= self.stop

    def contains(self, other: "Interval") -> bool:
        """Whether this interval covers ``other`` entirely."""
        return self.start <= other.start and other.stop <= self.stop

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.stop and other.start <= self.stop

    def precedes(self, other: "Interval") -> bool:
        """Strictly before: every point of self is before every point of other."""
        return self.stop < other.start

    def extend_right(self, by: int = 1) -> "Interval":
        """The interval grown ``by`` points to the right (the semi-lattice
        "right child" step of U-Explore / I-Explore)."""
        return Interval(self.start, self.stop + by)

    def extend_left(self, by: int = 1) -> "Interval":
        """The interval grown ``by`` points to the left."""
        return Interval(self.start - by, self.stop)

    def __str__(self) -> str:
        if self.is_point:
            return f"[{self.start}]"
        return f"[{self.start}..{self.stop}]"


class Timeline:
    """An ordered sequence of named time points.

    Maps between positional indices (what :class:`Interval` speaks) and
    time-point labels (what the graph's presence-matrix columns are
    labeled with, e.g. ``2000 .. 2020`` or ``"May" .. "Oct"``).
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Sequence[Hashable]) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._index = {label: i for i, label in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise TemporalError("timeline labels must be unique")
        if not self._labels:
            raise TemporalError("a timeline needs at least one time point")

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return self._labels

    @property
    def positions(self) -> Mapping[Hashable, int]:
        """Label -> position; the time-columned frames of a graph share
        it as their column index."""
        return self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"Timeline({list(self._labels)!r})"

    def index_of(self, label: Hashable) -> int:
        """Positional index of a time-point label."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown time point: {label!r}") from None

    def label_at(self, index: int) -> Hashable:
        if not 0 <= index < len(self._labels):
            raise TimeIndexError(
                f"time index {index} out of range 0..{len(self._labels) - 1}"
            )
        return self._labels[index]

    def labels_for(self, interval: Interval) -> TimeSet:
        """Time-point labels covered by an interval."""
        if interval.stop >= len(self._labels):
            raise TimeIndexError(
                f"interval {interval} exceeds timeline of {len(self._labels)} points"
            )
        return tuple(self._labels[i] for i in interval.indices())

    def interval_of(self, labels: Iterable[Hashable]) -> Interval:
        """The smallest interval covering the given labels.

        Raises ``ValueError`` if the labels are not contiguous — callers
        that need arbitrary time sets should pass label tuples directly to
        the operators instead.
        """
        indices = sorted(self.index_of(label) for label in labels)
        if not indices:
            raise TemporalError("cannot build an interval from no labels")
        interval = Interval(indices[0], indices[-1])
        if len(indices) != interval.length:
            raise TemporalError(f"labels {list(labels)!r} are not contiguous")
        return interval

    def span(self, first: Hashable, last: Hashable) -> TimeSet:
        """All labels from ``first`` to ``last`` inclusive."""
        interval = Interval(self.index_of(first), self.index_of(last))
        return self.labels_for(interval)

    def full_interval(self) -> Interval:
        """The interval covering the whole timeline."""
        return Interval(0, len(self._labels) - 1)

    def consecutive_pairs(self) -> list[tuple[Interval, Interval]]:
        """All ``(T_i, T_{i+1})`` point pairs — the seeds of exploration
        (step 1 of U-Explore / I-Explore)."""
        return [
            (Interval.point(i), Interval.point(i + 1))
            for i in range(len(self._labels) - 1)
        ]
