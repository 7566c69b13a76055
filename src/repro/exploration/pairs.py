"""Reported interval pairs, kept as integer columns (Definitions 3.4-3.6).

An exploration run reports at most one interval pair per reference
point, with its event count.  The chain walks decide every pair in
numpy, so they report them as one read-only :class:`PairTable`: the old
side's start and stop, the new side's start and stop, and the count, one
``int64`` column each, plus one :class:`~repro.exploration.lattice.Semantics`
per side.  The length, the counts, the best pair and equality between
tables read the columns; the :class:`IntervalPairResult` objects are
built on the first read of an element, once per table.
"""

from __future__ import annotations

import functools
import operator
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, overload

import numpy as np

from ..core import Interval
from ..errors import ExplorationError
from .lattice import Semantics, Side

__all__ = ["IntervalPairResult", "PairTable"]


@dataclass(frozen=True)
class IntervalPairResult:
    """One reported interval pair and its event count."""

    old: Side
    new: Side
    count: int

    def __str__(self) -> str:
        return f"({self.old}, {self.new}): {self.count}"


def _shared_sides(semantics: Semantics) -> Callable[[int, int], Side]:
    """The sides of one semantics by ``(start, stop)``, each shared by
    every table that reports it: sides are immutable values, and the
    cache's fixed size bounds what it holds."""

    @functools.lru_cache(maxsize=2048)
    def side(start: int, stop: int) -> Side:
        return Side(Interval(start, stop), semantics)

    return side


_SIDES = {semantics: _shared_sides(semantics) for semantics in Semantics}


#: Serializes the first build of a table's pairs, so every reader of
#: one table gets the same tuple.
_BUILD_LOCK = threading.Lock()


class PairTable(Sequence[IntervalPairResult]):
    """The reported pairs of one run, in report order, as columns.

    ``columns`` is a ``(5, pairs)`` integer array: old start, old stop,
    new start, new stop and count.  Every old side carries
    ``old_semantics`` and every new side ``new_semantics``.  The table
    is a read-only sequence of :class:`IntervalPairResult`; it compares
    equal to another table with the same pairs, and to the tuple of its
    pairs.
    """

    __slots__ = ("_columns", "_semantics", "_pairs")

    def __init__(
        self,
        columns: np.ndarray,
        old_semantics: Semantics = Semantics.UNION,
        new_semantics: Semantics = Semantics.UNION,
    ) -> None:
        columns = np.array(columns, dtype=np.int64)
        if columns.ndim != 2 or columns.shape[0] != 5:
            raise ExplorationError(
                f"a pair table needs 5 columns, got shape {columns.shape}"
            )
        columns.flags.writeable = False
        self._columns = columns
        self._semantics = (old_semantics, new_semantics)
        self._pairs: tuple[IntervalPairResult, ...] | None = None

    @classmethod
    def of(
        cls,
        old_start: Any,
        old_stop: Any,
        new_start: Any,
        new_stop: Any,
        counts: Any,
        old_semantics: Semantics = Semantics.UNION,
        new_semantics: Semantics = Semantics.UNION,
    ) -> "PairTable":
        """A table from its five columns (arrays or scalars, broadcast
        to the counts' length)."""
        counts = np.asarray(counts, dtype=np.int64)
        columns = np.empty((5, counts.size), dtype=np.int64)
        columns[0], columns[1], columns[2], columns[3] = (
            old_start, old_stop, new_start, new_stop
        )
        columns[4] = counts
        return cls(columns, old_semantics, new_semantics)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Side, Side, int]]) -> "PairTable":
        """A table from ``(old, new, count)`` triples whose old sides
        share one semantics, and whose new sides share one."""
        triples = list(pairs)
        semantics = {(old.semantics, new.semantics) for old, new, _ in triples}
        if len(semantics) > 1:
            raise ExplorationError("the pairs of one table share each side's semantics")
        columns = [
            (old.interval.start, old.interval.stop, new.interval.start, new.interval.stop, count)
            for old, new, count in triples
        ]
        table = np.array(columns, dtype=np.int64).reshape(len(triples), 5).T
        return cls(table, *(semantics.pop() if semantics else ()))

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------

    @property
    def columns(self) -> np.ndarray:
        """The read-only ``(5, pairs)`` column array."""
        return self._columns

    @property
    def counts(self) -> np.ndarray:
        """Each pair's event count, in report order."""
        return self._columns[4]

    def __len__(self) -> int:
        return int(self._columns.shape[1])

    def best(self) -> IntervalPairResult | None:
        """The pair with the highest count (ties: first)."""
        if not len(self):
            return None
        return self[int(np.argmax(self.counts))]

    # ------------------------------------------------------------------
    # Pairs
    # ------------------------------------------------------------------

    def _pair(self, index: int) -> IntervalPairResult:
        """One pair, built alone (the columns bound-check ``index``)."""
        old_start, old_stop, new_start, new_stop, count = self._columns[:, index].tolist()
        old, new = (_SIDES[semantics] for semantics in self._semantics)
        return IntervalPairResult(old(old_start, old_stop), new(new_start, new_stop), count)

    def as_tuple(self) -> tuple[IntervalPairResult, ...]:
        """The pairs as objects: built on the first call, then shared."""
        pairs = self._pairs
        if pairs is None:
            with _BUILD_LOCK:
                pairs = self._pairs
                if pairs is None:
                    old, new = (_SIDES[semantics] for semantics in self._semantics)
                    pairs = tuple(
                        [
                            IntervalPairResult(old(a, b), new(c, d), n)
                            for a, b, c, d, n in self._columns.T.tolist()
                        ]
                    )
                    self._pairs = pairs
        return pairs

    @overload
    def __getitem__(self, index: int) -> IntervalPairResult: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[IntervalPairResult, ...]: ...

    def __getitem__(
        self, index: int | slice
    ) -> IntervalPairResult | tuple[IntervalPairResult, ...]:
        if isinstance(index, slice) or self._pairs is not None:
            return self.as_tuple()[index]
        return self._pair(operator.index(index))

    def __iter__(self) -> Iterator[IntervalPairResult]:
        return iter(self.as_tuple())

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairTable):
            if len(self) != len(other):
                return False
            return not len(self) or (
                self._semantics == other._semantics
                and bool(np.array_equal(self._columns, other._columns))
            )
        if isinstance(other, tuple):
            return self.as_tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return repr(self.as_tuple())

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), (self._columns, *self._semantics)


#: A table without pairs.
EMPTY = PairTable(np.zeros((5, 0), dtype=np.int64))
