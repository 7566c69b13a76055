"""U-Explore, I-Explore and the eight exploration cases of Table 1.

The exploration problem (Definition 3.6): given a threshold ``k``, find
the *minimal* (under union-semantics extension) or *maximal* (under
intersection-semantics extension) interval pairs between which at least
``k`` events of one kind occurred.

Every case fixes one end of the pair as a reference time point and
extends the other end through the appropriate semi-lattice:

===========  =======  ===========  ==================  =================
Event        Goal     Extended     Monotonicity        Strategy
===========  =======  ===========  ==================  =================
stability    minimal  old or new   increasing          U-Explore
stability    maximal  old or new   decreasing          I-Explore
growth       minimal  new (∪)      increasing          U-Explore
growth       minimal  old (∪)      decreasing          consecutive pairs
growth       maximal  old (∩)      increasing          longest interval
growth       maximal  new (∩)      decreasing          I-Explore
shrinkage    minimal  old (∪)      increasing          U-Explore
shrinkage    minimal  new (∪)      decreasing          consecutive pairs
shrinkage    maximal  new (∩)      increasing          longest interval
shrinkage    maximal  old (∩)      decreasing          I-Explore
===========  =======  ===========  ==================  =================

The two degenerate strategies are the paper's shortcuts: when extension
can only lower the count, only the shortest pairs can be minimal (steps
1-2 of U-Explore); when extension can only raise it, only the longest
extension can be maximal.

All strategies run through :class:`~repro.exploration.events.ChainEvaluator`,
whose batched walks advance every chain of a reference range one depth
at a time over packed presence rows.  The per-pair walks they replaced
are the parity oracle (:func:`repro.testing.reference.explore_reference`).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..core import TemporalGraph
from .events import ChainEvaluator, EntityKind, EventCounter, EventType, check_counter
from .lattice import ExtendSide, Semantics
from .pairs import IntervalPairResult, PairTable
from ..errors import ExplorationError
from ..obs.metrics import get_metrics
from ..obs.trace import trace_span

__all__ = [
    "Goal",
    "ExtendSide",
    "IntervalPairResult",
    "ExplorationResult",
    "u_explore",
    "i_explore",
    "explore",
    "exhaustive_explore",
]


class Goal(enum.Enum):
    """Minimal pairs (union-semantics extension) or maximal pairs
    (intersection-semantics extension)."""

    MINIMAL = "minimal"
    MAXIMAL = "maximal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ExplorationResult:
    """The outcome of one exploration run.

    ``pairs`` is the :class:`~repro.exploration.pairs.PairTable` of the
    reported pairs: its length, counts and equality read integer
    columns, and its :class:`IntervalPairResult` objects are built on
    the first read of an element.  ``evaluations`` counts how many
    ``result(G)`` computations were performed — the cost metric the
    monotonicity pruning reduces (used by the pruning-ablation
    benchmark).
    """

    event: EventType
    goal: Goal
    extend: ExtendSide
    k: int
    pairs: PairTable
    evaluations: int

    def best(self) -> IntervalPairResult | None:
        """The pair with the highest count (ties: first)."""
        return self.pairs.best()

    def diff(self, other: "ExplorationResult") -> tuple[str, ...]:
        """Human-readable differences from another exploration result.

        Compares the problem parameters and the *set* of reported
        ``(old, new, count)`` pairs; ``evaluations`` is deliberately
        ignored — it is the cost metric strategies legitimately differ
        on, not part of the answer the differential oracle diffs.
        """
        problems: list[str] = []
        for field_name in ("event", "goal", "extend", "k"):
            ours = getattr(self, field_name)
            theirs = getattr(other, field_name)
            if ours != theirs:
                problems.append(f"{field_name} differs: {ours} != {theirs}")
        mine = {(str(p.old), str(p.new)): p.count for p in self.pairs}
        yours = {(str(p.old), str(p.new)): p.count for p in other.pairs}
        for key in sorted(set(mine) | set(yours)):
            a = mine.get(key)
            b = yours.get(key)
            if a != b:
                problems.append(f"pair {key!r}: count {a} != {b}")
        return tuple(problems)

    def __str__(self) -> str:
        pairs = ", ".join(str(p) for p in self.pairs) or "none"
        return (
            f"{self.event}/{self.goal} extending {self.extend} with k={self.k}: "
            f"{pairs} [{self.evaluations} evaluations]"
        )


# ----------------------------------------------------------------------
# Strategies
#
# Each Table-1 strategy is one batched ChainEvaluator walk over every
# reference point of the timeline, returning the table of reported pairs
# in reference order and the number of pairs it evaluated.
# ----------------------------------------------------------------------

_Walk = tuple[PairTable, int]


def _evaluator(counter: EventCounter, event: EventType) -> tuple[ChainEvaluator, int]:
    """The chain evaluator of a run and its number of reference points."""
    references = max(0, counter._rows.shape[0] - 1)
    return ChainEvaluator(counter, event), references


def _result(
    event: EventType, goal: Goal, extend: ExtendSide, k: int, walk: _Walk
) -> ExplorationResult:
    pairs, evaluations = walk
    return ExplorationResult(event, goal, extend, k, pairs, evaluations)


def u_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
) -> ExplorationResult:
    """Union Exploration (Section 3.2): minimal pairs with >= k events.

    The extended side walks its union semi-lattice; counts are
    monotonically increasing along the chain, so the first pair reaching
    ``k`` is the minimal one for its reference point and the rest of the
    chain is pruned.
    """
    evaluator, references = _evaluator(counter, event)
    walk = evaluator.walk_chains(0, references, extend, Semantics.UNION, k)
    return _result(event, Goal.MINIMAL, extend, k, walk)


def i_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
) -> ExplorationResult:
    """Intersection Exploration (Section 3.2): maximal pairs with >= k.

    The extended side walks its intersection semi-lattice; counts are
    monotonically decreasing, so each extension that still passes
    replaces its predecessor in the candidate set, and the chain stops at
    the first failure.  References whose shortest pair already fails are
    pruned entirely (step 2 of the paper's algorithm).
    """
    evaluator, references = _evaluator(counter, event)
    walk = evaluator.walk_chains(0, references, extend, Semantics.INTERSECTION, k)
    return _result(event, Goal.MAXIMAL, extend, k, walk)


def explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    *,
    counter: EventCounter | None = None,
) -> ExplorationResult:
    """Run one of the eight Table-1 exploration cases.

    Parameters
    ----------
    graph:
        The temporal graph to explore.
    event, goal, extend:
        Which Table-1 row to run.
    k:
        The event-count threshold (see
        :func:`repro.exploration.thresholds.suggest_threshold`).
    entity, attributes, key:
        What to count — e.g. ``entity=EDGES, attributes=["gender"],
        key=(("f",), ("f",))`` counts female-female edges as in the
        paper's Figures 13/14.
    counter:
        A prebuilt counter for exactly this graph, entity, attribute list
        and key -- the query planner passes one sharing its cube's index
        (:meth:`repro.olap.TemporalGraphCube.event_counter`).  ``None``
        builds one.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    check_counter(counter, graph, entity, attributes, key)
    get_metrics().inc("exploration.runs")
    with trace_span(
        "explore", event=str(event), goal=str(goal), extend=str(extend), k=k
    ):
        if counter is None:
            counter = EventCounter(graph, entity, attributes, key)
        # Growth extending NEW and shrinkage extending OLD extend the side
        # whose entities are counted, so their counts move with the
        # extension as stability's do: U-Explore finds minimal pairs and
        # I-Explore maximal ones.  In the mirrored cases extension can
        # only lower (minimal) or raise (maximal) the count, so only
        # consecutive point pairs (Sections 3.3/3.4) or each reference's
        # longest extension can qualify.
        widening = event is EventType.STABILITY or (
            (extend is ExtendSide.NEW) == (event is EventType.GROWTH)
        )
        evaluator, references = _evaluator(counter, event)
        if goal is Goal.MINIMAL and widening:
            walk = evaluator.walk_chains(0, references, extend, Semantics.UNION, k)
        elif goal is Goal.MINIMAL:
            walk = evaluator.walk_consecutive(0, references, k)
        elif widening:
            walk = evaluator.walk_chains(
                0, references, extend, Semantics.INTERSECTION, k
            )
        else:
            walk = evaluator.walk_longest(extend, 0, references, k)
        return _result(event, goal, extend, k, walk)


def exhaustive_explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
) -> ExplorationResult:
    """Oracle explorer: evaluates *every* pair in the case's candidate
    space and selects minimal/maximal pairs by definition (the first or
    last passing pair of each chain, in one unpruned walk).

    Used to validate the pruned strategies in tests, and as the baseline
    of the pruning-ablation benchmark.  The semantics of the extended
    side follow the goal (union for minimal, intersection for maximal),
    exactly as in :func:`explore`.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    get_metrics().inc("exploration.runs")
    with trace_span(
        "explore.exhaustive",
        event=str(event),
        goal=str(goal),
        extend=str(extend),
        k=k,
    ):
        counter = EventCounter(graph, entity=entity, attributes=attributes, key=key)
        evaluator, references = _evaluator(counter, event)
        semantics = (
            Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
        )
        walk = evaluator.walk_exhaustive(0, references, extend, semantics, k)
        return _result(event, goal, extend, k, walk)
