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
which maintains the extended side's qualification mask incrementally
along each chain; pass ``incremental=False`` to force the naive
re-reduce-every-pair path (bit-identical results, used by the parity
suite and the scaling benchmark).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..core import TemporalGraph
from ..parallel import InlineExecutor, get_executor, plan_chunks
from .events import ChainEvaluator, ChainStep, EntityKind, EventCounter, EventType
from .lattice import ExtendSide, Semantics, Side
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
class IntervalPairResult:
    """One reported interval pair and its event count."""

    old: Side
    new: Side
    count: int

    def __str__(self) -> str:
        return f"({self.old}, {self.new}): {self.count}"


@dataclass(frozen=True)
class ExplorationResult:
    """The outcome of one exploration run.

    ``evaluations`` counts how many ``result(G)`` computations were
    performed — the cost metric the monotonicity pruning reduces (used by
    the pruning-ablation benchmark).
    """

    event: EventType
    goal: Goal
    extend: ExtendSide
    k: int
    pairs: tuple[IntervalPairResult, ...]
    evaluations: int

    def best(self) -> IntervalPairResult | None:
        """The pair with the highest count (ties: first)."""
        if not self.pairs:
            return None
        return max(self.pairs, key=lambda pair: pair.count)

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


def _pair(step: ChainStep) -> IntervalPairResult:
    return IntervalPairResult(step.old, step.new, step.count)


def _chain_capacity(n_times: int, reference: int, extend: ExtendSide) -> int:
    """How many pairs the full (unpruned) chain of a reference holds."""
    if extend is ExtendSide.NEW:
        return n_times - 1 - reference
    return reference + 1


def _record_pruning(
    n_times: int, reference: int, extend: ExtendSide, taken: int
) -> None:
    """Credit the monotonicity pruning with the chain steps it skipped."""
    skipped = _chain_capacity(n_times, reference, extend) - taken
    if skipped > 0:
        get_metrics().inc("exploration.pruned_steps", skipped)


# ----------------------------------------------------------------------
# Ranged chunk workers
#
# Each Table-1 strategy iterates independent reference points, so its
# loop body runs unchanged over any slice ``[start, stop)`` of the
# reference range.  The serial path executes the same worker over the
# full range ``(0, references)`` — parallel and serial results are the
# same function applied to a partition vs. the whole, concatenated in
# chunk order, hence bit-identical.  Workers return
# ``(pairs, evaluations)``; pruning/chain metrics accumulate in the
# worker registry and are merged back by the pool.
# ----------------------------------------------------------------------

#: ``(counter, event, goal, extend, k, incremental)`` — shared with every
#: chunk.
_StrategyPayload = tuple[EventCounter, EventType, Goal, ExtendSide, int, bool]
#: One slice ``(start, stop)`` of chain reference indices.
_ReferenceRange = tuple[int, int]
_ChunkResult = tuple[list[IntervalPairResult], int]


def _u_chunk(payload: _StrategyPayload, task: _ReferenceRange) -> _ChunkResult:
    """U-Explore over one slice of reference points."""
    counter, event, _goal, extend, k, incremental = payload
    start, stop = task
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    n_times = len(counter.graph.timeline)
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(start, stop):
        taken = 0
        for step in evaluator.chain(reference, extend, Semantics.UNION):
            taken += 1
            evaluations += 1
            if step.count >= k:
                pairs.append(_pair(step))
                break
        _record_pruning(n_times, reference, extend, taken)
    return pairs, evaluations


def _i_chunk(payload: _StrategyPayload, task: _ReferenceRange) -> _ChunkResult:
    """I-Explore over one slice of reference points."""
    counter, event, _goal, extend, k, incremental = payload
    start, stop = task
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    n_times = len(counter.graph.timeline)
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(start, stop):
        candidate: IntervalPairResult | None = None
        taken = 0
        for step in evaluator.chain(reference, extend, Semantics.INTERSECTION):
            taken += 1
            evaluations += 1
            if step.count >= k:
                candidate = _pair(step)
            else:
                break
        _record_pruning(n_times, reference, extend, taken)
        if candidate is not None:
            pairs.append(candidate)
    return pairs, evaluations


def _consecutive_chunk(
    payload: _StrategyPayload, task: _ReferenceRange
) -> _ChunkResult:
    """Consecutive-pairs strategy over one slice of reference points."""
    counter, event, _goal, _extend, k, incremental = payload
    start, stop = task
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for step in evaluator.consecutive(start, stop):
        evaluations += 1
        if step.count >= k:
            pairs.append(_pair(step))
    return pairs, evaluations


def _longest_chunk(
    payload: _StrategyPayload, task: _ReferenceRange
) -> _ChunkResult:
    """Longest-extension strategy over one slice of reference points."""
    counter, event, _goal, extend, k, incremental = payload
    start, stop = task
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for step in evaluator.longest(extend, start, stop):
        evaluations += 1
        if step.count >= k:
            pairs.append(_pair(step))
    return pairs, evaluations


def _run_strategy(
    chunk_fn: Any,
    goal: Goal,
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
    incremental: bool,
    parallelism: int | str | None,
) -> ExplorationResult:
    """Run a ranged chunk worker over every reference point.

    Serial executors get one call over the full range; pools get the
    range partitioned by the chunk planner and the slices' results
    concatenated in chunk order.
    """
    payload: _StrategyPayload = (counter, event, goal, extend, k, incremental)
    n_rows, n_times = counter._presence().shape
    references = max(0, n_times - 1)
    executor = get_executor(
        parallelism, task_hint=references * n_times * max(1, n_rows)
    )
    if isinstance(executor, InlineExecutor):
        pairs, evaluations = chunk_fn(payload, (0, references))
        return ExplorationResult(event, goal, extend, k, tuple(pairs), evaluations)
    tasks = [
        (chunk.start, chunk.stop)
        for chunk in plan_chunks(references, executor.workers)
    ]
    results = executor.map(chunk_fn, tasks, payload)
    pairs = []
    evaluations = 0
    for chunk_pairs, chunk_evaluations in results:
        pairs.extend(chunk_pairs)
        evaluations += chunk_evaluations
    return ExplorationResult(event, goal, extend, k, tuple(pairs), evaluations)


def u_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
    *,
    incremental: bool = True,
    parallelism: int | str | None = None,
) -> ExplorationResult:
    """Union Exploration (Section 3.2): minimal pairs with >= k events.

    The extended side walks its union semi-lattice; counts are
    monotonically increasing along the chain, so the first pair reaching
    ``k`` is the minimal one for its reference point and the rest of the
    chain is pruned.  Reference points are independent, so a pool
    distributes them without touching the per-chain pruning.
    """
    return _run_strategy(
        _u_chunk, Goal.MINIMAL, counter, event, extend, k, incremental, parallelism
    )


def i_explore(
    counter: EventCounter,
    event: EventType,
    extend: ExtendSide,
    k: int,
    *,
    incremental: bool = True,
    parallelism: int | str | None = None,
) -> ExplorationResult:
    """Intersection Exploration (Section 3.2): maximal pairs with >= k.

    The extended side walks its intersection semi-lattice; counts are
    monotonically decreasing, so each extension that still passes
    replaces its predecessor in the candidate set, and the chain stops at
    the first failure.  References whose shortest pair already fails are
    pruned entirely (step 2 of the paper's algorithm).
    """
    return _run_strategy(
        _i_chunk, Goal.MAXIMAL, counter, event, extend, k, incremental, parallelism
    )


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
    incremental: bool = True,
    parallelism: int | str | None = None,
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
    incremental:
        Evaluate chains incrementally (the default) or naively per pair;
        the results are identical, only the cost differs.
    parallelism:
        ``None`` (ambient default — see :mod:`repro.parallel`), a worker
        count, or ``"auto"``.  Chains are distributed over reference
        points; the per-chain U-/I-Explore pruning is untouched and the
        result is bit-identical to a serial run.
    counter:
        A prebuilt counter for exactly this graph, entity, attribute list
        and key -- the query planner passes one sharing its cube's index
        (:meth:`repro.olap.TemporalGraphCube.event_counter`).  ``None``
        builds one.
    """
    if k < 1:
        raise ExplorationError(f"threshold k must be positive, got {k}")
    if counter is not None and (
        counter.graph is not graph
        or counter.entity is not entity
        or counter.attributes != tuple(attributes)
        or counter.key != key
    ):
        raise ExplorationError(
            "counter was built for another graph, entity, attribute list or key"
        )
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
        args = (counter, event, extend, k, incremental, parallelism)
        if goal is Goal.MINIMAL:
            if widening:
                return _run_strategy(_u_chunk, goal, *args)
            return _run_strategy(_consecutive_chunk, goal, *args)
        if widening:
            return _run_strategy(_i_chunk, goal, *args)
        return _run_strategy(_longest_chunk, goal, *args)


def _exhaustive_chunk(
    payload: _StrategyPayload, task: _ReferenceRange
) -> _ChunkResult:
    """The oracle explorer's unpruned walk over one reference slice."""
    counter, event, goal, extend, k, incremental = payload
    start, stop = task
    evaluator = ChainEvaluator(counter, event, incremental=incremental)
    semantics = Semantics.UNION if goal is Goal.MINIMAL else Semantics.INTERSECTION
    pairs: list[IntervalPairResult] = []
    evaluations = 0
    for reference in range(start, stop):
        passing: list[IntervalPairResult] = []
        for step in evaluator.chain(reference, extend, semantics):
            evaluations += 1
            if step.count >= k:
                passing.append(_pair(step))
        if not passing:
            continue
        if goal is Goal.MINIMAL:
            # Definition 3.4: the shortest passing extension — no proper
            # sub-extension passes.  Chains yield in increasing length,
            # so that is the first passing pair.
            pairs.append(passing[0])
        else:
            # Definition 3.5: the longest passing extension — no proper
            # super-extension passes.  That is the last passing pair.
            pairs.append(passing[-1])
    return pairs, evaluations


def exhaustive_explore(
    graph: TemporalGraph,
    event: EventType,
    goal: Goal,
    extend: ExtendSide,
    k: int,
    entity: EntityKind = EntityKind.EDGES,
    attributes: Sequence[str] = (),
    key: Any = None,
    *,
    incremental: bool = True,
    parallelism: int | str | None = None,
) -> ExplorationResult:
    """Oracle explorer: evaluates *every* pair in the case's candidate
    space and selects minimal/maximal pairs by definition.

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
        return _run_strategy(
            _exhaustive_chunk, goal, counter, event, extend, k, incremental, parallelism
        )
