"""The four workloads of the end-to-end benchmark: inputs, loops, checks.

Every input derives from the seed ``S``: graphs are generated with seed
``7 + S`` and statement draws use ``numpy.random.default_rng(S)``.  The
Zipf request trace is one fixed sequence of ranks (see
:data:`ZIPF_TRACE_SEED`).  The query mixes and the synthetic-graph
recipe are defined here rather than imported from the library or the
older bench scripts, so a later change to those cannot silently change
what this benchmark measures.

Every set-up also touches every layer once -- one append through the
store and one statement of every kind -- so every traced span records
work on every workload, even where the timed loop does not reach it.

Each workload drives the public serving API (:class:`QueryServer` over a
:class:`StreamingStore`) from one process:

* :meth:`Workload.setup` generates the inputs, builds the serving state
  (the server follows a store that ingests the newest point through
  ``append_snapshot``) and warms it up with one statement of every kind
  (:func:`probe_statements`) -- serve_hot also serves its mix twice;
* :meth:`Workload.run` is the timed closed loop: whole units of identical
  work (:meth:`Workload.unit`) until the run's seconds are spent, so each
  operation is timed once per unit;
* :meth:`Workload.check` diffs answers against from-scratch evaluation
  after the timed phase.  Stream checks run between epochs, outside the
  timed sections.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import datasets
from repro.core import TemporalGraph, presence_signature, snapshot_at, union
from repro.exploration import (
    EntityKind,
    EventType,
    ExtendSide,
    Goal,
    exhaustive_explore,
    suggest_threshold,
)
from repro.query import run_query
from repro.serving import QueryServer
from repro.streaming import StreamingStore

__all__ = ["FULL", "SMOKE", "Sizes", "Samples", "WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMOKE` a quick check."""

    dblp_scale: float
    zipf_universe: int
    zipf_round: int
    zipf_span: int
    hot_passes: int
    stream_points: int
    stream_nodes: int
    stream_edges: int
    stream_seed_points: int
    stream_window: int
    explore_points: int
    explore_nodes: int
    explore_edges: int
    explore_ladder: tuple[float, ...]


FULL = Sizes(
    dblp_scale=0.1,
    zipf_universe=3000,
    zipf_round=300,
    zipf_span=4,
    hot_passes=1000,
    stream_points=100,
    stream_nodes=150,
    stream_edges=200,
    stream_seed_points=40,
    stream_window=10,
    explore_points=60,
    explore_nodes=200,
    explore_edges=500,
    explore_ladder=(0.125, 0.25, 0.5, 0.75, 1.0, 1.5),
)

SMOKE = Sizes(
    dblp_scale=0.01,
    zipf_universe=200,
    zipf_round=100,
    zipf_span=3,
    hot_passes=20,
    stream_points=30,
    stream_nodes=30,
    stream_edges=40,
    stream_seed_points=12,
    stream_window=4,
    explore_points=16,
    explore_nodes=40,
    explore_edges=80,
    explore_ladder=(0.5, 1.0),
)


@dataclass
class Samples:
    """What one timed unit (or a whole run, :meth:`merged`) measured."""

    #: Per-operation latency in seconds (stream: appends and reads).
    latencies: list[float] = field(default_factory=list)
    #: The appends among them (stream only), seconds.
    appends: list[float] = field(default_factory=list)
    #: Wall time of the timed section, seconds.
    elapsed: float = 0.0
    errors: int = 0
    #: Correctness checks made right after the unit (stream epochs) and failed.
    checks: int = 0
    check_failures: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies) + self.errors

    @property
    def rate(self) -> float:
        """Completed operations per second."""
        return len(self.latencies) / self.elapsed

    @classmethod
    def merged(cls, units: list[Samples]) -> Samples:
        """All units of a run as one sample."""
        total = cls()
        for unit in units:
            total.latencies += unit.latencies
            total.appends += unit.appends
            total.elapsed += unit.elapsed
            total.errors += unit.errors
            total.checks += unit.checks
            total.check_failures += unit.check_failures
        return total


def _level(rng: np.random.Generator, node_ids: np.ndarray, t: int) -> np.ndarray:
    return (node_ids % 4 + 1).astype(object)


def synthetic_graph(n_times: int, nodes: int, edges: int, seed: int) -> TemporalGraph:
    """The synthetic exploration-scaling recipe: a static ``color`` and a
    time-varying ``level`` over a timeline ``0 .. n_times - 1``."""
    config = datasets.EvolvingGraphConfig(
        times=tuple(range(n_times)),
        node_targets=(nodes,) * n_times,
        edge_targets=(edges,) * n_times,
        node_survival=0.8,
        node_return=0.3,
        edge_repeat=0.5,
        static_attrs=(
            datasets.StaticAttributeSpec("color", ("red", "blue", "green")),
        ),
        varying_attrs=(datasets.VaryingAttributeSpec("level", _level),),
        seed=seed,
    )
    return datasets.generate_evolving_graph(config)


def probe_statements(
    labels: tuple[Any, ...], static: str, varying: str
) -> tuple[str, ...]:
    """One cheap statement of every kind the server answers: a cube-routed
    aggregate and its permuted twin, a base-routed aggregate over an
    operator, an evolution, a bare operator and an exploration."""
    mid, last = labels[len(labels) // 2], labels[-1]
    return (
        f"aggregate {static}, {varying} distinct over union [{last}]",
        f"aggregate {varying}, {static} distinct over union [{last}]",
        f"aggregate {static} all over intersection [{mid}], [{last}]",
        f"evolution [{mid}] -> [{last}] by {static}",
        f"difference [{last}], [{mid}]",
        f"explore growth minimal extend old k 1 on nodes by {static}",
    )


def serve_over_store(graph: TemporalGraph) -> tuple[StreamingStore, QueryServer]:
    """A server following a store seeded with all but the last point of
    ``graph``, which then arrives through ``append_snapshot``."""
    labels = graph.timeline.labels
    store = StreamingStore(union(graph, labels[:-1]))
    server = QueryServer(store)
    store.append_snapshot(snapshot_at(graph, labels[-1]))
    return store, server


def same_answer(served: Any, expected: Any) -> bool:
    """Served and from-scratch results agree (graphs by presence)."""
    if isinstance(expected, TemporalGraph):
        return presence_signature(served) == presence_signature(expected)
    return not served.diff(expected)


def _timed(fn: Any, samples: Samples, *args: Any) -> Any:
    """Run one operation, recording its latency or counting its failure."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # a failed request is reported and counted; go on
        traceback.print_exc()
        samples.errors += 1
        return None
    samples.latencies.append(time.perf_counter() - start)
    return result


def warm_up(trace: Any, server: QueryServer, statements: Any) -> None:
    """Serve every warm-up statement once, untimed."""
    with trace.region("harness.warmup"):
        for text in statements:
            server.serve(text)


class Workload:
    """One workload: its inputs, timed loop and correctness checks."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def graph(self) -> TemporalGraph:
        """The generated input graph."""
        raise NotImplementedError

    def statements(self, graph: TemporalGraph) -> tuple[str, ...]:
        """Every statement the workload sends over ``graph``."""
        raise NotImplementedError

    def setup(self, trace: Any) -> Any:
        raise NotImplementedError

    def unit(self, state: Any, trace: Any) -> Samples:
        """One timed unit of work; every unit of a run does the same work."""
        raise NotImplementedError

    def run(self, state: Any, seconds: float, trace: Any) -> list[Samples]:
        """Whole units until ``seconds`` of timed work."""
        units: list[Samples] = []
        while sum(unit.elapsed for unit in units) < seconds:
            units.append(self.unit(state, trace))
        return units

    def check(self, state: Any) -> tuple[int, int]:
        """``(checks made, checks failed)``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# serve_hot
# ----------------------------------------------------------------------


def hot_mix(labels: tuple[Any, ...]) -> tuple[str, ...]:
    """The 11-statement mixed workload over gender/publications (the mix
    ``repro.serving.mixed_queries`` produced when this benchmark was
    defined): ALL and DIST aggregates, commuted duplicates, an
    evolution and bare operators."""
    first, mid, last = labels[0], labels[len(labels) // 2], labels[-1]
    return (
        f"aggregate gender all over union [{first}..{last}]",
        f"aggregate gender over union [{first}], [{mid}]",
        f"aggregate gender over union [{mid}], [{first}]",
        f"aggregate gender distinct over project [{first}..{mid}]",
        f"evolution [{first}..{mid}] -> [{last}] by gender",
        f"union [{first}], [{last}]",
        f"intersection [{first}..{mid}], [{mid}..{last}]",
        f"difference [{last}], [{first}]",
        f"aggregate gender, publications all over union [{first}..{last}]",
        f"aggregate publications, gender all over union [{first}..{last}]",
        f"aggregate gender, publications distinct over union [{mid}]",
    )


@dataclass
class ServingState:
    graph: TemporalGraph
    store: StreamingStore
    server: QueryServer
    #: serve_hot: the mix; serve_zipf: the requests of one round.
    statements: tuple[str, ...]


class ServeHot(Workload):
    """One client cycles the mix on a warm server: every request hits the
    result cache, so parse, normalize, cache lookup and permute are the
    whole cost and the aggregation engines never run."""

    name = "serve_hot"

    def graph(self) -> TemporalGraph:
        return datasets.generate_dblp(self.sizes.dblp_scale, seed=7 + self.seed)

    def statements(self, graph: TemporalGraph) -> tuple[str, ...]:
        return hot_mix(graph.timeline.labels)

    def setup(self, trace: Any) -> ServingState:
        with trace.region("datasets.generate"):
            graph = self.graph()
        store, server = serve_over_store(graph)
        labels = graph.timeline.labels
        mix = hot_mix(labels)
        probes = probe_statements(labels, "gender", "publications")
        warm_up(trace, server, probes + mix + mix)
        return ServingState(graph, store, server, mix)

    def unit(self, state: ServingState, trace: Any) -> Samples:
        """The mix, ``hot_passes`` times over."""
        samples = Samples()
        serve = state.server.serve
        start = time.perf_counter()
        for _ in range(self.sizes.hot_passes):
            for text in state.statements:
                _timed(serve, samples, text)
        samples.elapsed = time.perf_counter() - start
        return samples

    def check(self, state: ServingState) -> tuple[int, int]:
        """Each mix statement served cold (a fresh server) and cached must
        match from-scratch evaluation on the generated graph."""
        failed = 0
        _, cold = serve_over_store(state.graph)
        for text in state.statements:
            expected = run_query(state.graph, text)
            for server in (cold, state.server):
                if not same_answer(server.serve(text).result, expected):
                    failed += 1
        return 2 * len(state.statements), failed


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------

#: Statement kinds by rank modulo 20: 55% aggregate over union, 15%
#: aggregate over project/intersection/difference, 10% evolution, 20%
#: bare operators.
ZIPF_PATTERN = ("agg_union",) * 11 + ("agg_other",) * 3 + ("evolution",) * 2 + (
    "operator",
) * 4
#: Attributes by rank modulo 4.  Each block of four consecutive ranks
#: shares its windows, so the pair is asked in both orders (one cache
#: entry, permuted) and each attribute alone can roll up from it.
ZIPF_ATTRIBUTES = (
    "gender, publications",
    "publications, gender",
    "gender",
    "publications",
)
ZIPF_OPERATORS = ("union", "intersection", "difference", "project")
ZIPF_EXPONENT = 1.1

#: Seed of the request trace (the sequence of ranks) and of the window
#: lengths of each block of ranks.  Every run replays the same trace, and
#: a statement's shape -- kind, attributes, mode, operator, window count
#: and lengths -- depends only on its rank, so every seed has the same
#: hit/miss pattern over misses of the same cost class; the run's seed
#: picks the graph and where each window sits.  With a trace and shapes
#: drawn per seed, throughput across ten seeds spread by a quarter of its
#: median.
ZIPF_TRACE_SEED = 2023


def zipf_shapes(size: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Per block: two window lengths in ``1..span``, and whether an
    aggregate over a union takes one window (an eighth do) or two."""
    rng = np.random.default_rng([ZIPF_TRACE_SEED, 0])
    return rng.integers(1, span + 1, size=(size, 2)), rng.random(size) < 0.125


def _window(labels: tuple[Any, ...], start: int, length: int) -> str:
    first, last = labels[start], labels[start + length - 1]
    return f"[{first}]" if length == 1 else f"[{first}..{last}]"


def zipf_statement(
    rng: np.random.Generator,
    labels: tuple[Any, ...],
    rank: int,
    lengths: np.ndarray,
    single: bool,
) -> str:
    """The statement at ``rank``, with window ``lengths`` (and a single
    union window if ``single``); ``rng`` places the windows."""
    kind = ZIPF_PATTERN[rank % len(ZIPF_PATTERN)]
    attributes = ZIPF_ATTRIBUTES[rank % len(ZIPF_ATTRIBUTES)]
    mode = ("all", "distinct")[(rank // len(ZIPF_PATTERN)) % 2]
    n = len(labels)

    def windows(count: int) -> str:
        return ", ".join(
            _window(labels, int(rng.integers(0, n - length + 1)), int(length))
            for length in lengths[:count]
        )

    if kind == "agg_union":
        count = 1 if single else 2
        return f"aggregate {attributes} {mode} over union {windows(count)}"
    if kind == "agg_other":
        operator = ZIPF_OPERATORS[1 + rank % 3]
        count = 1 if operator == "project" else 2
        return f"aggregate {attributes} {mode} over {operator} {windows(count)}"
    if kind == "evolution":
        old_length, new_length = int(lengths[0]), int(lengths[1])
        old = int(rng.integers(0, n - old_length - new_length + 1))
        new = int(rng.integers(old + old_length, n - new_length + 1))
        return (
            f"evolution {_window(labels, old, old_length)} -> "
            f"{_window(labels, new, new_length)} by {attributes}"
        )
    # Bare operators take two windows: a one-window project has too few
    # distinct texts to fill its share of the universe.
    return f"{ZIPF_OPERATORS[rank % 3]} {windows(2)}"


def zipf_universe(
    seed: int, labels: tuple[Any, ...], size: int, span: int
) -> tuple[str, ...]:
    """``size`` distinct statements over windows of at most ``span``
    points, by rank (see :func:`zipf_statement`).  The ranks of a block
    place their windows with the same generator, so they share them; a
    rank whose text is already taken is placed again elsewhere."""
    per_block = len(ZIPF_ATTRIBUTES)
    lengths, single = zipf_shapes(size // per_block + 1, span)
    elsewhere = np.random.default_rng([seed, size])
    universe: list[str] = []
    seen: set[str] = set()
    for rank in range(size):
        block = rank // per_block
        rng = np.random.default_rng([seed, block])
        for _ in range(100):
            text = zipf_statement(
                rng, labels, rank, lengths[block], bool(single[block])
            )
            if text not in seen:
                break
            rng = elsewhere
        else:
            raise ValueError(
                f"cannot draw {size} distinct statements over {len(labels)} points"
            )
        seen.add(text)
        universe.append(text)
    return tuple(universe)


def zipf_draws(size: int, count: int) -> np.ndarray:
    """The trace: ``count`` ranks, rank ``r`` with weight ``1 / (r + 1) ** 1.1``."""
    rng = np.random.default_rng([ZIPF_TRACE_SEED, 1])
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return rng.choice(size, size=count, p=weights / weights.sum())


class ServeZipf(Workload):
    """One client replays the Zipf trace over 3,000 statements against a
    512-entry cache: requests split into cache hits, cube roll-ups and
    base evaluations.

    A unit is a round: a fresh server (cold result cache and cube) serves
    the same trace prefix.  A time-bounded run over one warming cache
    would serve more of the trace on a faster machine, where the later
    draws hit more often, so throughput would swing more than the speed
    of the code.  Two clients sharing the trace spread throughput across
    runs about three times as wide as one client does, and were no
    faster."""

    name = "serve_zipf"

    def graph(self) -> TemporalGraph:
        return datasets.generate_dblp(self.sizes.dblp_scale, seed=7 + self.seed)

    def statements(self, graph: TemporalGraph) -> tuple[str, ...]:
        s = self.sizes
        return zipf_universe(
            self.seed, graph.timeline.labels, s.zipf_universe, s.zipf_span
        )

    def setup(self, trace: Any) -> ServingState:
        with trace.region("datasets.generate"):
            graph = self.graph()
        universe = self.statements(graph)
        draws = zipf_draws(len(universe), self.sizes.zipf_round)
        store, server = serve_over_store(graph)
        probes = probe_statements(graph.timeline.labels, "gender", "publications")
        warm_up(trace, server, probes)
        return ServingState(graph, store, server, tuple(universe[i] for i in draws))

    def unit(self, state: ServingState, trace: Any) -> Samples:
        """One round on a fresh server."""
        state.server.close()
        state.server = QueryServer(state.store)
        samples = Samples()
        serve = state.server.serve
        start = time.perf_counter()
        for text in state.statements:
            _timed(serve, samples, text)
        samples.elapsed = time.perf_counter() - start
        return samples

    def check(self, state: ServingState) -> tuple[int, int]:
        """64 seeded distinct statements of the trace, served by the last
        round's server (mostly from its cache), diffed against from-scratch
        evaluation."""
        rng = np.random.default_rng(self.seed + 1)
        distinct = list(dict.fromkeys(state.statements))
        picked = rng.choice(len(distinct), size=min(64, len(distinct)), replace=False)
        failed = 0
        for position in picked:
            text = distinct[position]
            served = state.server.serve(text).result
            failed += not same_answer(served, run_query(state.graph, text))
        return len(picked), failed


# ----------------------------------------------------------------------
# stream_refresh
# ----------------------------------------------------------------------


@dataclass
class StreamState:
    graph: TemporalGraph
    seed_graph: TemporalGraph
    updates: list[Any]


class StreamRefresh(Workload):
    """Writes beside reads: each append rebinds the cube and evicts the
    cache, so a 5-query panel reads cold from a growing graph, and the
    store keeps every version."""

    name = "stream_refresh"
    #: Every n-th panel read is re-run against its pinned version.
    audit_every = 20

    def panel(self, labels: tuple[Any, ...]) -> tuple[str, ...]:
        """The dashboard refreshed after each append, on the newest window."""
        newest, previous = labels[-1], labels[-2]
        start = labels[-self.sizes.stream_window]
        return (
            f"aggregate color, level all over union [{start}..{newest}]",
            f"aggregate color all over union [{start}..{newest}]",
            f"aggregate level, color distinct over union [{newest}]",
            f"evolution [{start}..{previous}] -> [{newest}] by color",
            f"difference [{newest}], [{previous}]",
        )

    def graph(self) -> TemporalGraph:
        s = self.sizes
        return synthetic_graph(
            s.stream_points, s.stream_nodes, s.stream_edges, 7 + self.seed
        )

    def statements(self, graph: TemporalGraph) -> tuple[str, ...]:
        labels = graph.timeline.labels
        return tuple(
            text
            for end in range(self.sizes.stream_seed_points, len(labels) + 1)
            for text in self.panel(labels[:end])
        )

    def setup(self, trace: Any) -> StreamState:
        with trace.region("datasets.generate"):
            graph = self.graph()
        labels = graph.timeline.labels
        seed_labels = labels[: self.sizes.stream_seed_points]
        seed_graph = union(graph, seed_labels)
        updates = [snapshot_at(graph, label) for label in labels[len(seed_labels):]]
        store, server = serve_over_store(seed_graph)
        warm_up(
            trace,
            server,
            probe_statements(seed_labels, "color", "level") + self.panel(seed_labels),
        )
        server.close()
        return StreamState(graph, seed_graph, updates)

    def unit(self, state: StreamState, trace: Any) -> Samples:
        """One epoch: a fresh store over the seed window appends every
        update, and the panel is read after each append.  The epoch's
        checks run after it, outside the timed section."""
        samples = Samples()
        start = time.perf_counter()
        store = StreamingStore(state.seed_graph)
        server = QueryServer(store)
        labels = state.seed_graph.timeline.labels
        audits = []
        reads = 0
        for update in state.updates:
            done = len(samples.latencies)
            _timed(store.append_snapshot, samples, update)
            samples.appends += samples.latencies[done:]
            labels = labels + (update.time,)
            for text in self.panel(labels):
                served = _timed(server.serve, samples, text)
                if reads % self.audit_every == 0 and served is not None:
                    audits.append((served.version, text, served.result))
                reads += 1
        samples.elapsed = time.perf_counter() - start
        server.close()
        # Untimed and untraced: replay the audited reads against their
        # pinned versions, then compare the final graph with the generator's.
        with trace.paused():
            for version, text, result in audits:
                expected = run_query(store.at_version(version).graph, text)
                samples.check_failures += not same_answer(result, expected)
            final = store.graph
            del store, server
            samples.check_failures += presence_signature(final) != presence_signature(
                state.graph
            )
        samples.checks += len(audits) + 1
        return samples

    def check(self, state: StreamState) -> tuple[int, int]:
        return 0, 0  # made after each epoch, see unit


# ----------------------------------------------------------------------
# explore_sweep
# ----------------------------------------------------------------------

#: The eight growth/shrinkage rows of Table 1: event x goal x extended side.
EXPLORE_CASES = tuple(
    (event, goal, side)
    for event in ("growth", "shrinkage")
    for goal in ("minimal", "maximal")
    for side in ("old", "new")
)

#: ``(entity, attribute, key as written, key value)``.
EXPLORE_KEYS: tuple[tuple[str, str, str, Any], ...] = (
    ("edges", "color", "red -> red", (("red",), ("red",))),
    ("edges", "color", "red -> blue", (("red",), ("blue",))),
    ("edges", "color", "blue -> green", (("blue",), ("green",))),
    ("nodes", "level", "1", (1,)),
    ("nodes", "level", "3", (3,)),
    ("nodes", "color", "green", ("green",)),
)


#: One audited statement: its text and the arguments of the oracle call.
Audit = tuple[str, tuple[str, str, str], int, str, str, Any]


@dataclass
class ExploreState:
    graph: TemporalGraph
    store: StreamingStore
    server: QueryServer
    statements: tuple[str, ...]
    #: One node-entity statement per case, for the exhaustive oracle.
    audited: tuple[Audit, ...]


class ExploreSweep(Workload):
    """Distinct ``explore`` statements over a 100-point timeline: chain
    walks are the whole cost, and neither the result cache nor the
    aggregation engines help."""

    name = "explore_sweep"

    def graph(self) -> TemporalGraph:
        s = self.sizes
        return synthetic_graph(
            s.explore_points, s.explore_nodes, s.explore_edges, 7 + self.seed
        )

    def statements(self, graph: TemporalGraph) -> tuple[str, ...]:
        return self._sweep(graph)[0]

    def _sweep(self, graph: TemporalGraph) -> tuple[tuple[str, ...], tuple[Audit, ...]]:
        """Cases x keys x a k-ladder scaled from ``suggest_threshold``, in
        a seeded order; plus the statements the exhaustive oracle checks."""
        thresholds = {
            (event, key_text): suggest_threshold(
                graph,
                EventType(event),
                "max",
                entity=EntityKind(entity),
                attributes=[attribute],
                key=key,
            )
            for event in ("growth", "shrinkage")
            for entity, attribute, key_text, key in EXPLORE_KEYS
        }
        statements: list[str] = []
        audited: dict[tuple[str, str, str], Audit] = {}
        for case in EXPLORE_CASES:
            event, goal, side = case
            for entity, attribute, key_text, key in EXPLORE_KEYS:
                w_th = thresholds[event, key_text]
                ladder = self.sizes.explore_ladder
                ks = sorted({max(1, round(w_th * f)) for f in ladder})
                texts = [
                    f"explore {event} {goal} extend {side} k {k} "
                    f"on {entity} by {attribute} key {key_text}"
                    for k in ks
                ]
                statements += texts
                if entity == "nodes" and case not in audited:
                    middle = len(ks) // 2
                    audited[case] = (
                        texts[middle], case, ks[middle], entity, attribute, key
                    )
        order = np.random.default_rng(self.seed).permutation(len(statements))
        return tuple(statements[i] for i in order), tuple(audited.values())

    def setup(self, trace: Any) -> ExploreState:
        with trace.region("datasets.generate"):
            graph = self.graph()
        statements, audited = self._sweep(graph)
        store, server = serve_over_store(graph)
        probes = probe_statements(graph.timeline.labels, "color", "level")
        warm_up(trace, server, probes)
        return ExploreState(graph, store, server, statements, audited)

    def unit(self, state: ExploreState, trace: Any) -> Samples:
        """One pass over the sweep, in its seeded order, after emptying
        the result cache so every statement is evaluated."""
        state.server.cache.clear()
        samples = Samples()
        serve = state.server.serve
        start = time.perf_counter()
        for text in state.statements:
            _timed(serve, samples, text)
        samples.elapsed = time.perf_counter() - start
        return samples

    def check(self, state: ExploreState) -> tuple[int, int]:
        """One statement per case, diffed against the unpruned oracle."""
        failed = 0
        for text, (event, goal, side), k, entity, attribute, key in state.audited:
            served = state.server.serve(text).result
            expected = exhaustive_explore(
                state.graph,
                EventType(event),
                Goal(goal),
                ExtendSide(side),
                k,
                entity=EntityKind(entity),
                attributes=[attribute],
                key=key,
            )
            failed += bool(served.diff(expected))
        return len(state.audited), failed


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeHot, ServeZipf, StreamRefresh, ExploreSweep)
}
