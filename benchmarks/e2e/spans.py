"""Per-layer timing for the end-to-end benchmark, installed from outside.

:class:`LayerTrace` replaces the module and class attributes that callers
look up (``repro.serving.server.parse``, ``QueryServer.serve``, ...) with
timing wrappers and puts every original back on :meth:`LayerTrace.remove`.
Each wrapper pushes a frame on a thread-local span stack, so a span's
*self* time excludes the spans it calls.  Per span it records:

* ``calls``   -- completed calls;
* ``self_ms`` -- wall time inside the span minus its child spans;
* ``wait_ms`` -- the part of ``self_ms`` the thread spent off a CPU (wall
  time minus ``time.thread_time``): lock, interpreter-lock and I/O waits.
  The clock reads' own cost is calibrated once and not counted as waiting,
  so a single-threaded span waits about zero.

The counts behind the ratio metrics live in the same per-thread tables
rather than in ``repro.obs``: ``MetricsRegistry.inc`` reads, adds and
writes without a lock, so two client threads can lose increments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

__all__ = ["LAYER_TARGETS", "LayerTrace", "NullTrace", "SPAN_NAMES"]

Observer = Callable[[dict[str, float], tuple[Any, ...], Any], None]


def _count_hit(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    if result is not None:
        counts["serving.cache_hits"] = counts.get("serving.cache_hits", 0) + 1


def _count_route(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    name = f"olap.route.{args[1].kind}"
    counts[name] = counts.get(name, 0) + 1


def _count_engine(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    graph, attributes = args[0], args[1]
    if any(not graph.is_static(name) for name in attributes):
        counts["core.aggregate.general"] = counts.get("core.aggregate.general", 0) + 1


def _count_exploration(
    counts: dict[str, float], args: tuple[Any, ...], result: Any
) -> None:
    counts["exploration.evaluations"] = (
        counts.get("exploration.evaluations", 0) + result.evaluations
    )
    counts["exploration.pairs"] = counts.get("exploration.pairs", 0) + len(result.pairs)


#: ``(owner, attribute, span, observer)``.  The owner is the module or
#: class whose attribute the *caller* looks up -- the serving server
#: imports ``parse`` by name, so ``repro.serving.server.parse`` is what
#: gets replaced, not ``repro.query.parser.parse``.
LAYER_TARGETS: tuple[tuple[Any, str, str, Observer | None], ...] = (
    ("repro.serving.server", "parse", "query.parse", None),
    ("repro.serving.server:QueryServer", "serve", "serving.serve", None),
    ("repro.serving.server", "normalize_query", "serving.normalize", None),
    ("repro.serving.cache:ResultCache", "get", "serving.cache_get", _count_hit),
    ("repro.serving.cache:ResultCache", "put", "serving.cache_put", None),
    ("repro.serving.server", "permute_result", "serving.permute", None),
    ("repro.serving.server", "plan_query", "serving.plan", None),
    ("repro.serving.server", "execute_plan", "serving.execute", None),
    ("repro.serving.server:QueryServer", "rebind", "serving.rebind", None),
    ("repro.olap.cube:TemporalGraphCube", "__init__", "olap.cube_init", None),
    ("repro.olap.cube:TemporalGraphCube", "plan_routes", "olap.plan_routes", None),
    (
        "repro.olap.cube:TemporalGraphCube",
        "execute_route",
        "olap.execute_route",
        _count_route,
    ),
    ("repro.olap.cube", "aggregate", "core.aggregate", _count_engine),
    ("repro.serving.planner", "aggregate", "core.aggregate", _count_engine),
    ("repro.olap.cube", "union", "core.operator", None),
    ("repro.serving.planner", "union", "core.operator", None),
    ("repro.serving.planner", "project", "core.operator", None),
    ("repro.serving.planner", "intersection", "core.operator", None),
    ("repro.serving.planner", "difference", "core.operator", None),
    ("repro.serving.planner", "aggregate_evolution", "core.evolution", None),
    ("repro.serving.planner", "explore", "exploration.explore", _count_exploration),
    ("repro.core.graph:TemporalGraph", "restricted", "core.restricted", None),
    ("repro.core.graph:TemporalGraph", "presence_mask", "storage.presence_mask", None),
    ("repro.frames.table:Table", "groupby_count", "frames.groupby_count", None),
    ("repro.frames.table:Table", "deduplicate", "frames.deduplicate", None),
    (
        "repro.streaming.store:StreamingStore",
        "append_snapshot",
        "streaming.append",
        None,
    ),
    ("repro.streaming.store", "append_snapshot", "core.append_snapshot", None),
)

#: Spans the harness opens around its own phases (:meth:`LayerTrace.region`).
HARNESS_SPANS = ("datasets.generate", "harness.warmup")

#: Every span the benchmark reports, harness spans first.
SPAN_NAMES: tuple[str, ...] = HARNESS_SPANS + tuple(
    dict.fromkeys(span for _, _, span, _ in LAYER_TARGETS)
)


def _resolve(owner: Any) -> Any:
    """A ``"module"`` or ``"module:Class"`` path to the object it names."""
    if not isinstance(owner, str):
        return owner
    module_name, _, class_name = owner.partition(":")
    resolved = importlib.import_module(module_name)
    return getattr(resolved, class_name) if class_name else resolved


class _ThreadTable:
    """One thread's span stack and totals (merged in :meth:`LayerTrace.report`)."""

    __slots__ = ("stack", "spans", "counts", "root_wall", "paused")

    def __init__(self) -> None:
        #: Open frames: ``[child wall, child cpu, start wall, start cpu]``.
        self.stack: list[list[float]] = []
        #: span -> ``[calls, self wall s, self wait s]``.
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        #: Wall time of this thread's outermost spans.
        self.root_wall = 0.0
        #: Nesting depth of :meth:`LayerTrace.paused` blocks.
        self.paused = 0


class NullTrace:
    """The untraced stand-in: harness regions cost nothing."""

    def region(self, name: str) -> contextlib.AbstractContextManager[None]:
        return contextlib.nullcontext()

    def paused(self) -> contextlib.AbstractContextManager[None]:
        return contextlib.nullcontext()


class LayerTrace:
    """Timing wrappers over the layer boundaries named in ``targets``."""

    def __init__(
        self,
        targets: tuple[tuple[Any, str, str, Observer | None], ...] = LAYER_TARGETS,
    ) -> None:
        self.targets = targets
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTable] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.clock_gap = self._calibrate()

    # -- span accounting ----------------------------------------------

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    @staticmethod
    def _enter(table: _ThreadTable) -> list[float]:
        frame = [0.0, 0.0, 0.0, 0.0]
        table.stack.append(frame)
        # Wall clock first on entry and last on exit, so the wall interval
        # encloses the CPU interval.
        frame[2] = time.perf_counter()
        frame[3] = time.thread_time()
        return frame

    def _leave(self, table: _ThreadTable, frame: list[float], name: str) -> None:
        cpu = time.thread_time() - frame[3]
        wall = time.perf_counter() - frame[2]
        table.stack.pop()
        row = table.spans.get(name)
        if row is None:
            row = table.spans[name] = [0, 0.0, 0.0]
        self_wall = wall - frame[0]
        row[0] += 1
        row[1] += self_wall
        # The clock reads cost ``clock_gap`` of CPU that lies inside this
        # frame's wall interval but outside its CPU interval; it is charged
        # as CPU to this frame and to its parent's view of this frame, so
        # neither reports the reads themselves as waiting.
        row[2] += self_wall - (cpu - frame[1]) - self.clock_gap
        if table.stack:
            parent = table.stack[-1]
            parent[0] += wall
            parent[1] += cpu + self.clock_gap
        else:
            table.root_wall += wall

    def _calibrate(self, rounds: int = 2000) -> float:
        """Median wall-minus-CPU time of an empty frame: the clock reads'
        share of a frame that ``thread_time`` does not see."""
        table = _ThreadTable()
        gaps = []
        for _ in range(rounds):
            frame = self._enter(table)
            cpu = time.thread_time() - frame[3]
            wall = time.perf_counter() - frame[2]
            table.stack.pop()
            gaps.append(wall - cpu)
        return statistics.median(gaps)

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of the harness's own code."""
        table = self._table()
        frame = self._enter(table)
        try:
            yield
        finally:
            self._leave(table, frame, name)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls on this thread inside the block are not recorded (the
        harness's own correctness checks)."""
        table = self._table()
        table.paused += 1
        try:
            yield
        finally:
            table.paused -= 1

    def _wrap(self, fn: Any, name: str, observe: Observer | None) -> Any:
        get_table, enter, leave = self._table, self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            table = get_table()
            if table.paused:
                return fn(*args, **kwargs)
            frame = enter(table)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(table, frame, name)
            if observe is not None:
                observe(table.counts, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> "LayerTrace":
        """Replace every target attribute with its timing wrapper."""
        if self._patches:
            raise RuntimeError("layer trace is already installed")
        try:
            for owner, attribute, name, observe in self.targets:
                resolved = _resolve(owner)
                original = vars(resolved)[attribute]
                setattr(resolved, attribute, self._wrap(original, name, observe))
                self._patches.append((resolved, attribute, original))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._patches:
            resolved, attribute, original = self._patches.pop()
            setattr(resolved, attribute, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- results -------------------------------------------------------

    def root_wall(self) -> float:
        """Seconds spent inside outermost spans, summed over threads."""
        with self._lock:
            return sum(table.root_wall for table in self._tables)

    def report(self) -> tuple[dict[str, tuple[int, float, float]], dict[str, float]]:
        """``(span -> (calls, self s, wait s), counts)`` over all threads."""
        spans: dict[str, list[float]] = {}
        counts: dict[str, float] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, wait_s) in table.spans.items():
                row = spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += self_s
                row[2] += wait_s
            for name, value in table.counts.items():
                counts[name] = counts.get(name, 0) + value
        return (
            {name: (int(r[0]), r[1], r[2]) for name, r in spans.items()},
            counts,
        )
