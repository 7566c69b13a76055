"""Process-pool and inline executors with deterministic result ordering.

The execution contract is a single method::

    executor.map(fn, tasks, payload=...) -> list[result]

``fn(payload, task)`` must be a module-level function (so the spawn
fallback can pickle it by reference); ``tasks`` is a sequence of small
picklable task specs; ``payload`` is the large read-only state every
task needs — the temporal graph, a prepared
:class:`~repro.exploration.events.EventCounter`, and so on.

:class:`InlineExecutor` runs everything in the calling process and is
the serial baseline the parity suite diffs against.
:class:`ParallelExecutor` fans the chunked task list out over a process
pool.  On platforms with ``fork`` (Linux, the benchmark target) the
payload is **shared**, not pickled: it is published in a module global
before the pool forks, so workers inherit the frames copy-on-write and
only the task specs cross the pipe.  Elsewhere the payload is pickled
once per worker through the pool initializer.

Results always come back in task order, regardless of completion order:
chunks are gathered by chunk index and flattened with
:func:`repro.parallel.plan.assemble`.  Observability crosses the
process boundary too — each chunk runs under a fresh tracer/metrics
registry, and the parent re-parents the returned span tree into its own
active trace and merges the metric deltas, so a parallel run's trace
and counters match the serial run's.

Failure surfacing: a domain error raised inside ``fn`` (anything from
the :mod:`repro.errors` taxonomy) is re-raised in the parent as itself,
keeping differential error parity with the inline executor; any other
worker exception, a crashed worker process, or a blown deadline raises
a typed :class:`~repro.errors.ParallelError` carrying the failing task
spec.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

from ..errors import (
    ConfigurationError,
    GraphTempoError,
    ParallelError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from ..obs.metrics import MetricsRegistry, get_metrics, set_metrics
from ..obs.trace import Span, Tracer, get_tracer, set_tracer
from .plan import Chunk, assemble, plan_chunks

__all__ = [
    "TaskFn",
    "Executor",
    "InlineExecutor",
    "ParallelExecutor",
    "in_worker",
]

#: The signature of a fan-out work function.
TaskFn = Callable[[Any, Any], Any]


@dataclass
class _SharedState:
    """What a worker needs beyond its task specs."""

    fn: TaskFn
    payload: Any
    trace_enabled: bool


#: Published by the parent immediately before the pool forks (fork
#: start method) or shipped through the pool initializer (spawn).
_SHARED: _SharedState | None = None

#: Serializes publish-then-fork so concurrent ``map`` calls from
#: different threads (the serving workload) cannot fork a pool while
#: another thread's payload is published in ``_SHARED``.  Held only
#: across pool creation and submission — execution overlaps freely.
_PUBLISH_LOCK = threading.Lock()

#: True inside a pool worker process; nested fan-outs then run inline.
_IN_WORKER = False


def in_worker() -> bool:
    """Whether this process is a :class:`ParallelExecutor` worker."""
    return _IN_WORKER


@dataclass
class _ChunkOutcome:
    """One chunk's results plus its observability delta."""

    results: list[Any]
    span: Span | None
    metrics: dict[str, Any]


@dataclass
class _ChunkFailure:
    """A task inside a chunk raised; the exception travels by value."""

    task: Any
    type_name: str
    message: str
    exception: BaseException | None
    metrics: dict[str, Any]


def _init_worker(state: _SharedState | None) -> None:
    """Pool initializer: adopt the shared state (spawn) or keep the
    fork-inherited one; either way, mark the process as a worker."""
    # The (_SHARED, _IN_WORKER) pair IS the sanctioned fork-COW payload
    # channel: written once per fan-out in the parent (or adopted here
    # under spawn) before any task runs, read-only inside workers, and
    # cleared by _dispatch's finally.  GT008 enforces the read-only half.
    global _SHARED, _IN_WORKER  # lint: ignore[GT009]
    _IN_WORKER = True  # lint: ignore[GT009]
    if state is not None:
        _SHARED = state  # lint: ignore[GT009]


def _picklable(exc: BaseException) -> BaseException | None:
    try:
        pickle.dumps(exc)
    except Exception:
        return None
    return exc


def _run_chunk(
    chunk_index: int, tasks: list[Any]
) -> _ChunkOutcome | _ChunkFailure:
    """Worker-side chunk loop: fresh observability, then run each task.

    Every chunk runs under its own tracer and metrics registry so the
    outcome carries exactly this chunk's delta; the parent merges the
    deltas in chunk order, which makes parallel traces/counters add up
    to the serial run's.
    """
    state = _SHARED
    if state is None:  # pragma: no cover - defends against pool misuse
        raise ParallelError("worker has no shared state; pool misconfigured")
    tracer = Tracer(enabled=state.trace_enabled)
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry)
    try:
        results: list[Any] = []
        with tracer.span("parallel.chunk", chunk=chunk_index, tasks=len(tasks)):
            for task in tasks:
                try:
                    results.append(state.fn(state.payload, task))
                except Exception as exc:
                    return _ChunkFailure(
                        task=task,
                        type_name=type(exc).__name__,
                        message=str(exc),
                        exception=_picklable(exc),
                        metrics=registry.dump(),
                    )
        return _ChunkOutcome(
            results=results,
            span=tracer.last_root if state.trace_enabled else None,
            metrics=registry.dump(),
        )
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


class Executor:
    """The execution contract shared by the inline and pool executors."""

    #: How many tasks may run concurrently (1 for inline).
    workers: int = 1

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        raise NotImplementedError


class InlineExecutor(Executor):
    """Serial execution in the calling process — the parity baseline.

    No pickling, no observability indirection: spans and counters flow
    into the caller's tracer/registry exactly as a direct call would.
    """

    workers = 1

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        return [fn(payload, task) for task in tasks]

    def __repr__(self) -> str:
        return "InlineExecutor()"


class ParallelExecutor(Executor):
    """Fan tasks out over a process pool, deterministically.

    Parameters
    ----------
    workers:
        Pool size (>= 1).  ``workers=1`` degrades to inline execution —
        same results, no pool, within the serial-overhead budget.
    chunk_size:
        Tasks per chunk; ``None`` lets the planner pick (several chunks
        per worker).  Callers whose tasks are already coarse slices pass
        ``chunk_size=1``.
    timeout:
        Overall deadline in seconds for one :meth:`map` call; blowing it
        raises :class:`~repro.errors.WorkerTimeoutError` naming a
        pending task.
    start_method:
        Force a multiprocessing start method; default prefers ``fork``
        (shared payload) and falls back to the platform default.
    """

    def __init__(
        self,
        workers: int,
        *,
        chunk_size: int | None = None,
        timeout: float | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else available[0]
        elif start_method not in available:
            raise ConfigurationError(
                f"start method {start_method!r} unavailable; "
                f"choose one of {available!r}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.start_method = start_method

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"start_method={self.start_method!r})"
        )

    # ------------------------------------------------------------------
    # The fan-out
    # ------------------------------------------------------------------

    def map(
        self, fn: TaskFn, tasks: Sequence[Any], payload: Any = None
    ) -> list[Any]:
        tasks = list(tasks)
        metrics = get_metrics()
        metrics.inc("parallel.maps")
        if not tasks:
            return []
        if self.workers == 1 or _IN_WORKER:
            # Nested fan-outs (a worker calling into a parallel entry
            # point) and single-worker pools run inline: bit-identical
            # results without a redundant pool.  GT007 is enforced at
            # the external submission sites; this is the executor's own
            # trampoline, where `fn` has already been validated.
            return InlineExecutor().map(fn, tasks, payload)  # lint: ignore[GT007]
        chunks = plan_chunks(len(tasks), self.workers, self.chunk_size)
        metrics.inc("parallel.chunks", len(chunks))
        metrics.inc("parallel.tasks_dispatched", len(tasks))
        outcomes = self._dispatch(chunks, tasks, fn, payload)
        results: dict[int, list[Any]] = {}
        tracer = get_tracer()
        for chunk in chunks:
            outcome = outcomes[chunk.index]
            metrics.merge(outcome.metrics)
            if outcome.span is not None and tracer.enabled:
                tracer.attach(outcome.span)
            results[chunk.index] = outcome.results
        metrics.inc("parallel.tasks_completed", len(tasks))
        return assemble(chunks, results)

    def _dispatch(
        self,
        chunks: Sequence[Chunk],
        tasks: Sequence[Any],
        fn: TaskFn,
        payload: Any,
    ) -> dict[int, _ChunkOutcome]:
        """Run every chunk on the pool; gather by chunk index.

        Futures are resolved in chunk order under one shared deadline —
        completion order cannot influence the assembled results (the
        scheduler tests simulate adversarial completion orders through a
        fake dispatch).
        """
        # Sanctioned fork-COW channel (see _init_worker): published once
        # before the pool forks, cleared once every worker has forked.
        # The publish lock makes the channel safe under concurrent map
        # calls from different threads: pool workers fork lazily during
        # submission, so publish + create + submit must be atomic or a
        # sibling thread's pool could fork while *this* payload is the
        # one published.  Only submission serializes; chunk execution
        # and result gathering overlap across threads.
        global _SHARED  # lint: ignore[GT009]
        state = _SharedState(fn, payload, get_tracer().enabled)
        fork = self.start_method == "fork"
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        outcomes: dict[int, _ChunkOutcome] = {}
        with _PUBLISH_LOCK:
            _SHARED = state  # lint: ignore[GT009]
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(chunks)),
                    mp_context=multiprocessing.get_context(self.start_method),
                    initializer=_init_worker,
                    initargs=(None if fork else state,),
                )
                futures = [
                    (chunk, pool.submit(_run_chunk, chunk.index, _slice(tasks, chunk)))
                    for chunk in chunks
                ]
            finally:
                _SHARED = None  # lint: ignore[GT009]
        try:
            for chunk, future in futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                try:
                    outcome = future.result(remaining)
                except _FuturesTimeout:
                    get_metrics().inc("parallel.tasks_failed", len(chunk))
                    self._kill(pool)
                    raise WorkerTimeoutError(
                        f"{chunk} missed the {self.timeout}s deadline",
                        task=tasks[chunk.start],
                    ) from None
                except BrokenProcessPool as exc:
                    get_metrics().inc("parallel.tasks_failed", len(chunk))
                    raise WorkerCrashError(
                        f"worker died while running {chunk}: {exc}",
                        task=tasks[chunk.start],
                    ) from exc
                if isinstance(outcome, _ChunkFailure):
                    get_metrics().inc("parallel.tasks_failed")
                    get_metrics().merge(outcome.metrics)
                    if isinstance(outcome.exception, GraphTempoError):
                        # Domain failures keep their taxonomy type so
                        # parallel and inline runs fail identically.
                        raise outcome.exception
                    raise ParallelError(
                        f"task {outcome.task!r} raised "
                        f"{outcome.type_name}: {outcome.message}",
                        task=outcome.task,
                    )
                outcomes[chunk.index] = outcome
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return outcomes

    @staticmethod
    def _kill(pool: ProcessPoolExecutor) -> None:
        """Best-effort termination of workers still running after a
        timeout, so a hung task cannot outlive the failed fan-out."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - platform dependent
                pass


def _slice(tasks: Sequence[Any], chunk: Chunk) -> list[Any]:
    return list(tasks[chunk.start : chunk.stop])
