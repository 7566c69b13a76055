"""Scheduler properties of :mod:`repro.parallel`.

Three families, matching the executor's promises:

* the chunk planner covers every task exactly once, for arbitrary
  ``(n_tasks, workers, chunk_size)`` — including fewer tasks than
  workers and empty input;
* assembled results are in task order no matter in which order chunks
  complete (simulated through a shuffling fake dispatch);
* worker failures surface as the right exception: domain errors keep
  their taxonomy type, infrastructure failures raise a
  :class:`~repro.errors.ParallelError` carrying the failing task spec.
"""

from __future__ import annotations

import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AggregationError,
    ConfigurationError,
    ParallelError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    Chunk,
    InlineExecutor,
    ParallelExecutor,
    assemble,
    get_executor,
    parallelism_scope,
    plan_chunks,
)
from repro.parallel.executor import _ChunkOutcome


# ----------------------------------------------------------------------
# Module-level work functions (the pool pickles them by reference)
# ----------------------------------------------------------------------


def _double(payload, task):
    return (payload or 0) + task * 2


def _fail_on_three(payload, task):
    if task == 3:
        raise ValueError("boom on three")
    return task


def _domain_error(payload, task):
    raise AggregationError(f"domain failure on {task}")


def _sleep_forever(payload, task):
    time.sleep(60)
    return task


def _die(payload, task):
    os._exit(13)


# ----------------------------------------------------------------------
# Chunk planner coverage
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    n_tasks=st.integers(min_value=0, max_value=500),
    workers=st.integers(min_value=1, max_value=16),
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_plan_covers_every_task_exactly_once(n_tasks, workers, chunk_size):
    chunks = plan_chunks(n_tasks, workers, chunk_size)
    covered = [i for chunk in chunks for i in range(chunk.start, chunk.stop)]
    assert covered == list(range(n_tasks))
    # Chunk indices are sequential, chunks contiguous and non-empty.
    assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
    for chunk in chunks:
        assert len(chunk) >= 1
    for previous, current in zip(chunks, chunks[1:]):
        assert previous.stop == current.start
    if chunk_size is not None:
        assert all(len(chunk) <= chunk_size for chunk in chunks)


def test_plan_empty_input_yields_no_chunks():
    assert plan_chunks(0, 4) == ()
    assert plan_chunks(0, 1, chunk_size=10) == ()


def test_plan_fewer_tasks_than_workers_has_no_empty_chunks():
    chunks = plan_chunks(3, 8)
    assert [len(chunk) for chunk in chunks] == [1, 1, 1]
    assert [(c.start, c.stop) for c in chunks] == [(0, 1), (1, 2), (2, 3)]


def test_plan_is_deterministic():
    assert plan_chunks(97, 5) == plan_chunks(97, 5)
    assert plan_chunks(97, 5, chunk_size=7) == plan_chunks(97, 5, chunk_size=7)


def test_plan_validates_arguments():
    with pytest.raises(ConfigurationError):
        plan_chunks(-1, 2)
    with pytest.raises(ConfigurationError):
        plan_chunks(5, 0)
    with pytest.raises(ConfigurationError):
        plan_chunks(5, 2, chunk_size=0)


# Regressions for degenerate inputs (no tasks; a chunk target exceeding
# the task count): plans stay well-formed — no empty chunks, no zero
# chunk sizes, full cover.


def test_plan_empty_input_is_well_formed_under_every_cap():
    assert plan_chunks(0, 4, chunk_size=1) == ()
    assert plan_chunks(0, 16, chunk_size=100) == ()


def test_plan_more_chunks_requested_than_tasks():
    # Two workers target 2 * DEFAULT_CHUNKS_PER_WORKER chunks; three
    # tasks can fill only three of them.
    chunks = plan_chunks(3, 2)
    assert [len(chunk) for chunk in chunks] == [1, 1, 1]
    assert [(c.start, c.stop) for c in chunks] == [(0, 1), (1, 2), (2, 3)]


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def test_assemble_flattens_in_task_order():
    chunks = plan_chunks(10, 2, chunk_size=4)
    results = {
        chunk.index: [i * 10 for i in range(chunk.start, chunk.stop)]
        for chunk in chunks
    }
    assert assemble(chunks, results) == [i * 10 for i in range(10)]


def test_assemble_rejects_missing_chunk():
    chunks = plan_chunks(4, 2, chunk_size=2)
    with pytest.raises(ParallelError) as excinfo:
        assemble(chunks, {0: [1, 2]})
    assert isinstance(excinfo.value.task, Chunk)
    assert excinfo.value.task.index == 1


def test_assemble_rejects_length_mismatch():
    chunks = plan_chunks(4, 2, chunk_size=2)
    with pytest.raises(ParallelError):
        assemble(chunks, {0: [1, 2], 1: [3]})


# ----------------------------------------------------------------------
# Deterministic ordering under adversarial completion order
# ----------------------------------------------------------------------


class _ShufflingExecutor(ParallelExecutor):
    """A fake pool: runs chunks inline but *completes* them in a
    shuffled order, exercising the index-keyed reassembly path."""

    def __init__(self, workers, seed, **kwargs):
        super().__init__(workers, **kwargs)
        self._shuffle = random.Random(seed).shuffle

    def _dispatch(self, chunks, tasks, fn, payload):
        shuffled = list(chunks)
        self._shuffle(shuffled)
        empty = MetricsRegistry().dump()
        return {
            chunk.index: _ChunkOutcome(
                results=[
                    fn(payload, task)
                    for task in tasks[chunk.start : chunk.stop]
                ],
                span=None,
                metrics=empty,
            )
            for chunk in shuffled
        }


@pytest.mark.parametrize("seed_offset", [0, 1, 2, 3])
def test_results_ordered_regardless_of_completion_order(test_seed, seed_offset):
    tasks = list(range(37))
    expected = InlineExecutor().map(_double, tasks, 5)
    executor = _ShufflingExecutor(4, test_seed + seed_offset, chunk_size=3)
    assert executor.map(_double, tasks, 5) == expected


def test_real_pool_results_are_in_task_order():
    tasks = list(range(25))
    executor = ParallelExecutor(2, chunk_size=4)
    assert executor.map(_double, tasks, 1) == [1 + t * 2 for t in tasks]


def test_empty_task_list_short_circuits():
    assert ParallelExecutor(4).map(_double, [], 0) == []


def test_single_worker_pool_runs_inline():
    # workers=1 must not pay for a pool: identical to InlineExecutor.
    tasks = list(range(9))
    assert ParallelExecutor(1).map(_double, tasks, 2) == [
        2 + t * 2 for t in tasks
    ]


# ----------------------------------------------------------------------
# Failure surfacing
# ----------------------------------------------------------------------


def test_worker_exception_raises_parallel_error_with_task():
    executor = ParallelExecutor(2, chunk_size=2)
    with pytest.raises(ParallelError) as excinfo:
        executor.map(_fail_on_three, list(range(8)))
    assert excinfo.value.task == 3
    assert "boom on three" in str(excinfo.value)


def test_worker_domain_error_keeps_taxonomy_type():
    executor = ParallelExecutor(2, chunk_size=1)
    with pytest.raises(AggregationError, match="domain failure"):
        executor.map(_domain_error, [0, 1])


def test_timeout_raises_worker_timeout_with_task():
    executor = ParallelExecutor(2, chunk_size=2, timeout=0.4)
    started = time.monotonic()
    with pytest.raises(WorkerTimeoutError) as excinfo:
        executor.map(_sleep_forever, list(range(4)))
    elapsed = time.monotonic() - started
    assert isinstance(excinfo.value, ParallelError)
    assert excinfo.value.task in range(4)
    assert elapsed < 30, "timeout must not wait for the sleeping worker"


def test_worker_crash_raises_worker_crash_error():
    executor = ParallelExecutor(2, chunk_size=2)
    with pytest.raises(WorkerCrashError) as excinfo:
        executor.map(_die, list(range(4)))
    assert isinstance(excinfo.value, ParallelError)
    assert excinfo.value.task in range(4)


# ----------------------------------------------------------------------
# Resolution rules
# ----------------------------------------------------------------------


def test_get_executor_defaults_to_inline(monkeypatch):
    # Pin a clean environment: the CI parity job exports
    # REPRO_PARALLEL_WORKERS for the whole suite, but this test is
    # about the no-configuration baseline.
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
    assert isinstance(get_executor(), InlineExecutor)
    assert isinstance(get_executor(1), InlineExecutor)


def test_get_executor_explicit_request_ignores_task_hint():
    executor = get_executor(3, task_hint=1)
    assert isinstance(executor, ParallelExecutor)
    assert executor.workers == 3


def test_get_executor_implicit_default_is_gated_by_task_hint():
    with parallelism_scope(4):
        assert isinstance(get_executor(task_hint=1), InlineExecutor)
        big = get_executor(task_hint=10_000_000)
        assert isinstance(big, ParallelExecutor)
        assert big.workers == 4


def test_parallelism_scope_nests_and_restores(monkeypatch):
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
    with parallelism_scope(2) as outer:
        assert outer == 2
        with parallelism_scope(5) as inner:
            assert inner == 5
            assert get_executor(task_hint=10_000_000).workers == 5
        assert get_executor(task_hint=10_000_000).workers == 2
    assert isinstance(get_executor(task_hint=10_000_000), InlineExecutor)


def test_env_variable_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    executor = get_executor(task_hint=10_000_000)
    assert isinstance(executor, ParallelExecutor)
    assert executor.workers == 3


def test_bad_parallelism_values_rejected():
    with pytest.raises(ConfigurationError):
        get_executor(0)
    with pytest.raises(ConfigurationError):
        get_executor("many")
    with pytest.raises(ConfigurationError):
        ParallelExecutor(0)


# ----------------------------------------------------------------------
# Concurrent fan-outs from several threads
# ----------------------------------------------------------------------


def test_concurrent_maps_from_threads_do_not_cross_payloads():
    """Regression: the fork-COW payload channel is published in a module
    global; without the publish lock, thread A's pool could fork while
    thread B's payload was published, silently computing against the
    wrong payload (or crashing on shape mismatch)."""
    import threading

    executor = ParallelExecutor(2, chunk_size=4)
    tasks = list(range(16))
    failures = []

    def hammer(offset):
        try:
            for _ in range(5):
                expected = [offset + t * 2 for t in tasks]
                assert executor.map(_double, tasks, offset) == expected
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(offset,))
        for offset in (0, 1000, 2000, 3000)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]
