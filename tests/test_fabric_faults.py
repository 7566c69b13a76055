"""Fault injection on the per-call process pool, across calls.

``tests/test_parallel_scheduler.py`` checks that each failure surfaces
as its typed error.  This suite checks what happens around the failure:
that one :class:`~repro.parallel.ParallelExecutor` keeps serving after
it, that no worker outlives a blown deadline, that a domain error runs
exactly once, and that the degenerate calls (no tasks, one worker)
never start a process.  The module keeps the test names of the
persistent sharded executor it used to cover; that executor has been
removed, and the contract below is the one the per-call pool keeps:

* typed errors — :class:`~repro.errors.WorkerTimeoutError` on a blown
  deadline, the original taxonomy type for domain errors;
* no retries — a domain error is the task's fault and is never re-run;
* no orphans — a timed-out straggler is terminated, not waited out.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import (
    AggregationError,
    ConfigurationError,
    GraphTempoError,
    ParallelError,
    WorkerTimeoutError,
)
from repro.obs import get_metrics
from repro.parallel import InlineExecutor, ParallelExecutor


# ----------------------------------------------------------------------
# Module-level work functions (shipped to workers by reference)
# ----------------------------------------------------------------------


def _square(payload, task):
    return (payload or 0) + task * task


def _pid(payload, task):
    return os.getpid()


def _domain_boom(payload, task):
    if task == payload:
        raise AggregationError(f"domain failure on {task}")
    return task


def _record_pid_and_sleep(payload, task):
    """Leave the worker's pid in ``payload`` (a directory), then hang."""
    with open(os.path.join(payload, str(os.getpid())), "w"):
        pass
    time.sleep(task)
    return task


def _count_and_raise(payload, task):
    if task == 0:
        with open(payload, "a") as handle:
            handle.write("x")
        raise AggregationError("domain failure, do not retry")
    return task


def _assert_all_gone(pids):
    """Every pid must have exited and been reaped.

    ``active_children`` reaps finished children as it lists the live
    ones, so a pid missing from it is gone for good.
    """
    deadline = time.monotonic() + 10.0
    pending = set(pids)
    while pending and time.monotonic() < deadline:
        alive = {child.pid for child in multiprocessing.active_children()}
        pending &= alive
        if pending:
            time.sleep(0.05)
    assert not pending, f"orphaned worker processes: {sorted(pending)}"


def _counters(*names):
    metrics = get_metrics()
    return {name: metrics.counter(name) for name in names}


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


def test_blown_deadline_raises_typed_timeout(tmp_path):
    executor = ParallelExecutor(2, timeout=0.5)
    started = time.monotonic()
    with pytest.raises(WorkerTimeoutError) as excinfo:
        executor.map(_record_pid_and_sleep, [30.0, 30.0], str(tmp_path))
    elapsed = time.monotonic() - started
    assert isinstance(excinfo.value, ParallelError)
    assert excinfo.value.task == 30.0
    assert elapsed < 20, "timeout must not wait out the sleeping task"
    # The stragglers were terminated, not left sleeping.
    _assert_all_gone(int(name) for name in os.listdir(tmp_path))
    # The next call forks a fresh pool; the executor still serves.
    assert executor.map(_square, [1, 2, 3], 0) == [1, 4, 9]


# ----------------------------------------------------------------------
# Domain errors inside a chunk
# ----------------------------------------------------------------------


def test_domain_error_keeps_taxonomy_type_and_pool():
    executor = ParallelExecutor(2)
    tasks = list(range(16))
    before = get_metrics().counter("parallel.tasks_failed")
    with pytest.raises(AggregationError, match="domain failure on 11"):
        executor.map(_domain_boom, tasks, 11)
    assert isinstance(
        AggregationError("x"), GraphTempoError
    )  # taxonomy sanity
    # Exactly the one raising task is counted as failed.
    assert get_metrics().counter("parallel.tasks_failed") == before + 1
    # A domain error is the task's fault, not the pool's: the same
    # executor keeps serving.
    assert executor.map(_square, tasks, 0) == [t * t for t in tasks]


def test_domain_error_is_never_retried(tmp_path):
    counter = tmp_path / "attempts"
    counter.write_text("")

    tasks = list(range(8))
    with pytest.raises(AggregationError):
        ParallelExecutor(2).map(_count_and_raise, tasks, str(counter))
    assert len(counter.read_text()) == 1, "domain failure must run once"


# ----------------------------------------------------------------------
# Degenerate calls start no process
# ----------------------------------------------------------------------


def test_single_worker_fabric_runs_inline():
    executor = ParallelExecutor(1)
    before = _counters("parallel.maps", "parallel.chunks")
    assert executor.map(_square, list(range(6)), 2) == [
        2 + t * t for t in range(6)
    ]
    # workers=1 must not start processes: every task ran right here.
    assert executor.map(_pid, list(range(6))) == [os.getpid()] * 6
    assert executor.map(_square, list(range(6)), 2) == InlineExecutor().map(
        _square, list(range(6)), 2
    )
    after = _counters("parallel.maps", "parallel.chunks")
    assert after["parallel.maps"] == before["parallel.maps"] + 3
    assert after["parallel.chunks"] == before["parallel.chunks"]


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        ParallelExecutor(0)
    with pytest.raises(ConfigurationError):
        ParallelExecutor(2, timeout=0)
    with pytest.raises(ConfigurationError):
        ParallelExecutor(2, timeout=-1.0)
    with pytest.raises(ConfigurationError):
        ParallelExecutor(2, start_method="not-a-method")


def test_empty_task_list_short_circuits():
    before = _counters(
        "parallel.maps", "parallel.chunks", "parallel.tasks_dispatched"
    )
    assert ParallelExecutor(2).map(_square, [], 0) == []
    after = _counters(
        "parallel.maps", "parallel.chunks", "parallel.tasks_dispatched"
    )
    # The call is counted, but nothing was planned or dispatched.
    assert after["parallel.maps"] == before["parallel.maps"] + 1
    assert after["parallel.chunks"] == before["parallel.chunks"]
    assert (
        after["parallel.tasks_dispatched"]
        == before["parallel.tasks_dispatched"]
    )
