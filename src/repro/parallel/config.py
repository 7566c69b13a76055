"""Resolving ``parallelism`` arguments to executors.

Every parallel entry point (``aggregate``, ``explore``, the bench
sweeps, ``GraphTempoSession``) accepts ``parallelism=None | int |
"auto"``:

* ``None`` — use the ambient default: an active
  :func:`parallelism_scope` override if one is open, else the
  ``REPRO_PARALLEL_WORKERS`` environment variable, else 1 (serial).
* an ``int`` — that many workers; 1 means inline.
* ``"auto"`` — one worker per available CPU.

An *implicit* default (``None`` resolved through the environment) only
engages the pool when the workload is large enough to amortize pool
startup — callers pass a ``task_hint`` (entities to scan, chain steps to
evaluate) and work below :func:`min_parallel_work` stays inline.  An
*explicit* request always gets the pool; the parity suite relies on
forcing ``ParallelExecutor(workers=2)`` onto tiny graphs.

Results never depend on which executor ran: the gate is purely a
performance heuristic.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager

from ..errors import ConfigurationError
from .executor import Executor, InlineExecutor, ParallelExecutor, in_worker

__all__ = [
    "default_parallelism",
    "resolve_parallelism",
    "parallelism_scope",
    "get_executor",
    "min_parallel_work",
    "parallel_backend",
    "ENV_WORKERS",
    "ENV_MIN_WORK",
]

#: Environment variable flipping the default executor (CI parity job).
ENV_WORKERS = "REPRO_PARALLEL_WORKERS"
#: Environment variable overriding the implicit-parallelism work floor.
ENV_MIN_WORK = "REPRO_PARALLEL_MIN_WORK"

#: Below this much estimated work, an *implicit* parallel default stays
#: inline — pool startup would dominate (see docs/parallelism.md).
_DEFAULT_MIN_WORK = 4096

#: Per-thread stack of :func:`parallelism_scope` overrides.  Thread-local
#: so a scope opened on one thread cannot leak an override into fan-outs
#: resolving concurrently on another.
_SCOPE = threading.local()


def _scope_stack() -> list[int]:
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = _SCOPE.stack = []
    return stack


Parallelism = int | str | None


def _auto_workers() -> int:
    return max(1, os.cpu_count() or 1)


def _parse(value: int | str, source: str) -> int:
    if isinstance(value, str):
        if value == "auto":
            return _auto_workers()
        try:
            value = int(value)
        except ValueError:
            raise ConfigurationError(
                f"{source} must be a positive integer or 'auto', got {value!r}"
            ) from None
    if value < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {value}")
    return value


def default_parallelism() -> int:
    """The ambient worker count: scope override, else env var, else 1."""
    stack = _scope_stack()
    if stack:
        return stack[-1]
    raw = os.environ.get(ENV_WORKERS)
    if raw is None or not raw.strip():
        return 1
    return _parse(raw.strip(), ENV_WORKERS)


def resolve_parallelism(parallelism: Parallelism) -> int:
    """Normalize a ``parallelism`` argument to a concrete worker count."""
    if parallelism is None:
        return default_parallelism()
    return _parse(parallelism, "parallelism")


def min_parallel_work() -> int:
    """The work floor below which implicit parallelism stays inline."""
    raw = os.environ.get(ENV_MIN_WORK)
    if raw is None or not raw.strip():
        return _DEFAULT_MIN_WORK
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigurationError(
            f"{ENV_MIN_WORK} must be an integer, got {raw!r}"
        ) from None
    return max(0, value)


@contextmanager
def parallelism_scope(parallelism: Parallelism) -> Iterator[int]:
    """Temporarily set the ambient default worker count.

    The session facade and tests use this to thread a worker count
    through layers (the OLAP cube, report renderers) whose signatures
    do not carry one: any ``parallelism=None`` resolution inside the
    scope sees the override.
    """
    workers = (
        default_parallelism() if parallelism is None
        else _parse(parallelism, "parallelism")
    )
    stack = _scope_stack()
    stack.append(workers)
    try:
        yield workers
    finally:
        stack.pop()


def parallel_backend() -> str:
    """The name of the executor multi-worker resolutions build.

    Always ``"parallel"``: :class:`~repro.parallel.ParallelExecutor` is
    the only pooled executor.  Run metadata records it beside
    :func:`default_parallelism`.
    """
    return "parallel"


def get_executor(
    parallelism: Parallelism = None,
    *,
    task_hint: int | None = None,
    chunk_size: int | None = None,
    timeout: float | None = None,
) -> Executor:
    """The executor a fan-out site should use.

    ``task_hint`` estimates the site's total work (entity rows, chain
    steps); it only matters when ``parallelism`` is ``None`` — an
    explicitly requested pool is never gated away.  Inside a pool
    worker this always returns the inline executor (no nested pools).
    """
    explicit = parallelism is not None
    workers = resolve_parallelism(parallelism)
    if workers <= 1 or in_worker():
        return InlineExecutor()
    if not explicit and task_hint is not None and task_hint < min_parallel_work():
        return InlineExecutor()
    return ParallelExecutor(workers, chunk_size=chunk_size, timeout=timeout)
