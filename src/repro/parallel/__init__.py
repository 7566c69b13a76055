"""``repro.parallel`` — the dependency-free parallel execution layer.

A chunked task planner (:mod:`repro.parallel.plan`), two executors with
one contract — serial and the per-call process pool
(:mod:`repro.parallel.executor`) — and the resolution rules mapping
``parallelism=N | "auto" | None`` arguments onto them
(:mod:`repro.parallel.config`).  The fan-out sites live with the code
they parallelize: per-entity aggregation partials in
:mod:`repro.core.aggregation`, per-reference exploration chains in
:mod:`repro.exploration.explore`, figure sweeps in
:mod:`repro.bench.experiments`.

Everything the pool produces is bit-identical to the serial path — see
``docs/parallelism.md`` for the argument and ``tests/test_parallel_parity.py``
for the enforcement.
"""

from __future__ import annotations

from .config import (
    ENV_MIN_WORK,
    ENV_WORKERS,
    default_parallelism,
    get_executor,
    min_parallel_work,
    parallel_backend,
    parallelism_scope,
    resolve_parallelism,
)
from .executor import Executor, InlineExecutor, ParallelExecutor, in_worker
from .plan import DEFAULT_CHUNKS_PER_WORKER, Chunk, assemble, plan_chunks

__all__ = [
    "Chunk",
    "plan_chunks",
    "assemble",
    "DEFAULT_CHUNKS_PER_WORKER",
    "Executor",
    "InlineExecutor",
    "ParallelExecutor",
    "in_worker",
    "default_parallelism",
    "resolve_parallelism",
    "parallelism_scope",
    "get_executor",
    "min_parallel_work",
    "parallel_backend",
    "ENV_WORKERS",
    "ENV_MIN_WORK",
]
