"""The chunked task planner: split ``n_tasks`` into contiguous chunks.

The planner is deliberately dumb and fully deterministic: given the same
``(n_tasks, workers, chunk_size)`` it always produces the same chunks,
every task index in ``range(n_tasks)`` is covered by exactly one chunk,
and chunks are contiguous and ordered.  Determinism here is what lets
:func:`assemble` reconstruct results in task order no matter in which
order workers finished — the property the parity suite leans on.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from ..errors import ConfigurationError, ParallelError

__all__ = ["Chunk", "plan_chunks", "assemble", "DEFAULT_CHUNKS_PER_WORKER"]

_T = TypeVar("_T")

#: Without an explicit ``chunk_size`` the planner aims for this many
#: chunks per worker, so an unlucky slow chunk does not leave the other
#: workers idle for the whole tail of the fan-out.
DEFAULT_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class Chunk:
    """One contiguous slice of the task list, ``tasks[start:stop]``."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def __str__(self) -> str:
        return f"chunk[{self.index}]({self.start}:{self.stop})"


def plan_chunks(
    n_tasks: int, workers: int, chunk_size: int | None = None
) -> tuple[Chunk, ...]:
    """Split ``range(n_tasks)`` into ordered, contiguous, disjoint chunks.

    ``chunk_size=None`` picks a size targeting
    :data:`DEFAULT_CHUNKS_PER_WORKER` chunks per worker (at least 1 task
    each).  ``n_tasks=0`` yields no chunks (never a single empty chunk);
    ``n_tasks < workers`` yields fewer chunks than workers rather than
    empty chunks.
    """
    if n_tasks < 0:
        raise ConfigurationError(f"n_tasks must be >= 0, got {n_tasks}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if n_tasks == 0:
        return ()
    if chunk_size is None:
        target = workers * DEFAULT_CHUNKS_PER_WORKER
        chunk_size = max(1, -(-n_tasks // target))
    chunks = []
    for index, start in enumerate(range(0, n_tasks, chunk_size)):
        chunks.append(Chunk(index, start, min(start + chunk_size, n_tasks)))
    return tuple(chunks)


def assemble(
    chunks: Sequence[Chunk], results: Mapping[int, Sequence[_T]]
) -> list[_T]:
    """Flatten per-chunk results back into task order.

    ``results`` maps chunk index to that chunk's per-task results, in
    whatever order the chunks completed; the output is ordered by task
    index.  A missing chunk or a result list whose length does not match
    the chunk is an infrastructure failure (a worker lost work) and
    raises :class:`~repro.errors.ParallelError`.
    """
    out: list[_T] = []
    for chunk in chunks:
        if chunk.index not in results:
            raise ParallelError(f"no results reported for {chunk}", task=chunk)
        chunk_results = results[chunk.index]
        if len(chunk_results) != len(chunk):
            raise ParallelError(
                f"{chunk} returned {len(chunk_results)} results for "
                f"{len(chunk)} tasks",
                task=chunk,
            )
        out.extend(chunk_results)
    return out
