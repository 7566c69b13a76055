"""``repro.parallel`` — run metadata for an engine that runs inline.

Every aggregate, explore and figure sweep runs in the calling process:
on the measured workloads a process pool never beat the single-process
kernel (see "Why every call runs inline" in ``docs/benchmarks.md``).
These two functions remain so that run metadata can keep recording
which executor served a run.
"""

from __future__ import annotations

__all__ = ["default_parallelism", "parallel_backend"]


def default_parallelism() -> int:
    """The worker count every call runs with: always 1."""
    return 1


def parallel_backend() -> str:
    """The name of the executor every call runs on: always ``"inline"``."""
    return "inline"
