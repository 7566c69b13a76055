"""The metrics registry: counters, gauges and timing histograms.

One process-wide :class:`MetricsRegistry` (swappable for tests via
:func:`set_metrics`) absorbs the ad-hoc counting that used to live in
``MaterializedStore.StoreStats`` and extends it across the pipeline:
cache hits/derivations in :mod:`repro.materialize`, rows scanned in
:class:`repro.frames.Table`, Algorithm 1/2 step counts in
:mod:`repro.core`, and chain evaluations / pruning counts in
:mod:`repro.exploration`.

Metric names are dotted, lowercase, and stable — see
``docs/observability.md`` for the full catalogue.  Counter updates are a
single dict operation under the registry's lock, so concurrent threads
never lose an increment and instrumented hot paths stay within the
measured overhead budget (see ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Any

__all__ = [
    "TimingHistogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
]

#: Histogram bucket upper bounds in seconds (log10 ladder, microseconds
#: to ten seconds); observations above the last bound land in ``+inf``.
_BUCKET_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class TimingHistogram:
    """Duration samples for one named timer.

    Keeps count/total/min/max plus a fixed log-scale bucket ladder — enough
    to read tail behaviour from a JSON snapshot without storing samples.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        """Record one duration sample (in seconds)."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if seconds <= bound:
                self._buckets[i] += 1
                return
        self._buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def dump(self) -> dict[str, Any]:
        """The raw internal state (for cross-process merging)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": list(self._buckets),
        }

    def merge(self, dump: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`dump` into this one."""
        self.count += dump["count"]
        self.total += dump["total"]
        if dump["count"]:
            self.min = min(self.min, dump["min"])
            self.max = max(self.max, dump["max"])
        for i, n in enumerate(dump["buckets"]):
            self._buckets[i] += n

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable summary of the samples seen so far."""
        buckets = {
            f"le_{bound:g}s": n
            for bound, n in zip(_BUCKET_BOUNDS, self._buckets)
            if n
        }
        if self._buckets[-1]:
            buckets["le_inf"] = self._buckets[-1]
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "mean_s": self.mean,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named counters, gauges and timing histograms.

    Counters are monotonically increasing integers (``inc``), gauges are
    last-write-wins floats (``gauge``), and timings are
    :class:`TimingHistogram` samples (``observe``).  Reads of unknown
    names return zero rather than raising, so report code never has to
    guard against a path that happened not to run.

    ``inc``, ``observe`` and ``merge`` are read-add-write updates, made
    atomic by a per-registry lock.  A pool worker swaps in a fresh
    registry for each chunk, so no lock held at a fork is ever taken in
    the registry the worker writes.
    """

    __slots__ = ("_counters", "_gauges", "_timings", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timings: dict[str, TimingHistogram] = {}
        self._lock = threading.Lock()

    # -- writes --------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            counters = self._counters
            counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample under the timer ``name``."""
        with self._lock:
            histogram = self._timings.get(name)
            if histogram is None:
                histogram = self._timings[name] = TimingHistogram()
            histogram.observe(seconds)

    # -- reads ---------------------------------------------------------

    def counter(self, name: str) -> int:
        """The counter's current value (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float:
        """The gauge's current value (0.0 when never set)."""
        return self._gauges.get(name, 0.0)

    def timing(self, name: str) -> TimingHistogram | None:
        """The histogram for ``name``, or ``None`` when never observed."""
        return self._timings.get(name)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of every metric."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "timings": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._timings.items())
            },
        }

    def dump(self) -> dict[str, Any]:
        """The registry's raw state, for :meth:`merge` across processes.

        Unlike :meth:`snapshot` (a presentation format), the dump keeps
        histograms as raw bucket arrays so merging is exact.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "timings": {
                name: histogram.dump()
                for name, histogram in self._timings.items()
            },
        }

    def merge(self, dump: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters and histogram samples add; gauges are last-write-wins
        (the merged dump's value overwrites).  This is how
        :class:`~repro.parallel.ParallelExecutor` re-homes each worker
        chunk's metric delta, so a parallel run's totals equal the
        serial run's.
        """
        with self._lock:
            counters = self._counters
            for name, value in dump["counters"].items():
                counters[name] = counters.get(name, 0) + value
            self._gauges.update(dump["gauges"])
            for name, timing_dump in dump["timings"].items():
                histogram = self._timings.get(name)
                if histogram is None:
                    histogram = self._timings[name] = TimingHistogram()
                histogram.merge(timing_dump)

    def reset(self) -> None:
        """Drop every metric (tests and per-run profiling)."""
        self._counters.clear()
        self._gauges.clear()
        self._timings.clear()


_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry the instrumented library writes to."""
    return _registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    The swap happens under a lock so concurrent swappers (tests, worker
    initialisation, future serving sessions) see a consistent
    previous/next pair; readers stay lock-free — a module-global load is
    atomic under the GIL.
    """
    global _registry
    with _registry_lock:
        previous = _registry
        _registry = registry
    return previous
