"""Nested-span tracing with a disabled no-op fast path.

A :class:`Tracer` produces :class:`Span` trees — name, attributes, wall
and CPU time, children — through a context-manager API (:meth:`Tracer.span`)
and a decorator (:func:`traced`).  The module-level singleton (swappable
via :func:`set_tracer`) starts **disabled**: every instrumented call site
then costs one function call returning a shared no-op context manager, so
the library's hot paths stay within the measured overhead budget
(``benchmarks/bench_obs_overhead.py``).

When enabled, completed spans attach to their parent on exit; the most
recent top-level span is kept as :attr:`Tracer.last_root` so callers
(e.g. ``GraphTempoSession.last_trace``) can inspect where time went.
Span wall times also feed ``span.<name>`` timing histograms in the
metrics registry, giving per-operator latency distributions for free.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, TypeVar

from .metrics import get_metrics

__all__ = [
    "Span",
    "SpanHandle",
    "NullSpanHandle",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_span",
    "traced",
]

_F = TypeVar("_F", bound=Callable[..., Any])


@dataclass
class Span:
    """One completed (or in-flight) traced operation."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """The first descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def span_names(self) -> list[str]:
        """Every span name in the tree, preorder (repeats preserved)."""
        return [span.name for span in self.walk()]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable rendering of the subtree."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class SpanHandle:
    """Context manager recording one span on a live tracer."""

    __slots__ = ("_tracer", "span", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> Span:
        self._tracer._stack.append(self.span)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self.span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        span = self.span
        span.wall_s = time.perf_counter() - self._wall0
        span.cpu_s = time.process_time() - self._cpu0
        if exc_type is not None:
            span.attributes["error"] = exc_type.__name__
        self._tracer._close(span)


class NullSpanHandle:
    """The shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_HANDLE = NullSpanHandle()


class Tracer:
    """Produces nested span trees; disabled by default.

    Not thread-safe by design — exploration and aggregation run on one
    thread per graph, and a per-thread tracer can be installed with
    :func:`set_tracer` where that changes.
    """

    __slots__ = ("enabled", "_stack", "last_root")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._stack: list[Span] = []
        #: The most recently completed top-level span.
        self.last_root: Span | None = None

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop any in-flight stack and the last recorded root."""
        self._stack.clear()
        self.last_root = None

    def span(self, name: str, **attributes: Any) -> SpanHandle | NullSpanHandle:
        """A context manager tracing one operation.

        Disabled tracers return a shared no-op handle without allocating;
        this is the fast path every instrumented call site goes through.
        """
        if not self.enabled:
            return _NULL_HANDLE
        return SpanHandle(self, Span(name, dict(attributes)))

    def _close(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self.last_root = span
        get_metrics().observe(f"span.{span.name}", span.wall_s)


_tracer = Tracer(enabled=False)
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer instrumented call sites report to."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one.

    The swap happens under a lock so concurrent swappers (tests,
    profiling runs, serving sessions) see a consistent
    previous/next pair; readers stay lock-free — a module-global load is
    atomic under the GIL.
    """
    global _tracer
    with _tracer_lock:
        previous = _tracer
        _tracer = tracer
    return previous


def trace_span(name: str, **attributes: Any) -> SpanHandle | NullSpanHandle:
    """``get_tracer().span(...)`` — the one-liner call sites use."""
    return _tracer.span(name, **attributes)


def traced(name: str | None = None) -> Callable[[_F], _F]:
    """Decorator form: trace every call of the wrapped function.

    The span is named after the function's qualified name unless ``name``
    is given.  The tracer is resolved per call, so swapping the singleton
    (tests, per-run profiling) affects already-decorated functions.
    """

    def decorate(fn: _F) -> _F:
        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with _tracer.span(span_name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate
