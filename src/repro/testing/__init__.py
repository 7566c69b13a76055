"""Public test utilities: generators, metamorphic laws, fuzzing.

Downstream code building on GraphTempo needs the same things this
repository's own suite needs — seedable random temporal graphs, the
paper's algebraic identities as executable laws, and a differential
oracle over every engine/store variant.  See ``docs/testing.md`` for the
full tour and ``repro fuzz --help`` for the CLI.

Only :mod:`repro.testing.strategies` requires ``hypothesis``; everything
else (including ``repro fuzz``) runs on numpy alone.
"""

from .asserts import assert_same_aggregate, assert_same_graph
from .generators import (
    GraphSpec,
    graph_from_maps,
    graph_to_maps,
    random_temporal_graph,
    random_time_sets,
)
from .laws import Law, get_laws, law_registry, register_law
from . import oracle as _oracle  # noqa: F401  (registers differential laws)
from .shrink import reproducer_snippet, shrink_graph, write_reproducer
from .fuzz import HOSTILE_EVERY, FuzzFailure, FuzzReport, run_fuzz


def temporal_graphs(*args: object, **kwargs: object) -> object:
    """The hypothesis strategy :func:`repro.testing.strategies.temporal_graphs`.

    Imported on first call, so importing :mod:`repro.testing` (which the
    figure drivers do, for the reference engines) never loads hypothesis.
    """
    from .strategies import temporal_graphs as strategy

    return strategy(*args, **kwargs)


__all__ = [
    "assert_same_aggregate",
    "assert_same_graph",
    "GraphSpec",
    "graph_from_maps",
    "graph_to_maps",
    "random_temporal_graph",
    "random_time_sets",
    "Law",
    "get_laws",
    "law_registry",
    "register_law",
    "reproducer_snippet",
    "shrink_graph",
    "write_reproducer",
    "FuzzFailure",
    "FuzzReport",
    "run_fuzz",
    "HOSTILE_EVERY",
    "temporal_graphs",
]
