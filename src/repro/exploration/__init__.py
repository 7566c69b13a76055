"""Evolution exploration (Section 3): events, semi-lattices, U-Explore /
I-Explore and threshold initialization."""

from .drill import DrillResult, drill_explore
from .events import ChainEvaluator, ChainStep, EntityKind, EventCounter, EventType
from .explore import (
    ExplorationResult,
    ExtendSide,
    Goal,
    IntervalPairResult,
    exhaustive_explore,
    explore,
    i_explore,
    u_explore,
)
from .groups import GroupExplorationResult, explore_groups
from .lattice import Semantics, Side
from .pairs import PairTable
from .two_sided import (
    TwoSidedPair,
    find_non_monotonic_path,
    two_sided_counts,
    two_sided_explore,
)
from .thresholds import (
    consecutive_event_counts,
    suggest_threshold,
    threshold_ladder,
)

__all__ = [
    "EventType",
    "EntityKind",
    "EventCounter",
    "ChainEvaluator",
    "ChainStep",
    "Semantics",
    "Side",
    "Goal",
    "ExtendSide",
    "IntervalPairResult",
    "PairTable",
    "ExplorationResult",
    "u_explore",
    "i_explore",
    "explore",
    "exhaustive_explore",
    "explore_groups",
    "GroupExplorationResult",
    "consecutive_event_counts",
    "suggest_threshold",
    "threshold_ladder",
    "TwoSidedPair",
    "two_sided_counts",
    "two_sided_explore",
    "find_non_monotonic_path",
    "drill_explore",
    "DrillResult",
]
