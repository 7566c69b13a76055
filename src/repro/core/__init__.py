"""The GraphTempo model: temporal attributed graphs, temporal operators,
attribute aggregation and the evolution graph (Sections 2 and 4)."""

from .aggregation import (
    AggregateGraph,
    aggregate,
    check_no_dangling_edges,
    validated_window,
)
from .derived import degree_class, with_degree_attribute, with_derived_attribute
from .evolution import (
    EvolutionAggregate,
    EvolutionGraph,
    EvolutionWeights,
    aggregate_evolution,
    evolution,
)
from .filters import attribute_predicate, filter_appearances
from .graph import GraphIntegrityError, TemporalGraph, TemporalGraphBuilder
from .intervals import Interval, Timeline
from .measures import MEASURES, MeasureGraph, aggregate_edge_measure, aggregate_measure
from .granularity import TimeHierarchy, coarsen
from .operators import (
    difference,
    intersection,
    ordered_times,
    presence_signature,
    project,
    union,
)
from .updates import SnapshotUpdate, append_snapshot, snapshot_at, split_history

__all__ = [
    "TemporalGraph",
    "TemporalGraphBuilder",
    "GraphIntegrityError",
    "Interval",
    "Timeline",
    "project",
    "union",
    "intersection",
    "difference",
    "ordered_times",
    "presence_signature",
    "AggregateGraph",
    "aggregate",
    "check_no_dangling_edges",
    "validated_window",
    "aggregate_measure",
    "aggregate_edge_measure",
    "MeasureGraph",
    "MEASURES",
    "EvolutionGraph",
    "EvolutionAggregate",
    "EvolutionWeights",
    "evolution",
    "aggregate_evolution",
    "filter_appearances",
    "attribute_predicate",
    "TimeHierarchy",
    "coarsen",
    "SnapshotUpdate",
    "append_snapshot",
    "snapshot_at",
    "split_history",
    "with_derived_attribute",
    "with_degree_attribute",
    "degree_class",
]
