"""Experiment drivers for every performance figure of Section 5.1.

Each ``fig*`` function reproduces one figure of the paper: it sweeps the
figure's x-axis (time points or interval lengths), times the relevant
operator/aggregation combination, and returns an
:class:`ExperimentSeries` whose series mirror the figure's lines.  The
CLI and the example scripts render these; the pytest-benchmark suite in
``benchmarks/`` measures the same operations with statistical rigor.

Aggregation is timed through the paper's own algorithm
(:func:`repro.testing.reference.aggregate_reference`: Algorithm 2, or the
Section 4.2 static path), not the production kernel, so the series stay
comparable with the paper's figures and with EXPERIMENTS.md.  Each driver
imports it when it runs, so importing :mod:`repro` loads no part of
:mod:`repro.testing`.

Interval conventions follow the paper: interval sweeps anchor at the
first time point and extend right one base point at a time; for the
difference figures the reference point ``T_new`` is the last time point.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..core import TemporalGraph, difference, project, union
from ..materialize import MaterializedStore
from .timing import measure

__all__ = [
    "ExperimentSeries",
    "fig5_timepoint_aggregation",
    "fig6_union_aggregation",
    "fig7_intersection_aggregation",
    "fig8_difference_old_new",
    "fig9_difference_new_old",
    "fig10_materialized_union_speedup",
    "fig11_attribute_rollup_speedup",
]


@dataclass
class ExperimentSeries:
    """One figure's data: named series over shared x labels."""

    name: str
    x_name: str
    x_labels: list[Any]
    series: dict[str, list[float]] = field(default_factory=dict)
    value_name: str = "time (s)"

    def add(self, series_name: str, value: float) -> None:
        self.series.setdefault(series_name, []).append(value)


def _series_label(attributes: Sequence[str], distinct: bool | None = None) -> str:
    label = "+".join(attributes)
    if distinct is None:
        return label
    return f"{label} ({'DIST' if distinct else 'ALL'})"


def fig5_timepoint_aggregation(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    repeats: int = 1,
) -> ExperimentSeries:
    """Figure 5: aggregation time per attribute (set) on each time point."""
    from ..testing.reference import aggregate_reference

    result = ExperimentSeries(
        "fig5: time-point aggregation",
        "time point",
        list(graph.timeline.labels),
    )
    for time in graph.timeline.labels:
        for attributes in attribute_sets:
            timing = measure(
                lambda: aggregate_reference(
                    graph, attributes, distinct=True, times=[time]
                ),
                repeats=repeats,
            )
            result.add(_series_label(attributes), timing.best)
    return result


def _interval_spans(graph: TemporalGraph) -> list[tuple[Hashable, ...]]:
    """Anchored spans [t0], [t0..t1], ... [t0..tn-1]."""
    labels = graph.timeline.labels
    return [labels[: i + 1] for i in range(len(labels))]


def fig6_union_aggregation(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    distinct_modes: Sequence[bool] = (True, False),
    repeats: int = 1,
    split: bool = False,
) -> ExperimentSeries:
    """Figure 6: union + aggregation time while the interval extends.

    With ``split=True`` the operator and aggregation times are reported
    as separate series (the paper's per-attribute time-split panels);
    otherwise each series is the total.
    """
    from ..testing.reference import aggregate_reference

    spans = _interval_spans(graph)
    result = ExperimentSeries(
        "fig6: union + aggregation",
        "interval end",
        [span[-1] for span in spans],
    )
    for span in spans:
        op_timing = measure(lambda: union(graph, span), repeats=repeats)
        for attributes in attribute_sets:
            for distinct in distinct_modes:
                agg_timing = measure(
                    lambda: aggregate_reference(
                        op_timing.result, attributes, distinct=distinct
                    ),
                    repeats=repeats,
                )
                label = _series_label(attributes, distinct)
                if split:
                    result.add(f"{label} op", op_timing.best)
                    result.add(f"{label} agg", agg_timing.best)
                else:
                    result.add(label, op_timing.best + agg_timing.best)
    return result


def _strict_span_limit(graph: TemporalGraph) -> int:
    """Longest anchored span over which at least one common edge exists
    (the paper truncates Fig. 7 at [2000, 2017] for this reason)."""
    labels = graph.timeline.labels
    limit = 1
    for end in range(1, len(labels)):
        if not graph.edge_presence.all_mask(labels[: end + 1]).any():
            break
        limit = end + 1
    return limit


def fig7_intersection_aggregation(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    repeats: int = 1,
    split: bool = False,
) -> ExperimentSeries:
    """Figure 7: intersection (strict span) + DIST aggregation time.

    The intersection of an anchored span keeps entities present at every
    covered point; the sweep stops at the longest span that still has a
    common edge, as in the paper.
    """
    from ..testing.reference import aggregate_reference

    labels = graph.timeline.labels
    limit = _strict_span_limit(graph)
    spans = [labels[: i + 1] for i in range(limit)]
    result = ExperimentSeries(
        "fig7: intersection + aggregation",
        "interval end",
        [span[-1] for span in spans],
    )
    for span in spans:
        op_timing = measure(lambda: project(graph, span), repeats=repeats)
        for attributes in attribute_sets:
            agg_timing = measure(
                lambda: aggregate_reference(
                    op_timing.result, attributes, distinct=True
                ),
                repeats=repeats,
            )
            label = _series_label(attributes)
            if split:
                result.add(f"{label} op", op_timing.best)
                result.add(f"{label} agg", agg_timing.best)
            else:
                result.add(label, op_timing.best + agg_timing.best)
    return result


def _difference_sweep(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    new_minus_old: bool,
    distinct_modes: Sequence[bool],
    repeats: int,
    split: bool,
    name: str,
) -> ExperimentSeries:
    """Shared sweep for Figures 8 and 9: ``T_old`` extends under union
    semantics while ``T_new`` is the (fixed) last time point."""
    from ..testing.reference import aggregate_reference

    labels = graph.timeline.labels
    new_times = (labels[-1],)
    old_spans = [labels[: i + 1] for i in range(len(labels) - 1)]
    result = ExperimentSeries(name, "old interval end", [s[-1] for s in old_spans])
    for old_span in old_spans:
        if new_minus_old:
            op_timing = measure(
                lambda: difference(graph, new_times, old_span), repeats=repeats
            )
        else:
            op_timing = measure(
                lambda: difference(graph, old_span, new_times), repeats=repeats
            )
        for attributes in attribute_sets:
            for distinct in distinct_modes:
                agg_timing = measure(
                    lambda: aggregate_reference(
                        op_timing.result, attributes, distinct=distinct
                    ),
                    repeats=repeats,
                )
                label = _series_label(attributes, distinct)
                if split:
                    result.add(f"{label} op", op_timing.best)
                    result.add(f"{label} agg", agg_timing.best)
                else:
                    result.add(label, op_timing.best + agg_timing.best)
    return result


def fig8_difference_old_new(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    distinct_modes: Sequence[bool] = (True, False),
    repeats: int = 1,
    split: bool = False,
) -> ExperimentSeries:
    """Figure 8: ``T_old(∪) - T_new`` + aggregation while ``T_old``
    extends (deletions relative to the latest time point)."""
    return _difference_sweep(
        graph,
        attribute_sets,
        new_minus_old=False,
        distinct_modes=distinct_modes,
        repeats=repeats,
        split=split,
        name="fig8: difference T_old(∪) - T_new",
    )


def fig9_difference_new_old(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    distinct_modes: Sequence[bool] = (True, False),
    repeats: int = 1,
    split: bool = False,
) -> ExperimentSeries:
    """Figure 9: ``T_new - T_old(∪)`` + aggregation while ``T_old``
    extends (additions at the latest time point)."""
    return _difference_sweep(
        graph,
        attribute_sets,
        new_minus_old=True,
        distinct_modes=distinct_modes,
        repeats=repeats,
        split=split,
        name="fig9: difference T_new - T_old(∪)",
    )


def fig10_materialized_union_speedup(
    graph: TemporalGraph,
    attribute_sets: Sequence[Sequence[str]],
    repeats: int = 1,
) -> ExperimentSeries:
    """Figure 10: speedup of the T-distributive union(ALL) derivation.

    For each anchored span, from-scratch time (union operator + ALL
    aggregation) divided by the time to sum precomputed per-point
    aggregates from a warm :class:`MaterializedStore`.
    """
    from ..testing.reference import aggregate_reference

    spans = _interval_spans(graph)[1:]  # speedup needs length >= 2
    result = ExperimentSeries(
        "fig10: materialized union speedup",
        "interval end",
        [span[-1] for span in spans],
        value_name="speedup (x)",
    )
    for attributes in attribute_sets:
        store = MaterializedStore(graph)
        store.precompute(attributes, distinct=False)
        label = _series_label(attributes)
        for span in spans:
            scratch = measure(
                lambda: aggregate_reference(
                    union(graph, span), attributes, distinct=False
                ),
                repeats=repeats,
            )
            derived = measure(
                lambda: store.union_aggregate(attributes, span), repeats=repeats
            )
            result.series.setdefault(label, []).append(
                scratch.best / derived.best if derived.best > 0 else float("inf")
            )
    return result


def fig11_attribute_rollup_speedup(
    graph: TemporalGraph,
    superset: Sequence[str],
    subsets: Sequence[Sequence[str]],
    repeats: int = 1,
    distinct: bool = True,
) -> ExperimentSeries:
    """Figure 11: speedup of D-distributive attribute roll-up per time
    point — deriving each subset aggregate from the materialized
    superset aggregate vs. computing it from scratch."""
    from ..testing.reference import aggregate_reference

    result = ExperimentSeries(
        "fig11: attribute roll-up speedup",
        "time point",
        list(graph.timeline.labels),
        value_name="speedup (x)",
    )
    store = MaterializedStore(graph)
    for time in graph.timeline.labels:
        store.timepoint_aggregate(superset, time, distinct=distinct)
    for subset in subsets:
        label = f"{_series_label(subset)} from {_series_label(superset)}"
        for time in graph.timeline.labels:
            scratch = measure(
                lambda: aggregate_reference(
                    graph, subset, distinct=distinct, times=[time]
                ),
                repeats=repeats,
            )
            derived = measure(
                lambda: store.rollup_aggregate(superset, subset, time, distinct=distinct),
                repeats=repeats,
            )
            result.series.setdefault(label, []).append(
                scratch.best / derived.best if derived.best > 0 else float("inf")
            )
    return result
