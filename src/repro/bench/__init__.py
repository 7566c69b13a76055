"""Benchmark/reporting harness: timing helpers, series rendering and the
per-figure experiment drivers of Section 5.1."""

from .experiments import (
    ExperimentSeries,
    fig5_timepoint_aggregation,
    fig6_union_aggregation,
    fig7_intersection_aggregation,
    fig8_difference_old_new,
    fig9_difference_new_old,
    fig10_materialized_union_speedup,
    fig11_attribute_rollup_speedup,
)
from .reporting import ascii_chart, format_series, format_table
from .timing import Measurement, measure, speedup

__all__ = [
    "Measurement",
    "measure",
    "speedup",
    "format_table",
    "format_series",
    "ascii_chart",
    "ExperimentSeries",
    "fig5_timepoint_aggregation",
    "fig6_union_aggregation",
    "fig7_intersection_aggregation",
    "fig8_difference_old_new",
    "fig9_difference_new_old",
    "fig10_materialized_union_speedup",
    "fig11_attribute_rollup_speedup",
]
