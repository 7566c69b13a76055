"""Tests for the benchmark harness: timing, reporting, experiment drivers."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    Measurement,
    ascii_chart,
    fig5_timepoint_aggregation,
    fig6_union_aggregation,
    fig7_intersection_aggregation,
    fig8_difference_old_new,
    fig9_difference_new_old,
    fig10_materialized_union_speedup,
    fig11_attribute_rollup_speedup,
    format_series,
    format_table,
    measure,
    speedup,
)


class TestTiming:
    def test_measure_returns_result(self):
        timing = measure(lambda: 42, repeats=2)
        assert timing.result == 42
        assert timing.repeats == 2
        assert timing.best <= timing.mean

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: 1, repeats=0)

    def test_speedup(self):
        base = Measurement(best=1.0, mean=1.0, repeats=1, result=None)
        fast = Measurement(best=0.25, mean=0.3, repeats=1, result=None)
        assert speedup(base, fast) == 4.0

    def test_speedup_zero_denominator(self):
        base = Measurement(best=1.0, mean=1.0, repeats=1, result=None)
        zero = Measurement(best=0.0, mean=0.0, repeats=1, result=None)
        assert speedup(base, zero) == float("inf")

    def test_measurement_str(self):
        m = Measurement(best=0.001, mean=0.002, repeats=3, result=None)
        assert "ms" in str(m)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_floats(self):
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_ascii_chart_contains_marks(self):
        chart = ascii_chart({"s1": [0, 1, 2], "s2": [2, 1, 0]}, ["a", "b", "c"])
        assert "*" in chart and "o" in chart
        assert "s1" in chart

    def test_ascii_chart_empty(self):
        assert ascii_chart({}, [], title="t") == "t"

    def test_format_series(self):
        text = format_series(
            {"line": [0.1, 0.2]}, ["x1", "x2"], title="demo"
        )
        assert "demo" in text and "x1" in text


@pytest.mark.slow
class TestExperimentDrivers:
    """Each figure driver replays a paper experiment on a tiny graph."""

    def test_fig5(self, small_movielens):
        series = fig5_timepoint_aggregation(
            small_movielens, [["gender"], ["rating"]]
        )
        assert set(series.series) == {"gender", "rating"}
        for values in series.series.values():
            assert len(values) == len(small_movielens.timeline)
            assert all(v >= 0 for v in values)

    def test_fig6(self, small_movielens):
        series = fig6_union_aggregation(small_movielens, [["gender"]])
        assert "gender (DIST)" in series.series
        assert "gender (ALL)" in series.series
        assert len(series.x_labels) == len(small_movielens.timeline)

    def test_fig6_split(self, small_movielens):
        series = fig6_union_aggregation(
            small_movielens, [["gender"]], distinct_modes=(True,), split=True
        )
        assert "gender (DIST) op" in series.series
        assert "gender (DIST) agg" in series.series

    def test_fig7_truncates_at_common_edge(self, small_movielens):
        series = fig7_intersection_aggregation(small_movielens, [["gender"]])
        assert 1 <= len(series.x_labels) <= len(small_movielens.timeline)

    def test_fig8(self, small_movielens):
        series = fig8_difference_old_new(
            small_movielens, [["gender"]], distinct_modes=(True,)
        )
        assert len(series.x_labels) == len(small_movielens.timeline) - 1

    def test_fig9(self, small_movielens):
        series = fig9_difference_new_old(
            small_movielens, [["gender"]], distinct_modes=(True,)
        )
        assert "gender (DIST)" in series.series

    def test_fig10_speedups_positive(self, small_movielens):
        series = fig10_materialized_union_speedup(small_movielens, [["gender"]])
        values = series.series["gender"]
        assert len(values) == len(small_movielens.timeline) - 1
        assert all(v > 0 for v in values)

    def test_fig11_speedups_positive(self, small_movielens):
        series = fig11_attribute_rollup_speedup(
            small_movielens,
            ["gender", "age", "occupation", "rating"],
            [["gender"], ["rating"]],
        )
        for values in series.series.values():
            assert len(values) == len(small_movielens.timeline)
            assert all(v > 0 for v in values)

    def test_series_add(self, small_movielens):
        series = fig5_timepoint_aggregation(small_movielens, [["gender"]])
        series.add("extra", 1.0)
        assert series.series["extra"] == [1.0]


def test_importing_the_library_leaves_the_test_harness_unloaded():
    """The figure drivers import the reference engines when they run, so
    importing the library and its serving subsystems loads no part of
    ``repro.testing``."""
    script = (
        "import sys\n"
        "import repro, repro.exploration, repro.serving, repro.streaming\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.testing'))\n"
        "assert not loaded, loaded\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={"PYTHONPATH": str(src)},
        timeout=120,
    )
