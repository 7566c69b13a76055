"""Checks of the end-to-end benchmark itself: its output contract, its
``BENCHMARK.json`` schema, its inputs and its timing wrappers.

Run with ``PYTHONPATH=src python -m pytest benchmarks -m bench_smoke``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import spans
import workloads
from repro.query import parse
from repro.serving.normalize import normalize_query

pytestmark = pytest.mark.bench_smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_smoke_run_prints_the_benchmark_metrics(
    tmp_path: Path, spec: dict, trace: int, section: str
) -> None:
    """A ``--smoke`` run of every workload prints exactly the metrics of
    ``BENCHMARK.json`` with their units, and no operation fails."""
    output = tmp_path / "results.json"
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke",
            "--seconds", "0.3", "--trace", str(trace), "--output", str(output),
        ],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    expected = {metric["name"]: metric["unit"] for metric in spec[section]}
    report = json.loads(output.read_text())
    assert [r["workload"] for r in report["runs"]] == list(run.WORKLOAD_NAMES)
    for record in report["runs"]:
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == expected
        for name, unit in expected.items():
            line = rf"^{record['workload']} {re.escape(name)} \S+ {re.escape(unit)}$"
            assert re.search(line, completed.stdout, re.MULTILINE), line


def test_benchmark_json_schema(spec: dict) -> None:
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][1] == "benchmarks/e2e/run.py"
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200

    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in spec["workloads"] + end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}

    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in end_to_end} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in per_layer} == run.PER_LAYER


def test_every_layer_metric_names_a_metric_and_workload(spec: dict) -> None:
    """Each layer says which end-to-end metric it should move, on which
    workload; the names exist, and every per-layer metric is covered."""
    metrics = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    for layer, moves in run.MOVES.items():
        assert any(name.startswith(layer) for name in run.PER_LAYER), layer
        for metric, workload in moves:
            assert metric in metrics and workload in names, (layer, metric, workload)
    for name in run.PER_LAYER:
        assert any(name.startswith(layer) for layer in run.MOVES), name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("seed", [0, 3])
def test_statements_are_seeded_and_bind(name: str, seed: int) -> None:
    """A seed gives the same statements every time, and every statement
    parses and binds against the workload's graph."""
    first = workloads.WORKLOADS[name](seed, workloads.SMOKE)
    second = workloads.WORKLOADS[name](seed, workloads.SMOKE)
    graph = first.graph()
    statements = first.statements(graph)
    assert statements and statements == second.statements(second.graph())
    for text in statements:
        normalize_query(graph, parse(text))


def test_zipf_trace_shapes_do_not_depend_on_the_seed() -> None:
    """Only window positions change with the seed: the kind, attributes
    and window lengths of the statement at each rank stay the same."""
    labels = tuple(range(2000, 2021))

    def shape(text: str) -> str:
        return re.sub(r"\d{4}", "Y", text)

    a = workloads.zipf_universe(0, labels, 300, 4)
    b = workloads.zipf_universe(1, labels, 300, 4)
    assert a != b
    assert [shape(t) for t in a] == [shape(t) for t in b]


def _targets() -> list[tuple[object, str]]:
    return [
        (spans._resolve(owner), attribute)
        for owner, attribute, _, _ in spans.LAYER_TARGETS
    ]


def test_wrappers_restore_the_original_functions() -> None:
    originals = [vars(owner)[attribute] for owner, attribute in _targets()]
    with spans.LayerTrace():
        for (owner, attribute), original in zip(_targets(), originals):
            assert vars(owner)[attribute] is not original
            assert vars(owner)[attribute].__wrapped__ is original
    for (owner, attribute), original in zip(_targets(), originals):
        assert vars(owner)[attribute] is original


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_and_wait_time_on_a_nested_call() -> None:
    """``outer`` computes for 50 ms and calls ``inner``, which sleeps for
    50 ms: each span's self time is its own 50 ms, the sleep is waiting,
    and a paused block is not recorded."""
    layer = types.SimpleNamespace()
    layer.inner = lambda: time.sleep(0.05)

    def outer() -> None:
        _spin(0.05)
        layer.inner()

    layer.outer = outer
    trace = spans.LayerTrace(
        ((layer, "outer", "t.outer", None), (layer, "inner", "t.inner", None))
    )
    with trace:
        layer.outer()
        with trace.paused():
            layer.outer()
    recorded, _ = trace.report()
    outer_calls, outer_self, outer_wait = recorded["t.outer"]
    inner_calls, inner_self, inner_wait = recorded["t.inner"]
    assert outer_calls == inner_calls == 1
    assert outer_self == pytest.approx(0.05, abs=0.02)
    assert inner_self == pytest.approx(0.05, abs=0.02)
    assert outer_wait == pytest.approx(0.0, abs=0.01)
    assert inner_wait == pytest.approx(0.05, abs=0.02)
    assert trace.root_wall() == pytest.approx(outer_self + inner_self, rel=0.01)
