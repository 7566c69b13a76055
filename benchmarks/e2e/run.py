"""End-to-end benchmark: serving, streaming and exploration workloads.

Run every workload, each in its own child process (so ``rss_peak_mb`` is
per workload), print every end-to-end metric with its unit, check the
answers and write a results JSON::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --repeat 5    # seeds 0..4: median, quartiles
    python3 benchmarks/e2e/run.py --trace 1     # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke       # tiny inputs, a few seconds

Run one workload in this process; the last line of output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 3 --seconds 10 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; set-up runs five times and ``setup_s`` is the median, and the
throughput and latencies come from each operation's fastest time over
the units of the timed phase (see :func:`fastest_times`).  With ``--trace 1`` the workload first runs
untraced, then is set up and run again with timing wrappers on every
layer boundary (``spans.py``), and the metrics are the per-layer ones.
The exit status is non-zero when any answer was wrong or any request
failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np
from spans import SPAN_NAMES, LayerTrace, NullTrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Settings that would change which executor or storage backend serves
#: the requests; they are removed so every run measures the defaults.
ISOLATED_ENV = (
    "REPRO_PARALLEL_WORKERS",
    "REPRO_PARALLEL_BACKEND",
    "REPRO_PARALLEL_MIN_WORK",
    "REPRO_STORAGE_BACKEND",
)

SETUP_REPEATS = 5

#: End-to-end metric -> (unit, better); every workload reports every one.
#: The bounds live in ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}

#: Per-layer metric -> (unit, better): three per span, then the ratios
#: and guards.  Calls are counted over a fixed time, so more is better.
PER_LAYER = {
    f"{span}.{kind}": (unit, better)
    for span in SPAN_NAMES
    for kind, unit, better in (
        ("calls", "count", "higher"),
        ("self_ms", "ms", "lower"),
        ("wait_ms", "ms", "lower"),
    )
}
PER_LAYER.update(
    {
        "serving.cache_hit_ratio": ("ratio", "higher"),
        "olap.route_share.exact": ("ratio", "higher"),
        "olap.route_share.rollup": ("ratio", "higher"),
        "olap.route_share.time_sum": ("ratio", "higher"),
        "olap.route_share.base": ("ratio", "lower"),
        "core.aggregate.general_share": ("ratio", "lower"),
        "exploration.evaluations_per_call": ("count", "lower"),
        "exploration.pairs_per_evaluation": ("ratio", "lower"),
        "parallel.maps": ("count", "lower"),
        "tracing.overhead_ratio": ("ratio", "lower"),
        "tracing.coverage": ("ratio", "higher"),
    }
)

WORKLOAD_NAMES = ("serve_hot", "serve_zipf", "stream_refresh", "explore_sweep")

#: Which end-to-end metrics a change in each layer should move, on which
#: workloads: ``span or ratio prefix -> ((metric, workload), ...)``.
#: Written down before any change claims a gain; see README.md.
_HOT = (("throughput_rps", "serve_hot"), ("latency_p50_ms", "serve_hot"))
_ZIPF = (("throughput_rps", "serve_zipf"), ("latency_p50_ms", "serve_zipf"))
_ENGINE = (
    ("latency_p95_ms", "serve_zipf"),
    ("throughput_rps", "serve_zipf"),
    ("latency_p95_ms", "stream_refresh"),
)
_APPEND = (
    ("throughput_rps", "stream_refresh"),
    ("latency_p95_ms", "stream_refresh"),
    ("rss_peak_mb", "stream_refresh"),
)
_SETUP = tuple(("setup_s", workload) for workload in WORKLOAD_NAMES)
MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    "datasets.generate": _SETUP,
    "harness.warmup": _SETUP,
    "query.parse": _HOT,
    "serving.serve": _HOT,
    "serving.normalize": _HOT,
    "serving.cache_get": _HOT,
    "serving.cache_put": _HOT,
    "serving.permute": _HOT + (("latency_p95_ms", "serve_hot"),),
    "serving.plan": _ZIPF,
    "serving.execute": _ZIPF,
    "olap.plan_routes": _ZIPF,
    "olap.execute_route": _ZIPF,
    "serving.cache_hit_ratio": _ZIPF,
    "olap.route_share": _ZIPF,
    "core.aggregate": _ENGINE,
    "core.operator": _ENGINE,
    "core.evolution": _ENGINE,
    "core.restricted": _ENGINE,
    "storage.presence_mask": _ENGINE,
    "frames.groupby_count": _ENGINE,
    "frames.deduplicate": _ENGINE,
    "streaming.append": _APPEND,
    "core.append_snapshot": _APPEND,
    "serving.rebind": _APPEND,
    "olap.cube_init": _APPEND,
    "exploration.explore": (
        ("throughput_rps", "explore_sweep"),
        ("latency_p95_ms", "explore_sweep"),
    ),
    "exploration.evaluations_per_call": (("throughput_rps", "explore_sweep"),),
    "exploration.pairs_per_evaluation": (("throughput_rps", "explore_sweep"),),
    # Guards: nothing should move.
    "parallel.maps": (),
    "tracing": (),
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def fastest_times(series: list[list[float]]) -> list[float]:
    """Each operation's fastest time over a run's units.

    Every unit runs the same operations in the same order, and
    interference from the rest of the machine only ever slows an
    operation down, so the minimum is the steadiest estimate of the
    code's own speed.  On a shared 2-CPU machine it cut the spread of
    p95 latency across ten runs from 26% to 8% on serve_hot and from 27%
    to 5% on explore_sweep, against the same percentile of the run's
    fastest unit.
    """
    return [min(times) for times in zip(*series)]


def _per_second(times: list[float]) -> float:
    return len(times) / sum(times)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _meta(workload: Any, units: list[Any], seconds: float) -> dict[str, Any]:
    from repro.parallel import default_parallelism, parallel_backend
    from repro.storage import resolve_backend_name

    meta = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "parallel_backend": parallel_backend(),
        "parallel_workers": default_parallelism(),
        "storage_backend": resolve_backend_name(),
        "units": len(units),
        "unit_rates": [unit.rate for unit in units],
        "samples_per_unit": len(units[0].latencies),
        "timed_s": sum(unit.elapsed for unit in units),
    }
    appends_ms = [1000.0 * t for t in fastest_times([u.appends for u in units])]
    if appends_ms:
        meta["append_p50_ms"] = _percentile(appends_ms, 50)
        meta["append_p95_ms"] = _percentile(appends_ms, 95)
    return meta


def _result(
    values: dict[str, float],
    table: dict[str, tuple[str, str]],
    total: Any,
    checks: int,
    failed: int,
) -> dict[str, Any]:
    """The result line: the metrics of ``table`` and the operation counts."""
    return {
        "correct": failed == 0,
        "attempted": total.ops + total.checks + checks,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in table.items()
        },
    }


def measure(workload: Any, seconds: float) -> tuple[dict[str, Any], dict[str, Any]]:
    """The untraced run: the end-to-end metrics, plus run metadata."""
    from repro.obs.metrics import get_metrics
    from repro.obs.trace import get_tracer
    from workloads import Samples

    trace = NullTrace()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(trace)
        setup_times.append(time.perf_counter() - start)
    units = workload.run(state, seconds, trace)
    checks, check_failures = workload.check(state)
    total = Samples.merged(units)
    fastest = fastest_times([unit.latencies for unit in units])
    # Guards: the library's own tracer stays off and nothing fanned out
    # to a process pool, so the numbers are the inline defaults.
    guards_failed = int(get_tracer().enabled) + int(
        get_metrics().counter("parallel.maps") != 0
    )
    latencies_ms = [1000.0 * t for t in fastest]
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": _per_second(fastest),
        "latency_p50_ms": _percentile(latencies_ms, 50),
        "latency_p95_ms": _percentile(latencies_ms, 95),
        "rss_peak_mb": _rss_peak_mb(),
    }
    failed = total.errors + total.check_failures + check_failures + guards_failed
    result = _result(values, END_TO_END, total, checks, failed)
    meta = _meta(workload, units, seconds)
    meta["setup_s_each"] = setup_times
    return result, meta


def measure_traced(
    workload: Any, seconds: float
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The traced run: the per-layer metrics, plus run metadata.

    The workload runs untraced first, for the overhead reference; then it
    is set up again and run with the layer wrappers installed.  Span
    totals cover that set-up and the timed phase; checks run afterwards
    with the wrappers removed.
    """
    from repro.obs.metrics import get_metrics
    from workloads import Samples

    state = workload.setup(NullTrace())
    reference = workload.run(state, seconds, NullTrace())
    state = None
    gc.collect()

    trace = LayerTrace()
    with trace:
        state = workload.setup(trace)
        before = trace.root_wall()
        units = workload.run(state, seconds, trace)
        covered = trace.root_wall() - before
    checks, check_failures = workload.check(state)
    total = Samples.merged(units + reference)

    spans, counts = trace.report()
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        calls, self_s, wait_s = spans.get(span, (0, 0.0, 0.0))
        values[f"{span}.calls"] = calls
        values[f"{span}.self_ms"] = self_s * 1000.0
        values[f"{span}.wait_ms"] = wait_s * 1000.0
    gets = values["serving.cache_get.calls"]
    routes = values["olap.execute_route.calls"]
    explores = values["exploration.explore.calls"]
    evaluations = counts.get("exploration.evaluations", 0)
    values["serving.cache_hit_ratio"] = _ratio(
        counts.get("serving.cache_hits", 0), gets
    )
    for kind in ("exact", "rollup", "time_sum", "base"):
        values[f"olap.route_share.{kind}"] = _ratio(
            counts.get(f"olap.route.{kind}", 0), routes
        )
    values["core.aggregate.general_share"] = _ratio(
        counts.get("core.aggregate.general", 0), values["core.aggregate.calls"]
    )
    values["exploration.evaluations_per_call"] = _ratio(evaluations, explores)
    values["exploration.pairs_per_evaluation"] = _ratio(
        counts.get("exploration.pairs", 0), evaluations
    )
    values["parallel.maps"] = get_metrics().counter("parallel.maps")
    values["tracing.overhead_ratio"] = _ratio(
        _per_second(fastest_times([unit.latencies for unit in reference])),
        _per_second(fastest_times([unit.latencies for unit in units])),
    )
    values["tracing.coverage"] = _ratio(covered, sum(unit.elapsed for unit in units))

    failed = total.errors + total.check_failures + check_failures
    result = _result(values, PER_LAYER, total, checks, failed)
    return result, _meta(workload, units, seconds)


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process and print its result line."""
    from workloads import FULL, SMOKE, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL)
    if args.trace:
        result, meta = measure_traced(workload, args.seconds)
    else:
        result, meta = measure(workload, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} attempted {result['attempted']} failed "
        f"{result['failed']} correct {result['correct']}"
    )
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(args: argparse.Namespace, workload: str, seed: int) -> dict[str, Any]:
    """Run one workload in a child process; its parsed result and meta."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=600, check=False
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} (seed {seed}) exited {completed.returncode}")
    meta = next(
        (json.loads(line[5:]) for line in lines if line.startswith("meta ")), {}
    )
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "result": result, "meta": meta}


def _summary(runs: list[dict[str, Any]]) -> dict[str, dict[str, dict[str, float]]]:
    """Per workload and metric: median and quartiles over the runs."""
    summary: dict[str, dict[str, dict[str, float]]] = {}
    for name in dict.fromkeys(run["workload"] for run in runs):
        mine = [run["result"]["metrics"] for run in runs if run["workload"] == name]
        summary[name] = {}
        for metric, first in mine[0].items():
            values = [m[metric]["value"] for m in mine]
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            summary[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "unit": first["unit"],
            }
    return summary


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process, ``--repeat`` times."""
    runs = []
    for repeat in range(args.repeat):
        for workload in WORKLOAD_NAMES:
            run = _child(args, workload, args.seed + repeat)
            runs.append(run)
            result = run["result"]
            print(
                f"{workload} seed {run['seed']}: attempted {result['attempted']} "
                f"failed {result['failed']}"
            )
    summary = _summary(runs)
    for workload, metrics in summary.items():
        for metric, row in metrics.items():
            spread = (
                f" (q1 {row['q1']:.6g}, q3 {row['q3']:.6g})" if args.repeat > 1 else ""
            )
            print(f"{workload} {metric} {row['median']:.6g} {row['unit']}{spread}")
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "runs": runs,
        "summary": summary,
    }
    output = args.output or HERE / "results" / f"seed{args.seed}-trace{args.trace}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0 if all(run["result"]["correct"] for run in runs) else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1 or args.seed < 0:
        parser.error(
            "--seconds must be positive, --repeat at least 1, --seed not negative"
        )
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
