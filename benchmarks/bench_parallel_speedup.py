"""Parallel executor speedup benchmark: serial vs. pooled fan-out.

Measures what :mod:`repro.parallel` buys on the two fan-out sites that
dominate the paper's evaluation workloads:

* **exploration** — pruned STABILITY/MAXIMAL/NEW exploration over a
  Figure-13-scale synthetic timeline, serial vs. 2 and 4 workers;
* **long exploration** (``explore_long``) — the same exploration over a
  timeline twice as long, serial vs. 2 workers: chain work grows
  faster than the timeline while pool startup stays fixed, so this is
  where a 2-worker pool can beat inline on a 2-CPU machine;
* **aggregation** — full-window DIST aggregation over the same graph,
  serial vs. 2 and 4 workers;
* **inline guarantee** — ``parallelism=1`` must cost the same as the
  plain serial call (the single-worker pool short-circuits inline).

Every pooled run is checked bit-identical (``diff() == ()``) against
its serial twin before it is timed, so the numbers can never come from
divergent work.

Results land in ``BENCH_parallel.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py [--smoke]

The speedup gate (>= {GATE}x at 4 workers on the full-size exploration
workload) only applies when the machine actually has >= 4 CPUs — the
report records ``cpu_count`` so a regression harness on a smaller box
can tell why the gate was waived.  ``--smoke`` shrinks the workloads
for CI; the checked-in JSON comes from a full run.  This file is a
script, not a pytest module — pytest collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench import measure, speedup
from repro.core import aggregate
from repro.datasets import (
    EvolvingGraphConfig,
    StaticAttributeSpec,
    VaryingAttributeSpec,
    generate_evolving_graph,
)
from repro.exploration import EventType, ExtendSide, Goal, explore

#: Minimum 4-worker speedup on the full-size exploration workload,
#: enforced only on machines with at least ``GATE_MIN_CPUS`` CPUs.
GATE = 1.8
GATE_MIN_CPUS = 4

WORKER_COUNTS = (2, 4)
#: Workers for the long-timeline exploration row.
LONG_WORKER_COUNTS = (2,)


def synthetic_graph(n_times: int, nodes: int, edges: int, seed: int = 7):
    def level(rng, node_ids, t):
        return (node_ids % 4 + 1).astype(object)

    config = EvolvingGraphConfig(
        times=tuple(range(n_times)),
        node_targets=(nodes,) * n_times,
        edge_targets=(edges,) * n_times,
        node_survival=0.8,
        node_return=0.3,
        edge_repeat=0.5,
        static_attrs=(StaticAttributeSpec("color", ("red", "blue", "green")),),
        varying_attrs=(VaryingAttributeSpec("level", level),),
        seed=seed,
    )
    return generate_evolving_graph(config)


def _explore_fn(graph, workers):
    return lambda: explore(
        graph,
        EventType.STABILITY,
        Goal.MAXIMAL,
        ExtendSide.NEW,
        1,
        parallelism=workers,
    )


def _aggregate_fn(graph, workers):
    return lambda: aggregate(
        graph, ["color", "level"], distinct=True, parallelism=workers
    )


def bench_site(name, graph, make_fn, repeats, worker_counts=WORKER_COUNTS):
    """Serial vs. pooled timings for one fan-out site, parity-checked."""
    serial = measure(make_fn(graph, None), repeats=repeats)
    rows = []
    for workers in worker_counts:
        pooled_result = make_fn(graph, workers)()
        assert serial.result.diff(pooled_result) == (), (
            f"{name}: parallelism={workers} diverged from serial"
        )
        pooled = measure(make_fn(graph, workers), repeats=repeats)
        rows.append(
            {
                "workload": name,
                "workers": workers,
                "serial_best_s": serial.best,
                "parallel_best_s": pooled.best,
                "parallel_mean_s": pooled.mean,
                "speedup": speedup(serial, pooled),
            }
        )
        print(
            f"  {name:>12} workers={workers}: serial {serial.best:.4f}s "
            f"pooled {pooled.best:.4f}s speedup {rows[-1]['speedup']:.2f}x"
        )
    return rows


def bench_inline_guarantee(graph, repeats):
    """``parallelism=1`` must not pay pool overhead."""
    serial = measure(_explore_fn(graph, None), repeats=repeats)
    inline = measure(_explore_fn(graph, 1), repeats=repeats)
    assert serial.result.diff(inline.result) == ()
    overhead = inline.best / serial.best - 1.0
    print(
        f"  inline guarantee: serial {serial.best:.4f}s "
        f"parallelism=1 {inline.best:.4f}s ({overhead:+.1%})"
    )
    return {
        "workload": "explore_inline_guarantee",
        "serial_best_s": serial.best,
        "workers1_best_s": inline.best,
        "overhead": overhead,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny datasets and one repeat (CI); waives the speedup gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_parallel.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    # A relative --output must mean "relative to where the run started",
    # even if dataset generation or a harness chdirs before the write.
    args.output = args.output.expanduser().resolve()

    if args.smoke:
        n_times, nodes, edges = 12, 80, 160
        repeats = args.repeats or 1
    else:
        n_times, nodes, edges = 60, 300, 600
        repeats = args.repeats or 3

    cpu_count = os.cpu_count() or 1
    graph = synthetic_graph(n_times, nodes, edges)
    print(f"parallel speedup ({cpu_count} CPUs):")
    rows = bench_site("explore", graph, _explore_fn, repeats)
    rows += bench_site("aggregate", graph, _aggregate_fn, repeats)
    long_graph = synthetic_graph(2 * n_times, nodes, edges)
    rows += bench_site(
        "explore_long", long_graph, _explore_fn, repeats, LONG_WORKER_COUNTS
    )
    inline_row = bench_inline_guarantee(graph, repeats)

    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "gate": GATE,
            "gate_min_cpus": GATE_MIN_CPUS,
            "synthetic_size": {
                "n_times": n_times,
                "nodes_per_t": nodes,
                "edges_per_t": edges,
            },
            "long_n_times": 2 * n_times,
        },
        "speedups": rows,
        "inline_guarantee": inline_row,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.smoke:
        # Smoke sizes are dominated by pool startup; only the full-size
        # run says anything about scaling.
        return 0
    if cpu_count < GATE_MIN_CPUS:
        print(
            f"NOTE: speedup gate waived ({cpu_count} CPUs < "
            f"{GATE_MIN_CPUS}); recorded for cross-machine comparison only"
        )
        return 0
    best = max(
        (
            r["speedup"]
            for r in rows
            if r["workload"] == "explore" and r["workers"] == 4
        ),
        default=0.0,
    )
    if best < GATE:
        print(
            f"WARNING: 4-worker exploration speedup {best:.2f}x is below "
            f"the {GATE}x gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
