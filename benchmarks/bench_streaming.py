"""Streaming ingestion benchmark: delta-maintained views vs. recompute.

Replays a scaled DBLP history through :class:`repro.streaming.StreamingStore`
and measures, per appended time point, keeping three kinds of derived
state current:

* **totals** — the union-window ALL aggregate
  (:class:`~repro.materialize.AggregateTotalsView`) vs. re-aggregating
  the whole grown window after every append;
* **evolution** — the evolution overlay between the seed window and the
  appended tail (:class:`~repro.streaming.EvolutionView`) vs. a
  from-scratch ``aggregate_evolution`` per append;
* **exploration** — the growing-new-side event chain
  (:class:`~repro.streaming.ExplorationView`) vs. re-walking the full
  chain with :meth:`ChainEvaluator.walk_counts` per append.

Every delta result is checked identical to its recompute twin before
anything is timed, so the speedups can never come from divergent work.
Raw ingestion throughput (appends/s, no views) is recorded alongside.

Results land in ``BENCH_streaming.json``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke]

The gate (every delta path >= {GATE}x its recompute twin on the
full-size run) encodes the point of the subsystem: maintenance must beat
recomputation, and the margin grows with the timeline since recompute is
O(window) per append while the delta step is O(new point).  ``--smoke``
shrinks the workload for CI; the checked-in JSON comes from a full run.
This file is a script, not a pytest module — pytest collects nothing
from it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench import measure, speedup
from repro.core import aggregate, aggregate_evolution
from repro.core.updates import append_snapshot, split_history
from repro.datasets import generate_dblp
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Semantics,
)
from repro.materialize.streaming import AggregateTotalsView
from repro.streaming import EvolutionView, ExplorationView, StreamingStore

#: Minimum delta-over-recompute speedup for every maintained view on the
#: full-size run.  DBLP's timeline is only 21 points, so the window-size
#: advantage is bounded; the totals path lands near ~1.7x while the
#: chain-walk paths clear 4x.
GATE = 1.5

ATTRS = ["gender"]


def grown_graphs(initial, updates):
    """The grown graph after each append, built once and shared by both
    timed paths so only the *maintenance* work differs between them."""
    graphs = []
    graph = initial
    for update in updates:
        graph = append_snapshot(graph, update)
        graphs.append(graph)
    return graphs


def _delta_totals(initial, graphs, updates):
    view = AggregateTotalsView([tuple(ATTRS)])
    view.rebuild(initial)
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
    return view.union_total(ATTRS)


def _scratch_totals(initial, graphs, updates):
    result = None
    for graph in graphs:
        result = aggregate(graph, ATTRS, distinct=False)
    return result


def _delta_evolution(initial, graphs, updates):
    view = EvolutionView(ATTRS, old_times=initial.timeline.labels)
    view.rebuild(initial)
    result = None
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
        result = view.current()
    return result


def _scratch_evolution(initial, graphs, updates):
    old = initial.timeline.labels
    result = None
    for graph in graphs:
        new = graph.timeline.labels[len(old):]
        result = aggregate_evolution(graph, old, new, ATTRS)
    return result


def _delta_exploration(initial, graphs, updates):
    view = ExplorationView(EventType.GROWTH, entity=EntityKind.NODES)
    view.rebuild(initial)
    for graph, update in zip(graphs, updates):
        view.extend(graph, update)
    return view.counts()


def _scratch_exploration(initial, graphs, updates):
    reference = len(initial.timeline.labels) - 1
    counts = ()
    for graph in graphs:
        evaluator = ChainEvaluator(
            EventCounter(graph, entity=EntityKind.NODES), EventType.GROWTH
        )
        walk = evaluator.walk_counts(
            reference, reference + 1, ExtendSide.NEW, Semantics.UNION
        )
        counts = tuple(int(depth_counts[0]) for _, _, depth_counts, _ in walk)
    return counts


def _totals_parity(delta, scratch):
    return (
        dict(delta.node_weights) == dict(scratch.node_weights)
        and dict(delta.edge_weights) == dict(scratch.edge_weights)
    )


WORKLOADS = (
    ("totals", _delta_totals, _scratch_totals, _totals_parity),
    ("evolution", _delta_evolution, _scratch_evolution,
     lambda delta, scratch: delta.diff(scratch) == ()),
    ("exploration", _delta_exploration, _scratch_exploration,
     lambda delta, scratch: delta == scratch),
)


def bench_appends(initial, updates, repeats):
    """Raw ingestion throughput: replay with no registered views."""

    def run():
        store = StreamingStore(initial)
        for update in updates:
            store.append_snapshot(update)
        return store.version

    timing = measure(run, repeats=repeats)
    rate = len(updates) / timing.best if timing.best else float("inf")
    print(
        f"  ingestion: {len(updates)} appends in {timing.best:.4f}s "
        f"({rate:.1f} appends/s)"
    )
    return {
        "appends": len(updates),
        "best_s": timing.best,
        "appends_per_s": rate,
    }


def bench_views(initial, graphs, updates, repeats):
    """Delta vs. recompute timings per maintained view, parity-checked."""
    rows = []
    for name, delta_fn, scratch_fn, parity in WORKLOADS:
        delta_result = delta_fn(initial, graphs, updates)
        scratch_result = scratch_fn(initial, graphs, updates)
        assert parity(delta_result, scratch_result), (
            f"{name}: delta maintenance diverged from recompute"
        )
        scratch = measure(
            lambda: scratch_fn(initial, graphs, updates), repeats=repeats
        )
        delta = measure(
            lambda: delta_fn(initial, graphs, updates), repeats=repeats
        )
        rows.append(
            {
                "workload": name,
                "scratch_best_s": scratch.best,
                "delta_best_s": delta.best,
                "speedup": speedup(scratch, delta),
            }
        )
        print(
            f"  {name:>12}: recompute {scratch.best:.4f}s "
            f"delta {delta.best:.4f}s speedup {rows[-1]['speedup']:.2f}x"
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny dataset and one repeat (CI); waives the speedup gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_streaming.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)
    args.output = args.output.expanduser().resolve()

    if args.smoke:
        scale = args.scale or 0.01
        repeats = args.repeats or 1
    else:
        scale = args.scale or 0.05
        repeats = args.repeats or 3

    graph = generate_dblp(scale=scale)
    initial, updates = split_history(graph)
    print(
        f"streaming (dblp @ scale {scale}: {len(graph.nodes)} nodes, "
        f"{len(updates)} appends):"
    )
    appends_row = bench_appends(initial, updates, repeats)
    rows = bench_views(initial, grown_graphs(initial, updates), updates, repeats)

    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "scale": scale,
            "dataset": "dblp",
            "n_appends": len(updates),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "gate": GATE,
        },
        "ingestion": appends_row,
        "speedups": rows,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.smoke:
        # Smoke timelines are too short for maintenance to pay off;
        # only the full-size run says anything about the gate.
        return 0
    worst = min(row["speedup"] for row in rows)
    if worst < GATE:
        print(
            f"WARNING: slowest delta path is {worst:.2f}x recompute, "
            f"below the {GATE}x gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
