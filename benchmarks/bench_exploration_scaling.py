"""Old-vs-new exploration engine scaling benchmark.

Measures what the packed depth-at-a-time walks of
:class:`~repro.exploration.ChainEvaluator` buy over the seed
implementation's per-pair evaluation, which survives as the parity
oracle in :mod:`repro.testing.reference`:

* **synthetic scaling** — ``exhaustive_explore`` and pruned ``explore``
  on growing synthetic timelines vs. ``exhaustive_reference`` and
  ``explore_reference``, the per-pair re-reduction (the seed's
  strategy);
* **varying-attribute fallback** — the vectorized tuple-code appearance
  counting over the production unpruned walk vs. a faithful
  reimplementation of the seed's nested Python loop over the per-pair
  reference chains;
* **paper configurations** — the Figure 13 (MovieLens) and Figure 14
  (DBLP) exploration cases at their Section-3.5 thresholds.

Results land in ``BENCH_explore.json`` (see ``docs/benchmarks.md``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_exploration_scaling.py [--smoke]

``--smoke`` shrinks every dataset so CI finishes in seconds; the
checked-in JSON comes from a full run.  This file is a script, not a
pytest-benchmark module — pytest collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from repro.bench import measure, speedup
from repro.core.aggregation import _node_tuple_table
from repro.datasets import (
    EvolvingGraphConfig,
    StaticAttributeSpec,
    VaryingAttributeSpec,
    generate_dblp,
    generate_evolving_graph,
    generate_movielens,
)
from repro.exploration import (
    ChainEvaluator,
    EntityKind,
    EventCounter,
    EventType,
    ExtendSide,
    Goal,
    Semantics,
    exhaustive_explore,
    explore,
    suggest_threshold,
)
from repro.testing.reference import (
    exhaustive_reference,
    explore_reference,
    reference_chain,
)

FF = (("f",), ("f",))


class _SeedEventCounter(EventCounter):
    """EventCounter with the seed's nested-loop appearance counting.

    The honest "old" baseline for time-varying attributes: one
    ``_node_tuple_table`` call and a Python loop over entities x window
    per count, exactly as the pre-vectorization implementation did.
    """

    def _count_appearances(self, event, old, new, mask):  # type: ignore[override]
        window = self._event_window(event, old, new)
        node_table = _node_tuple_table(self.graph, self.attributes, tuple(window))
        if self.entity is EntityKind.NODES:
            kept = {
                node
                for node, keep in zip(self.graph.node_presence.row_labels, mask)
                if keep
            }
            appearances = {
                (node, values)
                for node, _, values in node_table.rows
                if node in kept
            }
            if self.key is None:
                return len(appearances)
            wanted = tuple(self.key)
            return sum(1 for _, values in appearances if values == wanted)
        lookup = {(node, t): values for node, t, values in node_table.rows}
        positions = [self.graph.timeline.index_of(t) for t in window]
        presence = self.graph.edge_presence.values
        appearances = set()
        for row, edge in enumerate(self.graph.edge_presence.row_labels):
            if not mask[row]:
                continue
            u, v = edge
            for t, pos in zip(window, positions):
                if not presence[row, pos]:
                    continue
                source = lookup.get((u, t))
                target = lookup.get((v, t))
                if source is None or target is None:
                    continue
                appearances.add((edge, (source, target)))
        if self.key is None:
            return len(appearances)
        wanted = (tuple(self.key[0]), tuple(self.key[1]))
        return sum(1 for _, pair in appearances if pair == wanted)


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


#: The chains :func:`_drain_chains` consumes.
DRAINED = (
    (EventType.STABILITY, Semantics.INTERSECTION, ExtendSide.NEW),
    (EventType.GROWTH, Semantics.UNION, ExtendSide.OLD),
)


def _drain_chains(counter: EventCounter) -> int:
    """Consume every extension chain of every reference point, one
    per-pair reference chain at a time — the exhaustive exploration
    workload, stripped of result bookkeeping."""
    total = 0
    references = len(counter.graph.timeline) - 1
    for event, semantics, extend in DRAINED:
        for reference in range(references):
            for step in reference_chain(counter, event, reference, extend, semantics):
                total += step.count
    return total


def _walk_chains(counter: EventCounter) -> int:
    """:func:`_drain_chains` through the production unpruned walk."""
    total = 0
    references = len(counter.graph.timeline) - 1
    for event, semantics, extend in DRAINED:
        walk = ChainEvaluator(counter, event).walk_counts(
            0, references, extend, semantics
        )
        total += sum(int(counts.sum()) for _, _, counts, _ in walk)
    return total


def _answered(explorer, *args, **kwargs):
    """``explorer``'s result with every reported pair read, as a client
    reads it: pairs are built on first read, so both arms of a speedup
    pay for the same output."""
    result = explorer(*args, **kwargs)
    tuple(result.pairs)
    return result


def bench_synthetic_scaling(lengths, nodes, edges, repeats):
    rows = []
    for n_times in lengths:
        graph = synthetic_graph(n_times, nodes, edges)
        case = (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, 1)
        for name, fast, oracle in (
            ("exhaustive_explore", exhaustive_explore, exhaustive_reference),
            ("explore", explore, explore_reference),
        ):
            new = measure(lambda: _answered(fast, graph, *case), repeats=repeats)
            old = measure(lambda: _answered(oracle, graph, *case), repeats=repeats)
            assert new.result == old.result
            rows.append(
                {
                    "workload": name,
                    "n_times": n_times,
                    "n_nodes": graph.n_nodes,
                    "n_edges": graph.n_edges,
                    "old_best_s": old.best,
                    "new_best_s": new.best,
                    "speedup": speedup(old, new),
                    "evaluations": new.result.evaluations,
                }
            )
            print(
                f"  synthetic {name:>18} n={n_times:>3}: "
                f"old {old.best:.4f}s new {new.best:.4f}s "
                f"speedup {rows[-1]['speedup']:.1f}x"
            )
    return rows


def bench_varying_fallback(lengths, nodes, edges, repeats):
    rows = []
    for n_times in lengths:
        graph = synthetic_graph(n_times, nodes, edges)
        seed_counter = _SeedEventCounter(graph, attributes=["level"])
        vec_counter = EventCounter(graph, attributes=["level"])
        old = measure(lambda: _drain_chains(seed_counter), repeats=repeats)
        new = measure(lambda: _walk_chains(vec_counter), repeats=repeats)
        assert new.result == old.result
        rows.append(
            {
                "workload": "chain_counts_varying_attr",
                "n_times": n_times,
                "n_edges": graph.n_edges,
                "old_best_s": old.best,
                "new_best_s": new.best,
                "speedup": speedup(old, new),
            }
        )
        print(
            f"  varying-attr chains n={n_times:>3}: "
            f"old {old.best:.4f}s new {new.best:.4f}s "
            f"speedup {rows[-1]['speedup']:.1f}x"
        )
    return rows


# The Figure 13/14 exploration cases: (name, event, goal, extend, mode).
PAPER_CASES = (
    ("stability_maximal", EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, "max"),
    ("growth_minimal", EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, "max"),
    ("shrinkage_minimal", EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD, "min"),
)


def bench_paper_configs(dataset, graph, repeats):
    rows = []
    for name, event, goal, extend, mode in PAPER_CASES:
        k = suggest_threshold(
            graph, event, mode, attributes=["gender"], key=FF
        )
        case = (graph, event, goal, extend, k)
        what = dict(attributes=["gender"], key=FF)
        new = measure(lambda: _answered(explore, *case, **what), repeats=repeats)
        old = measure(
            lambda: _answered(explore_reference, *case, **what), repeats=repeats
        )
        assert new.result == old.result
        rows.append(
            {
                "dataset": dataset,
                "case": name,
                "k": k,
                "n_times": len(graph.timeline),
                "old_best_s": old.best,
                "new_best_s": new.best,
                "speedup": speedup(old, new),
                "pairs": len(new.result.pairs),
            }
        )
        print(
            f"  {dataset} {name:>18} k={k:>4}: "
            f"old {old.best:.4f}s new {new.best:.4f}s "
            f"speedup {rows[-1]['speedup']:.1f}x"
        )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny datasets and one repeat (CI)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_explore.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    # A relative --output must mean "relative to where the run started",
    # even if dataset generation or a harness chdirs before the write.
    args.output = args.output.expanduser().resolve()

    if args.smoke:
        lengths, nodes, edges = [8, 12], 80, 160
        varying_lengths = [8, 12]
        ml_scale, dblp_scale = 0.02, 0.01
        repeats = args.repeats or 1
    else:
        lengths, nodes, edges = [12, 25, 50, 60], 300, 600
        varying_lengths = [12, 25]
        ml_scale, dblp_scale = 0.05, 0.02
        repeats = args.repeats or 3

    print("synthetic scaling (static path):")
    synthetic = bench_synthetic_scaling(lengths, nodes, edges, repeats)
    print("varying-attribute fallback (tuple codes vs nested loop):")
    varying = bench_varying_fallback(varying_lengths, nodes, edges, repeats)
    print("paper exploration configurations:")
    movielens = bench_paper_configs(
        "movielens", generate_movielens(scale=ml_scale), repeats
    )
    dblp = bench_paper_configs("dblp", generate_dblp(scale=dblp_scale), repeats)

    report = {
        "meta": {
            "smoke": args.smoke,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "synthetic_size": {"nodes_per_t": nodes, "edges_per_t": edges},
            "movielens_scale": ml_scale,
            "dblp_scale": dblp_scale,
        },
        "synthetic_scaling": synthetic,
        "varying_fallback": varying,
        "paper_configs": movielens + dblp,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    best_long = max(
        (r["speedup"] for r in synthetic if r["n_times"] >= 50),
        default=None,
    )
    if best_long is not None and best_long < 3.0:
        print(f"WARNING: best 50+-point speedup {best_long:.1f}x is below 3x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
