"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Print the dataset size tables (Tables 3/4)::

    python -m repro datasets --scale 0.1

Regenerate a performance figure's series (Figures 5-11)::

    python -m repro figure 6 --dataset dblp --scale 0.05

The qualitative experiments (Figures 12-14)::

    python -m repro evolution --scale 0.05
    python -m repro explore --dataset movielens --scale 0.05
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from pathlib import Path

from .analysis import (
    dataset_report,
    densification,
    evolution_report,
    exploration_report,
    homophily,
    stability_ratio,
    turnover,
)
from .bench import (
    fig5_timepoint_aggregation,
    fig6_union_aggregation,
    fig7_intersection_aggregation,
    fig8_difference_old_new,
    fig9_difference_new_old,
    fig10_materialized_union_speedup,
    fig11_attribute_rollup_speedup,
    format_series,
)
from .core import (
    TemporalGraph,
    TimeHierarchy,
    aggregate,
    aggregate_evolution,
    coarsen,
    union,
)
from .datasets import generate_dblp, generate_movielens
from .exploration import (
    EventType,
    ExtendSide,
    Goal,
    explore_groups,
    suggest_threshold,
    threshold_ladder,
)
from .interop import aggregate_to_dot, evolution_to_dot, write_dot
from .olap import TemporalGraphCube, greedy_view_selection

__all__ = ["main", "build_parser"]

_FF_KEY = (("f",), ("f",))


def _load(dataset: str, scale: float) -> TemporalGraph:
    if dataset == "dblp":
        return generate_dblp(scale=scale)
    if dataset == "movielens":
        return generate_movielens(scale=scale)
    raise SystemExit(f"unknown dataset {dataset!r} (use dblp or movielens)")


def _attribute_sets(dataset: str) -> list[list[str]]:
    if dataset == "dblp":
        return [["gender"], ["publications"], ["gender", "publications"]]
    return [["gender"], ["rating"], ["gender", "rating"],
            ["gender", "age", "occupation", "rating"]]


def _run_figure(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    attribute_sets = _attribute_sets(args.dataset)
    drivers = {
        5: lambda: fig5_timepoint_aggregation(graph, attribute_sets, repeats=args.repeats),
        6: lambda: fig6_union_aggregation(
            graph, attribute_sets[:2], repeats=args.repeats, split=args.split
        ),
        7: lambda: fig7_intersection_aggregation(
            graph, attribute_sets[:2], repeats=args.repeats, split=args.split
        ),
        8: lambda: fig8_difference_old_new(
            graph, attribute_sets[:2], repeats=args.repeats, split=args.split
        ),
        9: lambda: fig9_difference_new_old(
            graph, attribute_sets[:2], repeats=args.repeats, split=args.split
        ),
        10: lambda: fig10_materialized_union_speedup(
            graph, attribute_sets[:2], repeats=args.repeats
        ),
        11: lambda: fig11_attribute_rollup_speedup(
            graph,
            attribute_sets[-1],
            attribute_sets[:2],
            repeats=args.repeats,
        ),
    }
    if args.number not in drivers:
        raise SystemExit(f"figure must be one of {sorted(drivers)}")
    series = drivers[args.number]()
    print(
        format_series(
            series.series,
            series.x_labels,
            x_name=series.x_name,
            value_name=series.value_name,
            title=f"{series.name} — {args.dataset} @ scale {args.scale}",
        )
    )


def _run_datasets(args: argparse.Namespace) -> None:
    print(dataset_report(generate_dblp(scale=args.scale), "DBLP (Table 3 shape)"))
    print()
    print(
        dataset_report(
            generate_movielens(scale=args.scale), "MovieLens (Table 4 shape)"
        )
    )


def _run_evolution(args: argparse.Namespace) -> None:
    graph = _load("dblp", args.scale)
    years = graph.timeline.labels
    half = len(years) // 2
    first_decade, mid = years[:half], years[half]
    report = evolution_report(
        graph,
        first_decade,
        [mid],
        ["gender"],
        min_publications=args.min_publications,
    )
    print(report.text)
    second_decade, last = years[half : len(years) - 1], years[-1]
    report = evolution_report(
        graph,
        second_decade,
        [last],
        ["gender"],
        min_publications=args.min_publications,
    )
    print()
    print(report.text)


def _run_explore(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    cases = [
        (EventType.STABILITY, Goal.MAXIMAL, ExtendSide.NEW, "max", (1.0, 0.5, 0.05)),
        (EventType.GROWTH, Goal.MINIMAL, ExtendSide.NEW, "max", (1.0, 0.5, 0.1)),
        (EventType.SHRINKAGE, Goal.MINIMAL, ExtendSide.OLD, "min", (1.0, 2.0, 5.0)),
    ]
    for event, goal, extend, mode, factors in cases:
        w_th = suggest_threshold(
            graph, event, mode=mode, attributes=["gender"], key=_FF_KEY
        )
        ladder = sorted(set(threshold_ladder(w_th, factors)))
        report = exploration_report(
            graph,
            event,
            goal,
            extend,
            ladder,
            attributes=["gender"],
            key=_FF_KEY,
            title=(
                f"{event}/{goal} for female-female edges "
                f"(w_th={w_th}) — {args.dataset}"
            ),
        )
        print(report.text)
        print()


def _run_groups(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    result = explore_groups(
        graph,
        EventType(args.event),
        Goal(args.goal),
        ExtendSide(args.extend),
        args.k,
        attributes=["gender"],
    )
    print(
        f"{args.event}/{args.goal} group sweep on gender pairs, k={args.k} "
        f"({result.evaluations} chain evaluations):"
    )
    for key in result.interesting_groups:
        best = result.best_pair(key)
        print(f"  {key}: best pair {best}")
    if not result.interesting_groups:
        print("  no group reaches the threshold")


def _run_zoom(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    hierarchy = TimeHierarchy.regular(graph.timeline.labels, width=args.width)
    for semantics in ("union", "intersection"):
        coarse = coarsen(graph, hierarchy, semantics)
        print(
            dataset_report(
                coarse, f"{args.dataset} zoomed out x{args.width} ({semantics})"
            )
        )
        print()


def _run_olap(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    dims = list(graph.attribute_names)
    selection = greedy_view_selection(graph, dims, budget=args.budget)
    print(f"greedy view selection (budget {args.budget}) over {dims}:")
    for view in selection.selected:
        print(f"  materialize {view}")
    cube = TemporalGraphCube(graph)
    for view in selection.selected:
        cube.materialize(view, distinct=False)
    for attr in dims[:2]:
        cube.cuboid([attr], distinct=False)
    print(f"cube stats after sample queries: {cube.stats}")


def _run_metrics(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    labels = graph.timeline.labels
    half = len(labels) // 2
    agg = aggregate(union(graph, labels), ["gender"], distinct=False)
    evo = aggregate_evolution(graph, labels[:half], labels[half:], ["gender"])
    print(f"gender homophily over the full window: {homophily(agg):.3f}")
    print(f"edge turnover between halves: {turnover(evo):.3f}")
    print(
        "edge stability ratio between halves: "
        f"{stability_ratio(graph, labels[:half], labels[half:]):.3f}"
    )
    print("densification (edges per node):")
    for time, value in densification(graph):
        print(f"  {time}: {value:.2f}")


def _run_dot(args: argparse.Namespace) -> None:
    graph = _load(args.dataset, args.scale)
    labels = graph.timeline.labels
    agg = aggregate(
        union(graph, labels[: len(labels) // 2]), ["gender"], distinct=True
    )
    evo = aggregate_evolution(graph, [labels[0]], [labels[1]], ["gender"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    agg_path = write_dot(aggregate_to_dot(agg), out / "aggregate.dot")
    evo_path = write_dot(evolution_to_dot(evo), out / "evolution.dot")
    print(f"wrote {agg_path} and {evo_path}")


def _run_timeseries(args: argparse.Namespace) -> None:
    from .analysis import event_series, largest_shift, zscore_anomalies
    from .exploration import EventType as _EventType

    graph = _load(args.dataset, args.scale)
    for event in _EventType:
        series = event_series(
            graph, event, attributes=["gender"], key=_FF_KEY
        )
        print(f"--- {event} of female-female edges ---")
        print(series.to_table())
        if len(series) >= 2:
            index, delta = largest_shift(series)
            old, new = series.steps[index]
            print(f"largest shift: {delta:+d} at {old} -> {new}")
        anomalies = zscore_anomalies(series, threshold=args.threshold)
        for i, z in anomalies:
            old, new = series.steps[i]
            print(f"anomaly: {old} -> {new} (z = {z:+.2f})")
        print()


def _run_fuzz(args: argparse.Namespace) -> None:
    from .errors import ConfigurationError
    from .testing import law_registry, run_fuzz

    registry = law_registry()
    if args.list_laws:
        for law in registry.values():
            hostility = "" if law.hostile_safe else "  [skipped on hostile graphs]"
            print(f"{law.name}: {law.description}{hostility}")
        return
    try:
        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            laws=args.laws or None,
            out_dir=args.out,
            shrink=not args.no_shrink,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from exc
    print(report.summary())
    for failure in report.failures:
        print(f"  {failure}")
    if not report.ok:
        raise SystemExit(1)


def _run_stream(args: argparse.Namespace) -> None:
    import time

    from .core.updates import split_history
    from .materialize.streaming import AggregateTotalsView
    from .streaming import EvolutionView, StreamingStore
    from .testing import graph_to_maps

    graph = _load(args.dataset, args.scale)
    attrs = _attribute_sets(args.dataset)[0]
    initial, updates = split_history(graph)
    totals = AggregateTotalsView([tuple(attrs)])
    overlay = EvolutionView(attrs, old_times=initial.timeline.labels)
    store = StreamingStore(initial, views=[totals, overlay])
    start = time.perf_counter()
    for update in updates:
        store.append_snapshot(update)
    elapsed = time.perf_counter() - start
    rate = len(updates) / elapsed if elapsed else float("inf")
    print(
        f"streamed {args.dataset} @ scale {args.scale}: "
        f"{len(updates)} appends in {elapsed:.3f}s ({rate:.1f} appends/s), "
        f"final version {store.version}"
    )
    if graph_to_maps(store.graph) != graph_to_maps(graph):
        raise SystemExit("replayed graph differs from the original history")
    direct = aggregate(graph, attrs, distinct=False)
    totals_agg = totals.union_total(attrs)
    if dict(totals_agg.node_weights) != dict(direct.node_weights):
        raise SystemExit("maintained totals differ from a from-scratch aggregate")
    evo = overlay.current()
    print(
        f"replay identity holds; {attrs} totals match from-scratch "
        f"({len(totals_agg.node_weights)} groups); evolution overlay spans "
        f"{len(evo.old_times)} old + {len(evo.new_times)} appended points"
    )


def _run_serve(args: argparse.Namespace) -> None:
    from .obs.metrics import get_metrics
    from .serving import QueryServer, mixed_queries, run_workload

    graph = _load(args.dataset, args.scale)
    attrs = [name for group in _attribute_sets(args.dataset) for name in group]
    queries = mixed_queries(graph, list(dict.fromkeys(attrs)))
    capacity = 0 if args.no_cache else args.cache
    with QueryServer(graph, cache_capacity=capacity) as server:
        report = run_workload(
            server.serve, queries, requests=args.requests, threads=args.threads
        )
    cache_note = "cache off" if capacity == 0 else f"cache {capacity}"
    print(
        f"served {args.dataset} @ scale {args.scale} ({cache_note}, "
        f"{len(queries)} distinct queries): {report.describe()}"
    )
    counters = get_metrics().snapshot()["counters"]
    for name in sorted(counters):
        if name.startswith("serving."):
            print(f"  {name}: {counters[name]}")


def _run_check(args: argparse.Namespace) -> None:
    from .diagnostics import check_graph, format_findings

    graph = _load(args.dataset, args.scale)
    print(format_findings(check_graph(graph)))


def _run_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    return lint_main(args.lint_args)


def _run_profile(args: argparse.Namespace) -> None:
    from .obs import render_metrics, render_span_tree, to_json
    from .obs.profile import run_profile

    report = run_profile(args.dataset, args.workload, scale=args.scale)
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(to_json(report.to_dict()) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        return
    print(f"profile {args.workload} on {args.dataset} @ scale {args.scale}")
    for name, value in report.summary.items():
        print(f"  {name}: {value}")
    print()
    print(render_span_tree(report.trace))
    print()
    print(render_metrics(report.metrics))


def _run_query(args: argparse.Namespace) -> None:
    from .query import run_query

    graph = _load(args.dataset, args.scale)
    result = run_query(graph, args.text)
    if hasattr(result, "to_tables"):
        nodes, edges = result.to_tables()
        print("Aggregate nodes:")
        print(nodes.to_string(max_rows=args.rows))
        print("Aggregate edges:")
        print(edges.to_string(max_rows=args.rows))
    else:
        print(result)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphTempo reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print Tables 3/4 size reports")
    datasets.add_argument("--scale", type=float, default=0.05)
    datasets.set_defaults(func=_run_datasets)

    figure = sub.add_parser("figure", help="regenerate a performance figure (5-11)")
    figure.add_argument("number", type=int)
    figure.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    figure.add_argument("--scale", type=float, default=0.05)
    figure.add_argument("--repeats", type=int, default=1)
    figure.add_argument("--split", action="store_true",
                        help="report operator and aggregation times separately")
    figure.set_defaults(func=_run_figure)

    evolution = sub.add_parser("evolution", help="Figure 12 evolution report")
    evolution.add_argument("--scale", type=float, default=0.05)
    evolution.add_argument("--min-publications", type=int, default=4)
    evolution.set_defaults(func=_run_evolution)

    explore_cmd = sub.add_parser("explore", help="Figures 13/14 exploration reports")
    explore_cmd.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    explore_cmd.add_argument("--scale", type=float, default=0.05)
    explore_cmd.set_defaults(func=_run_explore)

    groups = sub.add_parser(
        "groups", help="sweep all attribute groups for interesting intervals"
    )
    groups.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    groups.add_argument("--scale", type=float, default=0.05)
    groups.add_argument("--event", choices=[e.value for e in EventType],
                        default="growth")
    groups.add_argument("--goal", choices=[g.value for g in Goal],
                        default="minimal")
    groups.add_argument("--extend", choices=[e.value for e in ExtendSide],
                        default="new")
    groups.add_argument("-k", type=int, default=10)
    groups.set_defaults(func=_run_groups)

    zoom = sub.add_parser("zoom", help="coarsen the timeline (union/intersection)")
    zoom.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    zoom.add_argument("--scale", type=float, default=0.05)
    zoom.add_argument("--width", type=int, default=5)
    zoom.set_defaults(func=_run_zoom)

    olap = sub.add_parser("olap", help="greedy view selection + cube demo")
    olap.add_argument("--dataset", choices=["dblp", "movielens"], default="movielens")
    olap.add_argument("--scale", type=float, default=0.05)
    olap.add_argument("--budget", type=int, default=4)
    olap.set_defaults(func=_run_olap)

    metrics = sub.add_parser("metrics", help="homophily/turnover/stability report")
    metrics.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    metrics.add_argument("--scale", type=float, default=0.05)
    metrics.set_defaults(func=_run_metrics)

    dot = sub.add_parser("dot", help="export aggregate/evolution graphs as DOT")
    dot.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    dot.add_argument("--scale", type=float, default=0.05)
    dot.add_argument("--out", default="dot_out")
    dot.set_defaults(func=_run_dot)

    profile = sub.add_parser(
        "profile", help="run a workload under tracing and report span tree + metrics"
    )
    profile.add_argument("dataset", choices=["dblp", "movielens", "example"])
    profile.add_argument(
        "workload", choices=["aggregate", "explore", "session", "serve"]
    )
    profile.add_argument("--scale", type=float, default=0.05)
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write the report as JSON instead of text")
    profile.set_defaults(func=_run_profile)

    query = sub.add_parser("query", help="run a query-language statement")
    query.add_argument("text")
    query.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    query.add_argument("--scale", type=float, default=0.05)
    query.add_argument("--rows", type=int, default=12)
    query.set_defaults(func=_run_query)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential/metamorphic fuzzing of the temporal algebra",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--cases", type=int, default=100)
    fuzz.add_argument("--laws", nargs="*", default=None, metavar="LAW",
                      help="law names to run (default: all registered laws)")
    fuzz.add_argument("--out", default=None, metavar="DIR",
                      help="directory for shrunk-counterexample reproducers")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report raw counterexamples without shrinking")
    fuzz.add_argument("--list-laws", action="store_true",
                      help="list registered laws and exit")
    fuzz.set_defaults(func=_run_fuzz)

    stream = sub.add_parser(
        "stream",
        help="replay a dataset's history through the streaming store",
    )
    stream.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    stream.add_argument("--scale", type=float, default=0.05)
    stream.set_defaults(func=_run_stream)

    serve = sub.add_parser(
        "serve",
        help="drive the concurrent query server with a mixed workload",
    )
    serve.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--requests", type=int, default=400)
    serve.add_argument("--threads", type=int, default=4)
    serve.add_argument("--cache", type=int, default=512,
                       help="result-cache capacity (entries)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.set_defaults(func=_run_serve)

    check = sub.add_parser("check", help="run graph consistency diagnostics")
    check.add_argument("--dataset", choices=["dblp", "movielens"], default="dblp")
    check.add_argument("--scale", type=float, default=0.05)
    check.set_defaults(func=_run_check)

    lint = sub.add_parser(
        "lint",
        help="run the GraphTempo invariant linter (GT001-GT012)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to python -m repro.lint")
    lint.set_defaults(func=_run_lint)

    timeseries = sub.add_parser(
        "timeseries", help="event time series with shift/anomaly detection"
    )
    timeseries.add_argument("--dataset", choices=["dblp", "movielens"],
                            default="movielens")
    timeseries.add_argument("--scale", type=float, default=0.05)
    timeseries.add_argument("--threshold", type=float, default=1.5)
    timeseries.set_defaults(func=_run_timeseries)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    arglist = list(sys.argv[1:] if argv is None else argv)
    if arglist and arglist[0] == "lint":
        # Forwarded verbatim: argparse.REMAINDER mis-parses leading
        # option flags (--select, --format) against the outer parser.
        from .lint.cli import main as lint_main

        return lint_main(arglist[1:])
    parser = build_parser()
    args = parser.parse_args(arglist)
    code = args.func(args)
    return code if isinstance(code, int) else 0
