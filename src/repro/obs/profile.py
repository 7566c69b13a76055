"""Profile workloads: run a named pipeline under tracing and collect
the span tree + metric snapshot as one report.

This is the engine behind ``repro profile <dataset> <workload>``.  Each
workload is a small, representative pipeline (operator → aggregate →
explore) run with a fresh enabled tracer and a fresh metrics registry
installed process-wide, so the report isolates exactly what the workload
did.  The previous tracer/registry are restored afterwards.

Unlike the rest of :mod:`repro.obs`, this module imports the upper
layers (datasets, session); import it directly
(``from repro.obs.profile import run_profile``) rather than through the
package root, which must stay importable from the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from ..parallel import parallelism_scope
from .export import observability_snapshot
from .metrics import MetricsRegistry, set_metrics
from .trace import Span, Tracer, set_tracer

__all__ = ["ProfileReport", "run_profile", "WORKLOADS", "DATASETS"]

#: Workload names accepted by :func:`run_profile` / ``repro profile``.
WORKLOADS = ("aggregate", "explore", "session", "serve")
#: Dataset names accepted by :func:`run_profile` / ``repro profile``.
DATASETS = ("dblp", "movielens", "example")


@dataclass(frozen=True)
class ProfileReport:
    """One profiled workload run: its trace, metrics, and summary."""

    dataset: str
    workload: str
    scale: float
    trace: Span | None
    metrics: dict[str, Any]
    summary: dict[str, Any]
    workers: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """The JSON artifact shape benchmarks and CI attach."""
        payload: dict[str, Any] = {
            "dataset": self.dataset,
            "workload": self.workload,
            "scale": self.scale,
            "workers": self.workers,
            "summary": dict(self.summary),
        }
        payload.update(
            {
                "trace": None if self.trace is None else self.trace.to_dict(),
                "metrics": dict(self.metrics),
            }
        )
        return payload


def _load_graph(dataset: str, scale: float) -> Any:
    from ..datasets import generate_dblp, generate_movielens, paper_example

    if dataset == "dblp":
        return generate_dblp(scale=scale)
    if dataset == "movielens":
        return generate_movielens(scale=scale)
    if dataset == "example":
        return paper_example()
    raise ConfigurationError(
        f"unknown profile dataset {dataset!r}; choose one of {DATASETS!r}"
    )


def _run_workload(workload: str, graph: Any, tracer: Tracer) -> dict[str, Any]:
    from ..core import aggregate, union
    from ..session import GraphTempoSession
    from ..testing.reference import aggregate_reference

    labels = graph.timeline.labels
    session = GraphTempoSession(graph)
    summary: dict[str, Any] = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "n_times": len(labels),
    }
    attributes = ["gender"] if "gender" in graph.attribute_names else [
        graph.attribute_names[0]
    ]
    with tracer.span(f"profile.{workload}"):
        if workload in ("aggregate", "session"):
            window = union(graph, labels)
            dist = aggregate(window, attributes, distinct=True)
            all_agg = aggregate(window, attributes, distinct=False)
            reference = aggregate_reference(window, attributes, distinct=False)
            summary["aggregate_nodes_dist"] = dist.n_aggregate_nodes
            summary["aggregate_nodes_all"] = all_agg.n_aggregate_nodes
            summary["aggregate_engines_agree"] = not all_agg.diff(reference)
        if workload in ("explore", "session"):
            result = session.explore("growth", "minimal", "new")
            summary["explore_pairs"] = len(result.pairs)
            summary["explore_evaluations"] = result.evaluations
            stability = session.explore("stability", "maximal", "new")
            summary["stability_pairs"] = len(stability.pairs)
            summary["stability_evaluations"] = stability.evaluations
        if workload == "serve":
            from ..serving import QueryServer, mixed_queries, run_workload

            queries = mixed_queries(graph, attributes)
            # One driver thread: the profile tracer is single-threaded
            # by design; `repro serve` is the concurrent driver.
            with QueryServer(graph) as server:
                report = run_workload(
                    server.serve, queries, requests=4 * len(queries), threads=1
                )
            summary["serve_requests"] = report.requests
            summary["serve_threads"] = report.threads
            summary["serve_qps"] = round(report.qps, 1)
            summary["serve_p99_ms"] = round(report.p99_ms, 3)
    return summary


def run_profile(
    dataset: str,
    workload: str,
    scale: float = 0.05,
    workers: int | str | None = None,
) -> ProfileReport:
    """Profile one workload over one dataset.

    Installs a fresh enabled tracer and a fresh metrics registry for the
    duration of the run (restoring the previous ones afterwards), so the
    returned report covers exactly this workload.  ``workers`` runs the
    workload inside a :func:`repro.parallel.parallelism_scope`, so the
    trace shows the pool's re-parented chunk spans (``repro profile
    --workers N``); results are identical at any worker count.
    """
    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown profile workload {workload!r}; choose one of {WORKLOADS!r}"
        )
    graph = _load_graph(dataset, scale)
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    previous_tracer = set_tracer(tracer)
    previous_metrics = set_metrics(registry)
    try:
        with parallelism_scope(workers) as resolved_workers:
            summary = _run_workload(workload, graph, tracer)
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
    snapshot = observability_snapshot(tracer.last_root, registry)
    return ProfileReport(
        dataset=dataset,
        workload=workload,
        scale=scale,
        trace=tracer.last_root,
        metrics=snapshot["metrics"],
        summary=summary,
        workers=resolved_workers,
    )
