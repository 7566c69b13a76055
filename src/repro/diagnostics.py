"""Consistency diagnostics for temporal attributed graphs.

Graphs built by the library's generators satisfy every invariant by
construction, but graphs loaded from CSV (:func:`repro.datasets.load_graph`)
or converted from external snapshots skip validation for speed.  This
module audits a graph and reports findings at three severities:

* ``error`` — the graph violates a model invariant (operators may
  silently return wrong results): dangling edges, edges active while an
  endpoint is absent, attribute values on absent appearances;
* ``warning`` — legal but suspicious: empty time points, never-present
  entities, missing attribute values on present appearances, self loops;
* ``info`` — descriptive statistics: attribute domain sizes, density.

``check_graph`` returns structured findings; ``format_findings`` renders
them for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TemporalGraph
from .errors import ValidationError

__all__ = ["Finding", "check_graph", "format_findings"]

_SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnostic result."""

    severity: str  # error | warning | info
    code: str      # stable machine-readable identifier
    message: str

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ValidationError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


def _sample(items: list, limit: int = 3) -> str:
    shown = ", ".join(repr(i) for i in items[:limit])
    if len(items) > limit:
        shown += f", ... ({len(items) - limit} more)"
    return shown


def check_graph(graph: TemporalGraph) -> list[Finding]:
    """Audit one graph; returns findings ordered errors-first."""
    errors: list[Finding] = []
    warnings: list[Finding] = []
    infos: list[Finding] = []

    node_values = graph.node_presence.values.astype(bool)
    edge_values = graph.edge_presence.values.astype(bool)
    edges = graph.edge_presence.row_labels

    # --- errors ---------------------------------------------------------
    # The dangling scan reads the storage backend's endpoint rows, so it
    # audits whichever physical layout the graph uses and the finding
    # names that backend.
    backend = graph.storage
    src, dst = backend.endpoint_rows()
    resolved = (src >= 0) & (dst >= 0)
    dangling = [edges[row] for row in np.flatnonzero(~resolved)]
    if dangling:
        errors.append(
            Finding(
                "error",
                "dangling-edge",
                f"edges reference unknown nodes (storage backend "
                f"{backend.name!r}): {_sample(dangling)}",
            )
        )

    rows = np.flatnonzero(resolved)
    orphaned = edge_values[rows] & ~(node_values[src[rows]] & node_values[dst[rows]])
    orphaned_activity = [edges[row] for row in rows[orphaned.any(axis=1)]]
    if orphaned_activity:
        errors.append(
            Finding(
                "error",
                "edge-without-endpoints",
                "edges active at times an endpoint is absent: "
                f"{_sample(orphaned_activity)}",
            )
        )

    for name, frame in graph.varying_attrs.items():
        values = frame.values
        has_value = np.frompyfunc(lambda v: v is not None, 1, 1)(values).astype(bool)
        ghost_rows = [
            node
            for node, row in zip(frame.row_labels, has_value & ~node_values)
            if row.any()
        ]
        if ghost_rows:
            errors.append(
                Finding(
                    "error",
                    "value-on-absent-appearance",
                    f"attribute {name!r} has values where nodes are absent: "
                    f"{_sample(ghost_rows)}",
                )
            )
        holes = [
            node
            for node, row in zip(frame.row_labels, node_values & ~has_value)
            if row.any()
        ]
        if holes:
            warnings.append(
                Finding(
                    "warning",
                    "missing-attribute-value",
                    f"attribute {name!r} is missing on present appearances: "
                    f"{_sample(holes)}",
                )
            )

    # --- warnings --------------------------------------------------------
    empty_times = [
        t for t in graph.timeline.labels if graph.n_nodes_at(t) == 0
    ]
    if empty_times:
        warnings.append(
            Finding(
                "warning",
                "empty-time-point",
                f"time points with no nodes: {_sample(empty_times)}",
            )
        )
    ghost_nodes = [
        n for n, row in zip(graph.node_presence.row_labels, node_values)
        if not row.any()
    ]
    if ghost_nodes:
        warnings.append(
            Finding(
                "warning",
                "never-present-node",
                f"nodes never present at any time: {_sample(ghost_nodes)}",
            )
        )
    ghost_edges = [
        e for e, row in zip(graph.edge_presence.row_labels, edge_values)
        if not row.any()
    ]
    if ghost_edges:
        warnings.append(
            Finding(
                "warning",
                "never-present-edge",
                f"edges never present at any time: {_sample(ghost_edges)}",
            )
        )
    self_loops = [
        e
        for e in graph.edge_presence.row_labels
        if isinstance(e, tuple) and len(e) == 2 and e[0] == e[1]
    ]
    if self_loops:
        warnings.append(
            Finding(
                "warning",
                "self-loop",
                f"self loops present: {_sample(self_loops)}",
            )
        )
    missing_static = [
        (node, name)
        for name in graph.static_attribute_names
        for node, value in zip(
            graph.static_attrs.row_labels, graph.static_attrs.column(name)
        )
        if value is None
    ]
    if missing_static:
        warnings.append(
            Finding(
                "warning",
                "missing-static-value",
                f"static attribute values missing: {_sample(missing_static)}",
            )
        )

    # --- info -------------------------------------------------------------
    for name in graph.static_attribute_names:
        domain = {
            v for v in graph.static_attrs.column(name) if v is not None
        }
        infos.append(
            Finding(
                "info",
                "attribute-domain",
                f"static attribute {name!r} has {len(domain)} distinct values",
            )
        )
    for name, frame in graph.varying_attrs.items():
        domain = {v for v in frame.values.ravel() if v is not None}
        infos.append(
            Finding(
                "info",
                "attribute-domain",
                f"time-varying attribute {name!r} has {len(domain)} distinct values",
            )
        )
    appearances = int(node_values.sum())
    edge_appearances = int(edge_values.sum())
    infos.append(
        Finding(
            "info",
            "size",
            f"{graph.n_nodes} nodes / {graph.n_edges} edges over "
            f"{len(graph.timeline)} time points; {appearances} node and "
            f"{edge_appearances} edge appearances",
        )
    )
    return errors + warnings + infos


def format_findings(findings: list[Finding]) -> str:
    """Render findings, one per line, errors first."""
    if not findings:
        return "no findings"
    return "\n".join(str(f) for f in findings)
