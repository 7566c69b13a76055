"""A configurable evolving-graph generator.

Both evaluation datasets of the paper are, for reproduction purposes,
evolving directed graphs with controlled per-time node/edge counts,
node survival between consecutive time points, edge repetition (the
source of stability events) and attribute schemas.  This module provides
that engine; :mod:`repro.datasets.dblp` and :mod:`repro.datasets.movielens`
instantiate it with the paper's Table 3 / Table 4 calibrations.

Everything is driven by a seeded :class:`numpy.random.Generator`, so a
given configuration always produces the same graph.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import TemporalGraph, Timeline
from ..frames import LabeledFrame
from ..errors import DatasetError

__all__ = [
    "StaticAttributeSpec",
    "VaryingAttributeSpec",
    "EvolvingGraphConfig",
    "generate_evolving_graph",
    "hash_uniform",
]


def hash_uniform(node_ids: np.ndarray) -> np.ndarray:
    """A deterministic per-node uniform value in [0, 1).

    Knuth multiplicative hash of the integer node id.  Attribute
    samplers and the survival model share this value, so "persistent"
    node traits (a productive author, a loyal user) line up with
    persistent membership — the correlation the paper's Fig. 12
    stability percentages rely on.
    """
    hashed = (np.asarray(node_ids, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(
        2**32
    )
    return hashed.astype(np.float64) / 2**32


@dataclass(frozen=True)
class StaticAttributeSpec:
    """A static node attribute drawn once per node.

    ``values`` are the attribute's domain; ``probabilities`` (optional)
    weight the draw and must sum to 1.
    """

    name: str
    values: tuple[Any, ...]
    probabilities: tuple[float, ...] | None = None

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = rng.choice(
            np.array(self.values, dtype=object), size=count, p=self.probabilities
        )
        return np.asarray(out, dtype=object)


@dataclass(frozen=True)
class VaryingAttributeSpec:
    """A time-varying node attribute drawn per (node, time) appearance.

    ``sampler(rng, node_ids, time_index)`` returns one value per id in
    ``node_ids`` (the nodes active at that time point).  Receiving the
    ids lets samplers give nodes *persistent* traits (e.g. consistently
    productive authors, which the paper's Fig. 12 stability percentages
    depend on); receiving the time index lets the domain vary per time
    point (DBLP's publications attribute has 7-18 distinct values per
    year, which drives the Fig. 5 aggregation-cost differences).
    """

    name: str
    sampler: Callable[[np.random.Generator, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class EvolvingGraphConfig:
    """Full recipe for one evolving graph.

    Parameters
    ----------
    times:
        Ordered time-point labels.
    node_targets / edge_targets:
        Desired number of active nodes / edges at each time point (same
        length as ``times``).
    node_survival:
        Fraction of the previous time point's active nodes that stay
        active (stability of nodes).
    node_return:
        Fraction of currently-inactive *previously seen* nodes eligible
        to return instead of minting new node ids.
    edge_repeat:
        Fraction of a time point's edges re-drawn from the previous time
        point's edges whose endpoints are still active (stability of
        edges); the rest are fresh random pairs.
    persistence:
        Strength of the correlation between a node's hash trait
        (:func:`hash_uniform`) and its survival.  0 means survival is
        uniform; larger values make the same nodes survive time point
        after time point.
    edge_persistence:
        Strength of the per-edge repeat bias.  0 picks repeated edges
        uniformly from the previous time point; larger values
        concentrate repetition on a hash-stable subset, producing the
        heavy tail of long-lived edges real collaboration networks show
        (the paper's Fig. 7 sweep relies on a common edge surviving 18
        DBLP years).
    edge_scale_exponent:
        How edge targets scale when :meth:`scaled` shrinks the graph:
        ``m' = m * scale**exponent``.  1.0 (default) scales linearly —
        right for sparse graphs whose degree is roughly constant; 2.0
        preserves *density* — right for dense co-occurrence graphs like
        the MovieLens co-rating network (~40% of all ordered pairs),
        where linear scaling would saturate into a complete graph.
    static_attrs / varying_attrs:
        Attribute schemas.
    seed:
        RNG seed; two runs with equal configs are identical.
    """

    times: tuple[Hashable, ...]
    node_targets: tuple[int, ...]
    edge_targets: tuple[int, ...]
    node_survival: float = 0.7
    node_return: float = 0.1
    edge_repeat: float = 0.3
    persistence: float = 0.0
    edge_persistence: float = 0.0
    edge_scale_exponent: float = 1.0
    static_attrs: tuple[StaticAttributeSpec, ...] = ()
    varying_attrs: tuple[VaryingAttributeSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.node_targets) != len(self.times):
            raise DatasetError("node_targets must match times in length")
        if len(self.edge_targets) != len(self.times):
            raise DatasetError("edge_targets must match times in length")
        if not 0.0 <= self.node_survival <= 1.0:
            raise DatasetError("node_survival must be in [0, 1]")
        if not 0.0 <= self.edge_repeat <= 1.0:
            raise DatasetError("edge_repeat must be in [0, 1]")
        for count in self.node_targets:
            if count < 1:
                raise DatasetError("every time point needs at least one node")

    def scaled(self, scale: float) -> "EvolvingGraphConfig":
        """The same recipe with node/edge targets multiplied by ``scale``.

        Used to run the full benchmark suite on laptop-friendly fractions
        of the paper's dataset sizes while preserving every structural
        ratio (survival, repetition, attribute domains).
        """
        if scale <= 0:
            raise DatasetError("scale must be positive")
        node_targets = tuple(max(2, round(n * scale)) for n in self.node_targets)
        edge_targets = tuple(
            max(1, round(m * scale**self.edge_scale_exponent))
            for m in self.edge_targets
        )
        return EvolvingGraphConfig(
            times=self.times,
            node_targets=node_targets,
            edge_targets=edge_targets,
            node_survival=self.node_survival,
            node_return=self.node_return,
            edge_repeat=self.edge_repeat,
            persistence=self.persistence,
            edge_persistence=self.edge_persistence,
            edge_scale_exponent=self.edge_scale_exponent,
            static_attrs=self.static_attrs,
            varying_attrs=self.varying_attrs,
            seed=self.seed,
        )


def _sample_active_sets(
    config: EvolvingGraphConfig, rng: np.random.Generator
) -> tuple[list[np.ndarray], int]:
    """Choose the active node-id set per time point.

    Returns the per-time active id arrays and the total id count.  Ids
    are dense integers assigned in first-appearance order.
    """
    next_id = 0
    active_sets: list[np.ndarray] = []
    previous: np.ndarray | None = None
    retired: list[int] = []
    for target in config.node_targets:
        members: list[int] = []
        if previous is not None and len(previous):
            survivor_count = min(target, round(config.node_survival * len(previous)))
            if config.persistence > 0:
                weights = np.exp(config.persistence * hash_uniform(previous))
                probabilities = weights / weights.sum()
            else:
                probabilities = None
            survivors = rng.choice(
                previous, size=survivor_count, replace=False, p=probabilities
            )
            members.extend(int(n) for n in survivors)
            gone = set(int(n) for n in previous) - set(members)
            retired.extend(gone)
        shortfall = target - len(members)
        if shortfall > 0 and retired and config.node_return > 0:
            return_count = min(
                shortfall, round(config.node_return * len(retired))
            )
            if return_count:
                returners = rng.choice(
                    np.array(sorted(set(retired))), size=return_count, replace=False
                )
                returned = {int(n) for n in returners}
                members.extend(int(n) for n in returners)
                retired = [n for n in retired if n not in returned]
                shortfall = target - len(members)
        if shortfall > 0:
            members.extend(range(next_id, next_id + shortfall))
            next_id += shortfall
        current = np.array(sorted(set(members)), dtype=np.int64)
        active_sets.append(current)
        previous = current
    return active_sets, next_id


def _sample_edges(
    config: EvolvingGraphConfig,
    rng: np.random.Generator,
    active_sets: Sequence[np.ndarray],
) -> dict[tuple[int, int], set[int]]:
    """Choose directed edges per time point with controlled repetition.

    Returns ``edge -> set of time indices``.  Within one time point each
    ordered pair occurs at most once (the datasets "do not contain
    multiple edges in the unit of time").
    """
    presence: dict[tuple[int, int], set[int]] = {}
    previous_edges: list[tuple[int, int]] = []
    for t_index, (target, active) in enumerate(zip(config.edge_targets, active_sets)):
        chosen: set[tuple[int, int]] = set()
        active_set = set(int(n) for n in active)
        if previous_edges and config.edge_repeat > 0:
            eligible = [
                e for e in previous_edges if e[0] in active_set and e[1] in active_set
            ]
            repeat_count = min(len(eligible), round(config.edge_repeat * target))
            if repeat_count:
                if config.edge_persistence > 0:
                    pair_codes = np.array(
                        [u * 1_000_003 + v for u, v in eligible], dtype=np.int64
                    )
                    sources = np.array([u for u, _ in eligible], dtype=np.int64)
                    targets = np.array([v for _, v in eligible], dtype=np.int64)
                    # A long-lived edge needs both endpoints to be
                    # long-lived nodes: blend the edge's own hash trait
                    # with the weaker endpoint's survival trait so the
                    # persistent-edge set sits inside the persistent-node
                    # population.
                    endpoint_trait = np.minimum(
                        hash_uniform(sources), hash_uniform(targets)
                    )
                    trait = 0.5 * hash_uniform(pair_codes) + 0.5 * endpoint_trait
                    weights = np.exp(config.edge_persistence * trait)
                    probabilities = weights / weights.sum()
                else:
                    probabilities = None
                picks = rng.choice(
                    len(eligible), size=repeat_count, replace=False, p=probabilities
                )
                for p in picks:
                    chosen.add(eligible[int(p)])
        max_edges = len(active) * (len(active) - 1)
        target = min(target, max_edges)
        # Fresh pairs: draw in vectorized batches, reject self loops and
        # duplicates, until the target is met.
        while len(chosen) < target:
            needed = target - len(chosen)
            batch = max(64, int(needed * 1.3))
            sources = rng.choice(active, size=batch)
            targets = rng.choice(active, size=batch)
            for u, v in zip(sources.tolist(), targets.tolist()):
                if u == v:
                    continue
                pair = (int(u), int(v))
                if pair in chosen:
                    continue
                chosen.add(pair)
                if len(chosen) >= target:
                    break
        for pair in chosen:
            presence.setdefault(pair, set()).add(t_index)
        previous_edges = list(chosen)
    return presence


def generate_evolving_graph(config: EvolvingGraphConfig) -> TemporalGraph:
    """Generate a temporal attributed graph from a recipe.

    The output satisfies every :class:`~repro.core.graph.TemporalGraph`
    invariant by construction (edges only ever connect simultaneously
    active nodes), so validation is skipped for speed.
    """
    rng = np.random.default_rng(config.seed)
    active_sets, n_nodes = _sample_active_sets(config, rng)
    times = config.times
    n_times = len(times)

    node_values = np.zeros((n_nodes, n_times), dtype=np.uint8)
    for t_index, active in enumerate(active_sets):
        node_values[active, t_index] = 1
    node_ids = tuple(range(n_nodes))
    node_presence = LabeledFrame(node_ids, times, node_values)

    static_names = tuple(spec.name for spec in config.static_attrs)
    static_values = np.empty((n_nodes, len(static_names)), dtype=object)
    for col, spec in enumerate(config.static_attrs):
        static_values[:, col] = spec.sample(rng, n_nodes)
    static_attrs = LabeledFrame(node_ids, static_names, static_values)

    varying_attrs: dict[str, LabeledFrame] = {}
    for spec in config.varying_attrs:
        values = np.full((n_nodes, n_times), None, dtype=object)
        for t_index, active in enumerate(active_sets):
            drawn = spec.sampler(rng, active, t_index)
            values[active, t_index] = np.asarray(drawn, dtype=object)
        varying_attrs[spec.name] = LabeledFrame(node_ids, times, values)

    edge_presence_map = _sample_edges(config, rng, active_sets)
    edge_ids = tuple(sorted(edge_presence_map))
    edge_values = np.zeros((len(edge_ids), n_times), dtype=np.uint8)
    for row, edge in enumerate(edge_ids):
        for t_index in edge_presence_map[edge]:
            edge_values[row, t_index] = 1
    edge_presence = LabeledFrame(edge_ids, times, edge_values)

    return TemporalGraph(
        timeline=Timeline(times),
        node_presence=node_presence,
        edge_presence=edge_presence,
        static_attrs=static_attrs,
        varying_attrs=varying_attrs,
        validate=False,
    )
