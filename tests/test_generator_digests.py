"""The dataset generators stay bit-identical.

Each digest covers a generated graph's time, node and edge labels, its
presence matrices and its static and time-varying attribute values.
They were recorded before the returners filter of
``datasets/synthetic.py`` stopped rebuilding its set once per retired
node, so a faster generator that draws a different graph fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    EvolvingGraphConfig,
    StaticAttributeSpec,
    VaryingAttributeSpec,
    generate_dblp,
    generate_evolving_graph,
    generate_movielens,
)


def graph_digest(graph):
    digest = hashlib.sha256()
    for part in (
        graph.timeline.labels,
        graph.nodes,
        graph.edges,
        graph.static_attrs.col_labels,
        tuple(graph.varying_attrs),
    ):
        digest.update(repr(part).encode())
    digest.update(np.ascontiguousarray(graph.node_presence.values).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_presence.values).tobytes())
    digest.update(repr(graph.static_attrs.values.tolist()).encode())
    for name in graph.varying_attrs:
        digest.update(repr(graph.varying_attrs[name].values.tolist()).encode())
    return digest.hexdigest()


def _level(rng, node_ids, t):
    return (node_ids % 3 + t).astype(object)


def returning_graph():
    """A config where half of the retired nodes may come back."""
    return generate_evolving_graph(
        EvolvingGraphConfig(
            times=tuple(range(12)),
            node_targets=(40,) * 12,
            edge_targets=(60,) * 12,
            node_survival=0.6,
            node_return=0.5,
            edge_repeat=0.4,
            static_attrs=(StaticAttributeSpec("color", ("red", "blue")),),
            varying_attrs=(VaryingAttributeSpec("level", _level),),
            seed=3,
        )
    )


CASES = {
    "dblp-0.01": (
        lambda: generate_dblp(0.01),
        "bd73f43ac40fb872a95fdbb6242776d4826edcdf1273aab08f1778c77cb60e10",
    ),
    "dblp-0.05": (
        lambda: generate_dblp(0.05),
        "2171a9dda124deb730d303ca17bcd2842ee186601af74b6ac2fbef612efd206f",
    ),
    "movielens-0.05": (
        lambda: generate_movielens(0.05),
        "90be24967108f410cdcb7ce9b7d9a1e8aa9534ab42d9f354fd511b40ab435802",
    ),
    "movielens-0.1": (
        lambda: generate_movielens(0.1),
        "5aff901f349f43bf270030d4f6dacaa507c9108eb4e73ef6e0bef55423136af7",
    ),
    "returning": (
        returning_graph,
        "2c8acf9bbd1854f196911c3e3b901381a596e5eeb861429c5c2e03ff1763e339",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_graph_digest_is_pinned(name):
    generate, expected = CASES[name]
    assert graph_digest(generate()) == expected
