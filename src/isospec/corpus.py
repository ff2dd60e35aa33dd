"""The fixed in-repo graph corpus used by the verification suites and probes."""

from __future__ import annotations

from functools import lru_cache

from .chains import natural_walk
from .graphs import (
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    petersen_graph,
    three_clique_graph,
)


@lru_cache(maxsize=None)
def corpus_graphs():
    """Connected graphs on 2..5 vertices (one per isomorphism class, as
    symmetric digraphs) plus the named larger and directed members."""
    entries = []
    for n in range(2, 6):
        for i, g in enumerate(connected_graphs(n)):
            entries.append((f"g{n}_{i:02d}", g))
    entries.extend(
        [
            ("dicycle3", cycle_graph(3, directed=True)),
            ("c6", cycle_graph(6)),
            ("k6", complete_graph(6)),
            ("k33", complete_bipartite_graph(3, 3)),
            ("petersen", petersen_graph()),
            ("threeclique3", three_clique_graph(3)),
        ]
    )
    return tuple(entries)


def corpus_chains():
    """Natural random walks on every corpus graph, in fixed order: new chain
    objects on every call, so the results memoized on one caller's chains
    never answer another's."""
    return tuple((name, natural_walk(g)) for name, g in corpus_graphs())


def small_corpus_chains(max_vertices=5):
    return tuple(
        (name, chain)
        for name, chain in corpus_chains()
        if chain.graph.vertex_count <= max_vertices
    )


def transitive_graphs():
    """Vertex- and edge-transitive members used by the kernel-dominance checks."""
    return (
        ("c5", cycle_graph(5)),
        ("k5", complete_graph(5)),
        ("k33", complete_bipartite_graph(3, 3)),
    )
