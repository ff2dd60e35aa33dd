import pytest

from isospec.errors import InvalidFamily
from isospec.graphs import (
    Graph,
    canonical_arcs,
    circulant_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    make_graph,
    path_graph,
    petersen_graph,
    strongly_connected_digraphs,
    subset_family,
    three_clique_graph,
)


def test_views_symmetric_and_undirected():
    g = make_graph(3, [(0, 1), (2, 1)])
    assert g.arcs == {(0, 1), (2, 1)}
    assert g.sdg_arcs() == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert g.undirected_edges() == {(0, 1), (1, 2)}


def test_loops_allowed_and_degree():
    g = make_graph(2, [(0, 0), (0, 1), (1, 0)])
    assert g.has_arc(0, 0)
    assert g.out_degree(0) == 2
    assert (0, 0) in g.sdg_arcs()
    assert (0, 0) in g.undirected_edges()


def test_arc_bounds_checked():
    with pytest.raises(ValueError):
        Graph(["a"], [(0, 1)])


def test_label_resolution():
    g = make_graph(["a", "b"], [("a", "b")])
    assert g.arcs == {(0, 1)}
    assert g.vertex_index("b") == 1


@pytest.mark.parametrize("vertices, arc, named", [
    (3, (0.0, 1), "0.0 in arc [0.0, 1]"),
    (3, (None, 1), "None in arc [None, 1]"),
    (["a", "b"], ("a", "c"), "'c' in arc ['a', 'c']"),
], ids=["float", "null", "missing-label"])
def test_unknown_arc_endpoint_is_named(vertices, arc, named):
    with pytest.raises(ValueError) as info:
        make_graph(vertices, [arc])
    assert str(info.value) == f"unknown vertex label {named}"


def test_vertex_count_must_be_nonnegative():
    with pytest.raises(ValueError, match="vertex count must be nonnegative, got -1"):
        make_graph(-1, [])
    assert make_graph(0, []).vertex_count == 0


def test_strong_connectivity():
    assert cycle_graph(3, directed=True).is_strongly_connected()
    assert not make_graph(3, [(0, 1), (1, 2)]).is_strongly_connected()
    assert path_graph(4).is_strongly_connected()


def test_undirected_components():
    g = make_graph(5, [(0, 1), (2, 3)], undirected=True)
    comps = g.undirected_components()
    assert comps == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4}))
    assert g.undirected_components({0, 1, 4}) == (frozenset({0, 1}), frozenset({4}))


def test_standard_families():
    assert len(complete_graph(5).arcs) == 20
    assert len(petersen_graph().arcs) == 30
    assert all(petersen_graph().out_degree(u) == 3 for u in range(10))
    assert circulant_graph(4, [1]).undirected_edges() == cycle_graph(4).undirected_edges()
    assert len(circulant_graph(5, [1, 2]).arcs) == len(complete_graph(5).arcs)


def test_three_clique_structure():
    g = three_clique_graph(3)
    assert g.vertex_count == 10
    assert g.out_degree(0) == 3
    # each block is a triangle whose first vertex also sees the hub
    assert g.out_degree(1) == 3
    assert g.out_degree(2) == 2


def test_isomorphism_class_counts():
    assert [len(connected_graphs(n)) for n in (2, 3, 4, 5)] == [1, 2, 6, 21]
    assert len(strongly_connected_digraphs(3)) == 5
    assert len(strongly_connected_digraphs(4)) == 83


def _first_of_each_class(n, pairs, build):
    """Brute force: every edge mask in order, the first graph of each class
    by `canonical_arcs`, sorted by that key."""
    seen = {}
    for mask in range(1 << len(pairs)):
        g = build([pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if g.is_strongly_connected():
            seen.setdefault(canonical_arcs(n, g.arcs), g)
    return [seen[key] for key in sorted(seen)]


def test_class_enumeration_matches_brute_force():
    def rows(graphs):
        return [(g.labels, sorted(g.arcs)) for g in graphs]

    for n in range(1, 6):
        expected = _first_of_each_class(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)],
            lambda edges: make_graph(n, edges, undirected=True),
        )
        assert rows(connected_graphs(n)) == rows(expected)
    for n in range(1, 5):
        expected = _first_of_each_class(
            n, [(u, v) for u in range(n) for v in range(n) if u != v],
            lambda arcs: Graph([str(i) for i in range(n)], arcs),
        )
        assert rows(strongly_connected_digraphs(n)) == rows(expected)


def test_canonical_arcs_invariant_under_relabel():
    g = path_graph(4)
    key = canonical_arcs(4, g.arcs)
    assert key == canonical_arcs(4, g.relabel((2, 0, 3, 1)).arcs)


def test_subset_family_validation():
    fam = subset_family([{2, 3}, {0}], "disjoint", 4)
    assert [sorted(c) for c in fam.classes] == [[0], [2, 3]]
    assert fam.label_tuple(4) == (1, 0, 2, 2)
    with pytest.raises(InvalidFamily):
        subset_family([{0}, {0, 1}], "disjoint", 4)
    with pytest.raises(InvalidFamily):
        subset_family([{0}, set()], "disjoint", 4)
    with pytest.raises(InvalidFamily):
        subset_family([{0}, {1}], "partition", 3)
