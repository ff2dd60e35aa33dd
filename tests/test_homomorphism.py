import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from isospec import isoperimetry, spectral
from isospec.chains import build_chain, natural_walk
from isospec.errors import CapExceeded, PreconditionUnmet
from isospec.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    make_graph,
)
from isospec.homomorphism import (
    comparison_check,
    comparison_constants,
    courant_hilbert_check,
    iter_homomorphisms,
    no_hom_search,
    onto_homomorphisms,
    validate_hom,
)
from isospec.isoperimetry import isoperimetric_constant
from isospec.spectral import spectrum

F = Fraction

COLORING = (0, 1, 0, 1, 0, 1)
# a vertex-onto C8 -> C4 map that misses the arc {3, 0}
C8_C4_VERTEX_ONLY = (0, 1, 2, 3, 2, 1, 0, 1)


def test_identity_is_onto_edge(c4):
    w = validate_hom(c4.graph, c4.graph, (0, 1, 2, 3))
    assert w.classification == "onto_edge"
    assert w.vertex_onto and w.edge_onto


def test_c6_coloring_onto_edge(c6, k2):
    w = validate_hom(c6.graph, k2.graph, COLORING)
    assert w.classification == "onto_edge"


def test_odd_cycle_has_no_2_coloring(k2):
    c5 = cycle_graph(5)
    for sigma in ((0, 1, 0, 1, 0), (0, 0, 1, 0, 1)):
        assert not validate_hom(c5, k2.graph, sigma).is_hom
    assert no_hom_search(c5, k2.graph, "vertex_onto") is None
    assert no_hom_search(c5, k2.graph, "edge_onto") is None
    assert list(iter_homomorphisms(c5, k2.graph)) == []


def test_non_onto_hom_classification(c4, k2):
    # collapse C_4 onto a single edge without using both endpoints... uses both,
    # so drop to a path target with an unused vertex instead
    p3 = make_graph(3, [(0, 1), (1, 2)], undirected=True)
    w = validate_hom(c4.graph, p3, (0, 1, 0, 1))
    assert w.is_hom and not w.vertex_onto and w.classification == "hom"


def test_search_witnesses(c6, k2, k3):
    w = no_hom_search(c6.graph, k2.graph, "vertex_onto")
    assert w.mapping == COLORING
    w2 = no_hom_search(k3.graph, k3.graph, "vertex_onto")
    assert w2.mapping == (0, 1, 2)
    assert sum(1 for _ in onto_homomorphisms(cycle_graph(4), cycle_graph(4))) == 8
    assert sum(1 for _ in onto_homomorphisms(c6.graph, k2.graph, "edge_onto")) == 2
    c8, c4 = cycle_graph(8), cycle_graph(4)
    assert sum(1 for _ in onto_homomorphisms(c8, c4, "vertex_onto")) == 392
    assert sum(1 for _ in onto_homomorphisms(c8, c4, "edge_onto")) == 264
    assert sum(1 for _ in onto_homomorphisms(complete_bipartite_graph(3, 3), c4, "edge_onto")) == 72


def test_empty_source_graph(k2):
    empty = make_graph(0, [])
    assert list(iter_homomorphisms(empty, k2.graph)) == [()]
    assert no_hom_search(empty, empty) == validate_hom(empty, empty, ())
    assert no_hom_search(empty, k2.graph) is None
    assert no_hom_search(empty, k2.graph, "edge_onto") is None


def test_unknown_onto_mode_rejected(k2):
    with pytest.raises(ValueError):
        no_hom_search(cycle_graph(4), k2.graph, "onto")
    with pytest.raises(ValueError):
        list(onto_homomorphisms(cycle_graph(4), k2.graph, "vertex"))


def _witness_rows(witnesses):
    return [(w.mapping, w.is_hom, w.vertex_onto, w.edge_onto) for w in witnesses]


@st.composite
def graph_pairs(draw):
    """A 2-6 vertex source and a 1-4 vertex target, self-loops and one-way
    arcs allowed.  Half the sources are pulled back along a drawn map, so
    that homomorphisms exist; targets keep isolated vertices when drawn."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    target_arcs = draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
    if target_arcs and draw(st.booleans()):
        sigma = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        pool = [(u, v) for u in range(n) for v in range(n) if (sigma[u], sigma[v]) in target_arcs]
        source_arcs = draw(st.sets(st.sampled_from(pool))) if pool else set()
    else:
        source_arcs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    return make_graph(n, source_arcs), make_graph(m, target_arcs)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(graph_pairs())
def test_search_matches_brute_force(pair):
    # the oracle: all m**n maps in lexicographic order, each through validate_hom
    g, h = pair
    homs = [
        w for w in (validate_hom(g, h, s) for s in product(range(h.vertex_count), repeat=g.vertex_count))
        if w.is_hom
    ]
    assert list(iter_homomorphisms(g, h)) == [w.mapping for w in homs]
    for mode in ("vertex_onto", "edge_onto"):
        expected = [w for w in homs if getattr(w, mode)]
        assert _witness_rows(onto_homomorphisms(g, h, mode)) == _witness_rows(expected)
        assert no_hom_search(g, h, mode) == (expected[0] if expected else None)


def test_search_cap(k2):
    with pytest.raises(CapExceeded):
        no_hom_search(cycle_graph(6), k2.graph, cap=10)


def test_c6_k2_constants(c6, k2):
    w = validate_hom(c6.graph, k2.graph, COLORING)
    cc = comparison_constants(c6, k2, w)
    assert cc.m_sup == 6 and cc.m_sigma == 6
    assert cc.s_sigma == cc.s_sup == 3
    assert cc.tau_from_to == F(1, 2)


def test_identity_constants_on_uniform_chain(c4):
    w = validate_hom(c4.graph, c4.graph, (0, 1, 2, 3))
    cc = comparison_constants(c4, c4, w)
    assert cc.m_sigma == cc.m_sup == 1
    assert cc.s_sigma == cc.s_sup == 1
    assert cc.tau_from_to == cc.tau_to_from == 1


def test_tau_is_one_on_transitive_chains():
    for g in (cycle_graph(5), complete_graph(5), complete_bipartite_graph(3, 3)):
        ch = natural_walk(g)
        w = validate_hom(g, g, tuple(range(g.vertex_count)))
        cc = comparison_constants(ch, ch, w)
        assert cc.tau_from_to == 1


def test_k4_to_k2_fiber_counts(k2):
    k4 = complete_graph(4)
    w = validate_hom(k4, k2.graph, (0, 0, 1, 1))
    assert not w.is_hom  # within-fiber arcs have no loop to land on
    cc = comparison_constants(natural_walk(k4), k2, w)
    assert cc.s_sigma == cc.s_sup == 2
    assert cc.m_sup == 4
    # and exhaustive search agrees that no onto homomorphism exists at all
    assert no_hom_search(k4, k2.graph, "vertex_onto") is None


def test_comparison_check_c6_k2(c6, k2):
    w = validate_hom(c6.graph, k2.graph, COLORING)
    rep = comparison_check(c6, k2, w)
    assert rep["holds"]
    assert rep["part_a"]["factor"] == 1
    rows = rep["part_a"]["rows"]
    assert abs(rows[1]["lambda_from"] - 0.5) < 1e-9
    assert abs(rows[1]["lambda_to"] - 2.0) < 1e-9


def test_comparison_check_identity(c4):
    w = validate_hom(c4.graph, c4.graph, (0, 1, 2, 3))
    rep = comparison_check(c4, c4, w)
    assert rep["holds"]


def test_comparison_check_preconditions(c4, k2):
    p3 = make_graph(3, [(0, 1), (1, 2)], undirected=True)
    w = validate_hom(c4.graph, p3, (0, 1, 0, 1))
    for part in ("a", "both"):
        with pytest.raises(PreconditionUnmet):
            comparison_check(c4, natural_walk(p3), w, part=part)


@pytest.mark.parametrize("part", ["A", "none", "", None])
def test_comparison_check_unknown_part_rejected(part):
    """An unknown part is refused before any work: a check that ran neither
    part would report `holds: True` with nothing checked."""
    c6, k2 = natural_walk(cycle_graph(6)), natural_walk(complete_graph(2))
    w = validate_hom(c6.graph, k2.graph, COLORING)
    with pytest.raises(ValueError, match="'a', 'b' or 'both'"):
        comparison_check(c6, k2, w, part=part)
    assert c6._memo == {} and k2._memo == {}


def test_comparison_check_both_runs_the_applicable_part():
    c8, c4 = natural_walk(cycle_graph(8)), natural_walk(cycle_graph(4))
    w = validate_hom(c8.graph, c4.graph, C8_C4_VERTEX_ONLY)
    assert w.classification == "onto_vertex"
    rep = comparison_check(c8, c4, w)
    assert rep["holds"] and rep["part_b"] is None
    assert rep["unmet"] == {"part_b": "part (b) needs an edge-onto homomorphism"}
    assert rep["part_a"] == comparison_check(c8, c4, w, part="a")["part_a"]
    with pytest.raises(PreconditionUnmet):
        comparison_check(c8, c4, w, part="b")


def _map_counts(graph, sigma):
    """The four numbers through which a comparison report depends on its map:
    the extremes of the fiber-pair arc counts and of the fiber sizes."""
    arcs = Counter((sigma[u], sigma[v]) for u, v in graph.sdg_arcs())
    sizes = Counter(sigma)
    return min(arcs.values()), max(arcs.values()), min(sizes.values()), max(sizes.values())


def test_comparison_sweep_computes_each_chain_once(monkeypatch):
    """All 360 vertex-onto maps C10 -> C5 on one pair of chains: the two
    spectra and the ten iota searches run once, and every report equals the
    report on a fresh pair of chains of a map with the same fiber counts."""
    g10, g5 = cycle_graph(10), cycle_graph(5)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(isoperimetry, "_minimize", counting("minimize", isoperimetry._minimize))
    monkeypatch.setattr(spectral, "jacobi_eigh", counting("jacobi", spectral.jacobi_eigh))
    c10, c5 = natural_walk(g10), natural_walk(g5)
    witnesses = list(onto_homomorphisms(g10, g5, "vertex_onto"))
    reports = [comparison_check(c10, c5, w, "a") for w in witnesses]
    assert len(witnesses) == 360
    assert calls == {"minimize": 10, "jacobi": 2}

    fresh = {}
    for w, rep in zip(witnesses, reports):
        key = _map_counts(g10, w.mapping)
        if key not in fresh:
            fresh[key] = comparison_check(natural_walk(g10), natural_walk(g5), w, "a")
        assert rep == fresh[key], w.mapping
    assert calls == {"minimize": 10 * (1 + len(fresh)), "jacobi": 2 * (1 + len(fresh))}


def test_one_vertex_chain_has_no_comparison_constants(c4):
    k1 = build_chain(make_graph(1, [(0, 0)]), [[1]])
    w = validate_hom(k1.graph, k1.graph, (0,))
    assert w.vertex_onto and w.edge_onto
    with pytest.raises(PreconditionUnmet, match="source chain has no flow"):
        comparison_constants(k1, k1, w)
    for part in ("a", "b", "both"):
        with pytest.raises(PreconditionUnmet, match="source chain has no flow"):
            comparison_check(k1, k1, w, part)
    w = validate_hom(c4.graph, k1.graph, (0, 0, 0, 0))
    assert w.vertex_onto
    with pytest.raises(PreconditionUnmet, match="target chain has no flow"):
        comparison_check(c4, k1, w, "a")


def test_soundness_over_corpus_pairs(c4, c6, k2, k3):
    pairs = [
        (c4, c4),
        (c6, k2),
        (natural_walk(complete_graph(4)), k2),
        (k3, k3),
    ]
    for src, dst in pairs:
        for w in onto_homomorphisms(src.graph, dst.graph, "vertex_onto"):
            rep = comparison_check(src, dst, w, part="a")
            assert rep["holds"], (src, dst, w.mapping)
        for w in onto_homomorphisms(src.graph, dst.graph, "edge_onto"):
            rep = comparison_check(src, dst, w, part="b")
            assert rep["holds"], (src, dst, w.mapping)


def test_courant_hilbert_worked_instances(c4):
    ident = validate_hom(c4.graph, c4.graph, (0, 1, 2, 3))
    f = (F(1), F(0), F(-1), F(0))
    out = courant_hilbert_check(c4, c4, ident, f, F(1), "excessive")
    assert out["holds"] and out["kappa_plus"] == 1
    assert abs(out["lhs"]) < 1e-9 and abs(out["rhs"] - 1.0) < 1e-9

    out = courant_hilbert_check(c4, c4, ident, f, F(0), "deficient_b")
    assert out["holds"] and out["index"] == 1
    assert abs(out["lhs"] - 1.0) < 1e-9

    alt = (F(1), F(-1), F(1), F(-1))
    out = courant_hilbert_check(c4, c4, ident, alt, F(-1), "deficient_a")
    assert out["holds"] and out["kappa_plus"] == 2
    assert abs(out["lhs"]) < 1e-9 and abs(out["rhs"] + 1.0) < 1e-9


def test_courant_hilbert_c6_coloring(c6, k2):
    w = validate_hom(c6.graph, k2.graph, COLORING)
    f = (F(1), F(-1))
    out = courant_hilbert_check(c6, k2, w, f, F(2), "excessive")
    assert out["holds"]
    out = courant_hilbert_check(c6, k2, w, f, F(-1), "deficient_a")
    assert out["holds"]
    out = courant_hilbert_check(c6, k2, w, f, F(-1), "deficient_b")
    assert out["holds"]


def test_courant_hilbert_uses_the_comparison_factors():
    """The transfer bounds of both checks share one factor per part, to the
    last bit on float chains too."""
    rng = random.Random(5)

    def float_chain(g):
        rows = []
        for u in range(g.vertex_count):
            w = [rng.randint(1, 9) if g.has_arc(u, v) else 0 for v in range(g.vertex_count)]
            rows.append([x / sum(w) for x in w])
        return build_chain(g, rows)

    f = (1.0, -1.0)
    for _ in range(10):
        src, dst = float_chain(cycle_graph(6)), float_chain(complete_graph(2))
        w = validate_hom(src.graph, dst.graph, COLORING)
        rep = comparison_check(src, dst, w)
        out = courant_hilbert_check(src, dst, w, f, 2.0, "excessive")
        assert out["rhs"] == float(rep["part_a"]["factor"]) * 2.0
        out = courant_hilbert_check(src, dst, w, f, -1.0, "deficient_a")
        assert out["rhs"] == float(rep["part_b"]["factor"]) * -1.0


def test_courant_hilbert_rejects_unmet_hypotheses(c4, k2):
    ident = validate_hom(c4.graph, c4.graph, (0, 1, 2, 3))
    f = (F(1), F(0), F(-1), F(0))
    with pytest.raises(PreconditionUnmet):
        courant_hilbert_check(c4, c4, ident, f, F(1, 2), "excessive")
    nonneg = (F(1), F(1), F(1), F(1))
    with pytest.raises(PreconditionUnmet):
        courant_hilbert_check(c4, c4, ident, nonneg, F(0), "deficient_b")


def test_dominance_counterexample_reproduces_exactly():
    # The combinatorial kernel does NOT dominate every kernel on an
    # arc-transitive graph: the conductance walk on C_5 with edge weights
    # (8, 3, 2, 5, 9) is reversible yet has iota_2 = 3/7 > 5/12.
    cond = {(0, 1): 8, (1, 2): 3, (2, 3): 2, (3, 4): 5, (4, 0): 9}
    g = cycle_graph(5)
    rows = [[F(0)] * 5 for _ in range(5)]
    for u in range(5):
        inc = []
        for (a, b), w in cond.items():
            if a == u:
                inc.append((b, w))
            if b == u:
                inc.append((a, w))
        total = sum(w for _, w in inc)
        for v, w in inc:
            rows[u][v] = F(w, total)
    ch = build_chain(g, rows)
    assert all(ch.phi[u][v] == ch.phi[v][u] for u in range(5) for v in range(5))
    assert ch.pi == (F(17, 54), F(11, 54), F(5, 54), F(7, 54), F(14, 54))
    rep = isoperimetric_constant(ch, 2, "disjoint")
    assert rep.iota == F(3, 7)
    base = isoperimetric_constant(natural_walk(g), 2, "disjoint").iota
    assert base == F(5, 12)
    assert rep.iota > base


def test_dominance_holds_for_uniform_pi_kernels():
    # For doubly stochastic kernels the averaging argument is sound; on C_5 the
    # biased walks even give exact equality with the combinatorial kernel.
    g = cycle_graph(5)
    base = natural_walk(g)
    base_spec = spectrum(base)
    base_iotas = [isoperimetric_constant(base, k, "disjoint").iota for k in range(1, 6)]
    for p in (F(1, 5), F(1, 3), F(7, 9)):
        rows = [[F(0)] * 5 for _ in range(5)]
        for u in range(5):
            rows[u][(u + 1) % 5] = p
            rows[u][(u - 1) % 5] = 1 - p
        ch = build_chain(g, rows)
        assert ch.pi == (F(1, 5),) * 5
        spec = spectrum(ch)
        assert abs(spec.lambdas[1] - base_spec.lambdas[1]) < 1e-9
        for k in range(1, 6):
            assert isoperimetric_constant(ch, k, "disjoint").iota == base_iotas[k - 1]
