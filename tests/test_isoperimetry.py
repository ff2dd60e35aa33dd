import dataclasses
import functools
import inspect
import random
import re
from fractions import Fraction
from itertools import chain as chain_iter, combinations, permutations, product
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from isospec.chains import MarkovChain, build_chain, lazy_max_degree_kernel, natural_walk
from isospec.errors import CapExceeded, InvalidFamily
from isospec.graphs import (
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    SubsetFamily,
    make_graph,
    path_graph,
    petersen_graph,
    strongly_connected_digraphs,
    subset_family,
    three_clique_graph,
)
from isospec import isoperimetry
from isospec.isoperimetry import (
    PositiveOrthonormalFamily,
    characteristic_family,
    classical_cheeger,
    complete_graph_reference,
    cut_table,
    enumerate_families,
    family_objective,
    gamma_objective,
    isoperimetric_constant,
    isoperimetric_table,
    level_set_rounding,
    proposition_bounds_check,
    random_disjoint_family,
    random_positive_family,
    structural_inequalities_check,
    supergeometric_classify,
    validate_positive_family,
)
from isospec.spectral import spectrum
from isospec.tolerance import at_most

F = Fraction


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def stirling2(n, k):
    if k in (0, n):
        return 1 if k == n or n == 0 else 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_enumeration_counts():
    assert len(list(enumerate_families(3, 3, "partition"))) == 1
    assert len(list(enumerate_families(3, 2, "partition"))) == 3
    assert len(list(enumerate_families(3, 2, "disjoint"))) == 6


def test_enumeration_matches_stirling():
    for v in range(2, 7):
        for n in range(1, v + 1):
            assert len(list(enumerate_families(v, n, "partition"))) == stirling2(v, n)


def test_enumeration_canonical_and_unique():
    seen = set()
    for fam in enumerate_families(4, 2, "disjoint"):
        key = tuple(tuple(sorted(c)) for c in fam.classes)
        assert key not in seen
        seen.add(key)
        mins = [min(c) for c in fam.classes]
        assert mins == sorted(mins)
    with pytest.raises(ValueError):
        list(enumerate_families(3, 4, "partition"))


# ---------------------------------------------------------------------------
# Exact minimization
# ---------------------------------------------------------------------------

def test_iota_1_is_zero(c4, dicycle3, p3):
    for ch in (c4, dicycle3, p3):
        rep = isoperimetric_constant(ch, 1)
        assert rep.iota == rep.iota_tilde == 0
        assert rep.witness.classes == (frozenset(range(ch.graph.vertex_count)),)


def test_k4_values(k4):
    assert isoperimetric_constant(k4, 2).iota == F(2, 3)
    assert isoperimetric_constant(k4, 3).iota == F(8, 9)
    assert isoperimetric_constant(k4, 4).iota == F(1)


def test_complete_graph_closed_form():
    for n in (3, 4, 5):
        ch = natural_walk(complete_graph(n))
        for t in range(1, n + 1):
            rep = isoperimetric_constant(ch, t)
            want = F(n * (t - 1), t * (n - 1))
            assert rep.iota == rep.iota_tilde == want


def test_c4_table_and_witness(c4):
    table = isoperimetric_table(c4)
    assert [rep.iota for rep in table] == [0, F(1, 2), F(5, 6), F(1)]
    assert [rep.iota_tilde for rep in table] == [0, F(1, 2), F(5, 6), F(1)]
    assert [sorted(c) for c in table[1].witness.classes] == [[0, 1], [2, 3]]


def _first_minima(ch, n):
    """Per mode, the first minimum in enumerate_families order, i.e. the
    minimizing family with the lexicographically smallest labelling."""
    ratios = {}
    out = {}
    for mode in ("disjoint", "partition"):
        best = best_fam = None
        for fam in enumerate_families(ch.graph.vertex_count, n, mode):
            total = 0
            for cls in fam.classes:
                if cls not in ratios:
                    ratios[cls] = ch.boundary_ratio(cls)
                total += ratios[cls]
            if best is None or total < best:
                best, best_fam = total, fam
        out[mode] = (best / n, best_fam)
    return out


def _float_twin(ch):
    return build_chain(ch.graph, [[float(x) for x in row] for row in ch.kernel])


def _connected_graphs_6():
    """Connected graphs on 6 vertices, one per isomorphism class: each has a
    vertex whose removal leaves a connected 5-vertex graph, so it arises by
    joining a new vertex to a nonempty subset of a connected_graphs(5) member.
    Classes are told apart by the least edge code over the vertex orders that
    sort the degrees in decreasing order."""
    pair_bit = {p: 1 << i for i, p in enumerate(combinations(range(6), 2))}
    seen = {}
    for base in connected_graphs(5):
        edges = [(u, v) for u, v in base.arcs if u < v]
        for mask in range(1, 32):
            es = edges + [(v, 5) for v in range(5) if mask >> v & 1]
            deg = [sum(v in e for e in es) for v in range(6)]
            groups = [[v for v in range(6) if deg[v] == d] for d in sorted(set(deg), reverse=True)]
            code = None
            for orders in product(*(permutations(g) for g in groups)):
                pos = {v: i for i, v in enumerate(chain_iter(*orders))}
                c = sum(pair_bit[tuple(sorted((pos[u], pos[v])))] for u, v in es)
                code = c if code is None else min(code, c)
            seen.setdefault(code, make_graph(6, es, undirected=True))
    return [seen[c] for c in sorted(seen)]


def test_minimizer_matches_brute_force():
    """Both backends against enumerate_families: values, and witnesses equal
    to the first minimum in enumeration order (the lexicographically smallest
    labelling), on all strongly connected 4-vertex digraphs, all connected
    graphs of at most 6 vertices and tie-heavy symmetric graphs."""
    cases = []
    for g in [cycle_graph(4), path_graph(4), complete_graph(4),
              make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), cycle_graph(5)]:
        cases.append((natural_walk(g), None))
    for g in strongly_connected_digraphs(4):
        cases += [(natural_walk(g), None), (lazy_max_degree_kernel(g), None)]
    graphs = [g for v in range(2, 6) for g in connected_graphs(v)] + _connected_graphs_6()
    assert len(graphs) == 1 + 2 + 6 + 21 + 112
    cases += [(natural_walk(g), None) for g in graphs]
    cases += [(natural_walk(cycle_graph(8)), [4]),
              (natural_walk(complete_bipartite_graph(3, 3)), None),
              (natural_walk(petersen_graph()), [2])]
    for ch, ns in cases:
        v = ch.graph.vertex_count
        twin = _float_twin(ch)
        for n in ns or range(1, v + 1):
            brute = _first_minima(ch, n)
            rep = isoperimetric_constant(ch, n)
            frep = isoperimetric_constant(twin, n)
            for mode, got, wit, fgot, fwit in (
                ("disjoint", rep.iota, rep.witness, frep.iota, frep.witness),
                ("partition", rep.iota_tilde, rep.witness_tilde,
                 frep.iota_tilde, frep.witness_tilde),
            ):
                want, want_fam = brute[mode]
                assert got == want, (sorted(ch.graph.arcs), n, mode)
                assert wit == want_fam, (sorted(ch.graph.arcs), n, mode)
                assert abs(fgot - float(want)) <= 1e-12, (sorted(ch.graph.arcs), n, mode)
                assert fwit.mode == mode and len(fwit.classes) == n
                assert family_objective(ch, fwit) == want, (sorted(ch.graph.arcs), n, mode)


def _bitmask_minima(ch, n):
    """Bitmask brute force, independent of enumerate_families and of the cut
    table: every family as class masks with increasing minima, scored as a
    Fraction from MarkovChain.cut_num, whose (mass, boundary) is exact on both
    backends, minimized over (value, labelling)."""
    v = ch.graph.vertex_count
    full = (1 << v) - 1
    ratio = [None] + [F(b, m) for m, b in map(ch.cut_num, range(1, full + 1))]
    best = {}

    def rec(classes, avail, mode):
        if len(classes) == n:
            if mode == "partition" and avail:
                return
            labels = [0] * v
            for k, m in enumerate(classes, 1):
                for u in range(v):
                    if m >> u & 1:
                        labels[u] = k
            key = (sum(ratio[m] for m in classes) / n, tuple(labels))
            if mode not in best or key < best[mode]:
                best[mode] = key
            return
        for a in range(v):
            if not avail >> a & 1:
                continue
            rest = avail & ~((2 << a) - 1)
            sub = rest
            while True:
                rec(classes + [(1 << a) | sub], rest & ~sub, mode)
                if not sub:
                    break
                sub = (sub - 1) & rest
            if mode == "partition":
                break

    for mode in ("disjoint", "partition"):
        rec([], full, mode)
    return best


@st.composite
def rational_chains(draw, lo=5, hi=7):
    """A random strongly connected digraph on lo..hi vertices (a Hamiltonian
    cycle plus random arcs) with integer weights 1..top per arc and 0..top on
    the diagonal, normalized per row.  With top = 1 the kernel is a natural or
    lazy walk, whose symmetries make ties between families common.  A
    1-vertex chain has a positive loop weight."""
    v = draw(st.integers(lo, hi))
    order = draw(st.permutations(range(v)))
    arcs = {(order[i], order[(i + 1) % v]) for i in range(v)}
    others = [(a, b) for a in range(v) for b in range(v) if a != b and (a, b) not in arcs]
    if others:
        arcs |= set(draw(st.lists(st.sampled_from(others), max_size=2 * v)))
    top = draw(st.sampled_from([1, 9]))
    rows = []
    for a in range(v):
        w = [draw(st.integers(1, top)) if (a, b) in arcs else 0 for b in range(v)]
        w[a] = draw(st.integers(0 if v > 1 else 1, top))
        rows.append([F(x, sum(w)) for x in w])
    return build_chain(make_graph(v, sorted(arcs)), rows)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(rational_chains(), st.data())
def test_minimizer_matches_bitmask_brute_force(ch, data):
    n = data.draw(st.integers(1, ch.graph.vertex_count))
    best = _bitmask_minima(ch, n)
    rep = isoperimetric_constant(ch, n)
    for mode, got, wit in (("disjoint", rep.iota, rep.witness),
                           ("partition", rep.iota_tilde, rep.witness_tilde)):
        assert (got, wit.label_tuple(ch.graph.vertex_count)) == best[mode], mode
    twin = _float_twin(ch)
    fbest = _bitmask_minima(twin, n)
    frep = isoperimetric_constant(twin, n)
    for mode, got, wit in (("disjoint", frep.iota, frep.witness),
                           ("partition", frep.iota_tilde, frep.witness_tilde)):
        value, labels = fbest[mode]
        assert repr(got) == repr(float(value)), mode
        assert wit.label_tuple(twin.graph.vertex_count) == labels, mode


@pytest.mark.parametrize("graph", [
    cycle_graph(4),
    path_graph(4),
    cycle_graph(3, directed=True),
    make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    cycle_graph(5),
], ids=["c4", "p4", "dicycle3", "c4_chord", "c5"])
def test_minimize_returns_a_bounded_leaf_count(graph):
    """_minimize returns (value, witness, leaves) on both backends and in both
    modes: the value and witness are what the report memoizes, and leaves is
    an int from 1 to the number of canonical families.  No report carries the
    leaf count; the benchmark's tracer reads it from this third element."""
    exact = natural_walk(graph)
    for ch in (exact, _float_twin(exact)):
        table = cut_table(ch)
        v = ch.graph.vertex_count
        for n in range(1, v + 1):
            rep = isoperimetric_constant(ch, n)
            for mode, value, witness in (("disjoint", rep.iota, rep.witness),
                                         ("partition", rep.iota_tilde, rep.witness_tilde)):
                out = isoperimetry._minimize(ch, n, mode, table)
                assert isinstance(out, tuple) and len(out) == 3
                assert out[:2] == (value, witness), (n, mode)
                leaves = out[2]
                assert type(leaves) is int
                assert 1 <= leaves <= len(list(enumerate_families(v, n, mode))), (n, mode)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(rational_chains(1, 12))
def test_cut_table_matches_cut_num(ch):
    """On both backends each set's (mass, boundary) in the cut table is the
    chain's cut_num, its ratio_f the correctly rounded boundary_ratio, and its
    lb the least ratio_f over its nonempty subsets: its own ratio_f or the lb
    of a set one vertex smaller.  The table is the one the chain's
    isoperimetric_table built and memoized."""
    for c in (ch, _float_twin(ch)):
        v = c.graph.vertex_count
        isoperimetric_table(c, 1)
        table = cut_table(c)
        assert cut_table(c) is table
        assert (table.mass[0], table.boundary[0], table.ratio_f[0], table.lb[0]) == (0, 0, inf, inf)
        for s in range(1, 1 << v):
            assert (table.mass[s], table.boundary[s]) == c.cut_num(s)
            members = [u for u in range(v) if s >> u & 1]
            assert repr(table.ratio_f[s]) == repr(float(c.boundary_ratio(members)))
            least = min([table.ratio_f[s]] + [table.lb[s ^ (1 << u)] for u in members])
            assert table.lb[s] == least


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(rational_chains(1, 9), st.data())
def test_pi_and_phi_share_one_integer_unit(ch, data):
    """On both backends _pi_num / _den and _phi_num / _den are exactly pi and
    phi; on an exact chain pi(u) = sum_v phi(u, v) holds in the integers, and
    inflow is the exact inflow, rounded once on a float chain.  phi_bar and
    K_bar are the symmetric flow phi(u,v) + phi(v,u) over 2 D and over
    2 pi_num(u), each made once by scalar; on an exact chain K_bar is
    (K(u,v) + K(v,u) pi(v) / pi(u)) / 2."""
    twin = _float_twin(ch)
    v = ch.graph.vertex_count
    for c in (ch, twin):
        assert [F(x, c._den) for x in c._pi_num] == list(map(F, c.pi))
        assert [[F(x, c._den) for x in row] for row in c._phi_num] == [
            list(map(F, row)) for row in c.phi]
        for a, b in product(range(v), repeat=2):
            flow = c._phi_num[a][b] + c._phi_num[b][a]
            assert repr(c.phibar[a][b]) == repr(c.scalar(flow, 2 * c._den))
            assert repr(c.kbar[a][b]) == repr(c.scalar(flow, 2 * c._pi_num[a]))
            assert c._sym_num[a][b] == c._sym_num[b][a] == flow
    K, p = ch.kernel, ch.pi
    assert ch.kbar == tuple(tuple((K[a][b] + K[b][a] * p[b] / p[a]) / 2 for b in range(v))
                            for a in range(v))
    assert list(ch._pi_num) == [sum(row) for row in ch._phi_num]
    for mask in data.draw(st.lists(st.integers(1, (1 << v) - 1), min_size=1, max_size=12)):
        q = [u for u in range(v) if mask >> u & 1]
        for c in (ch, twin):
            exact = sum(F(c.phi[a][b]) for a in range(v) if not mask >> a & 1 for b in q)
            assert repr(c.inflow(q)) == repr(c.scalar(exact.numerator, exact.denominator))


def test_cut_functions_build_no_fraction():
    """The cut table, the minimizer and the cut functionals stay on the chain's
    integer unit; a returned value is made by MarkovChain.scalar."""
    names = ("cut_table", "_minimize", "_ratio_sum", "family_objective",
             "gamma_objective", "level_set_rounding", "_merge_bounds")
    functions = [getattr(isoperimetry, name) for name in names]
    functions += [MarkovChain.cut_num, MarkovChain.inflow]
    found = [fn.__qualname__ for fn in functions if "Fraction(" in inspect.getsource(fn)]
    assert not found, found


def test_cap_enforced():
    ch = natural_walk(cycle_graph(5))
    with pytest.raises(CapExceeded):
        isoperimetric_constant(ch, 2, cap=4)


def test_mode_is_positional_and_cap_keyword_only(c4):
    """isoperimetric_table and isoperimetric_constant take (..., mode) in the
    same place, and a cap passed by position is refused."""
    fresh = natural_walk(cycle_graph(4))
    assert isoperimetric_table(c4, 2, "disjoint") == isoperimetric_table(fresh, 2, mode="disjoint")
    assert isoperimetric_constant(c4, 2, "disjoint") == isoperimetric_constant(fresh, 2, mode="disjoint")
    for call in (
        lambda: isoperimetric_table(c4, 2, "disjoint", 14),
        lambda: isoperimetric_constant(c4, 2, "disjoint", 14),
        lambda: supergeometric_classify(c4, 4, 14),
    ):
        with pytest.raises(TypeError):
            call()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rational_chains(3, 7), st.booleans(), st.data())
def test_memoized_answers_match_a_fresh_chain(ch, as_float, data):
    """A random sequence of iota and spectrum queries on one chain: each answer,
    and the same answer asked again once every query has run, is bit-for-bit
    the answer of a newly built chain (values, lexicographic witnesses,
    eigen-data), and the argument checks still raise."""
    warm = _float_twin(ch) if as_float else ch
    v = warm.graph.vertex_count

    def fresh():
        return build_chain(warm.graph, warm.kernel)

    asked = []
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["constant", "table", "spectrum"]))
        mode = data.draw(st.sampled_from(["disjoint", "partition", "both"]))
        if kind == "constant":
            n = data.draw(st.integers(1, v))
            ask = functools.partial(isoperimetric_constant, n=n, mode=mode)
        elif kind == "table":
            max_n = data.draw(st.none() | st.integers(1, v))
            ask = functools.partial(isoperimetric_table, max_n=max_n, mode=mode)
        else:
            def ask(c):
                return dataclasses.replace(spectrum(c), chain=None)
        expected = repr(ask(fresh()))
        assert repr(ask(warm)) == expected
        asked.append((ask, expected))
    for ask, expected in reversed(asked):
        assert repr(ask(warm)) == expected
    with pytest.raises(CapExceeded):
        isoperimetric_constant(warm, 1, cap=v - 1)
    with pytest.raises(CapExceeded):
        isoperimetric_table(warm, cap=v - 1)
    for n in (0, v + 1):
        with pytest.raises(ValueError):
            isoperimetric_constant(warm, n)
    with pytest.raises(ValueError):
        isoperimetric_table(warm, v + 1)


def _searched_partition_side(ch, n):
    """Asserts that the report's partition side is the unconditional partition
    search's answer (value by repr, witness with its mode and labelling) and
    returns whether the report's disjoint witness covers every vertex, in
    which case the partition side equals the disjoint side."""
    v = ch.graph.vertex_count
    rep = isoperimetric_constant(ch, n)
    value, witness = isoperimetry._minimize(ch, n, "partition", cut_table(ch))[:2]
    assert repr(rep.iota_tilde) == repr(value), n
    assert rep.witness_tilde == witness, n
    assert rep.witness_tilde.label_tuple(v) == witness.label_tuple(v), n
    covers = sum(map(len, rep.witness.classes)) == v
    if covers:
        assert repr(rep.iota_tilde) == repr(rep.iota), n
        assert rep.witness_tilde.classes == rep.witness.classes, n
    return covers


def _count_minimize(monkeypatch):
    """Wraps the module's _minimize; returns the list of its calls' (n, mode)."""
    calls = []
    search = isoperimetry._minimize

    def counted(chain, n, mode, table):
        calls.append((n, mode))
        return search(chain, n, mode, table)

    monkeypatch.setattr(isoperimetry, "_minimize", counted)
    return calls


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rational_chains())
def test_covering_disjoint_witness_is_the_partition_answer(ch):
    """Every n, both backends: the partition side a report takes from a
    covering disjoint witness is what the partition search returns."""
    for c in (ch, _float_twin(ch)):
        for n in range(1, c.graph.vertex_count + 1):
            _searched_partition_side(c, n)


@pytest.mark.parametrize("block, iota3, tilde3", [
    (3, F(1, 7), F(17, 105)),
    (4, F(1, 13), F(29, 312)),
], ids=["three_clique_3", "three_clique_4"])
def test_gap_chains_still_search_the_partition_side(monkeypatch, block, iota3, tilde3):
    """On the three-clique gap chains the disjoint witness at n=3 leaves the
    hub out, so iota~_3 comes from a partition search and stays above
    iota_3; at n = 1..4 the partition side is the search's answer on both
    backends."""
    calls = _count_minimize(monkeypatch)
    exact = natural_walk(three_clique_graph(block))
    for ch in (exact, _float_twin(exact)):
        for n in range(1, 5):
            calls.clear()
            covers = _searched_partition_side(ch, n)
            if n == 3:
                assert not covers
                assert calls[:2] == [(3, "disjoint"), (3, "partition")]
    rep = isoperimetric_constant(exact, 3)
    assert (rep.iota, rep.iota_tilde) == (iota3, tilde3) and iota3 < tilde3


def test_a_covering_disjoint_witness_skips_the_partition_search(monkeypatch):
    calls = _count_minimize(monkeypatch)
    isoperimetric_constant(natural_walk(cycle_graph(5)), 2, "both")
    assert calls == [(2, "disjoint")]
    calls.clear()
    ch = natural_walk(cycle_graph(5))
    isoperimetric_constant(ch, 2, "disjoint")
    isoperimetric_constant(ch, 2, "partition")
    assert calls == [(2, "disjoint")]
    calls.clear()
    isoperimetric_constant(natural_walk(three_clique_graph(3)), 3, "both")
    assert calls == [(3, "disjoint"), (3, "partition")]


def _bad_query_message(n, mode):
    if mode not in ("disjoint", "partition", "both"):
        return "mode must be 'disjoint', 'partition' or 'both'"
    return re.escape(f"n must be in 1..4, got {n}")


@pytest.mark.parametrize("n, mode", [
    (2, "dijsoint"), (2, "partitions"), (2, None), (0, "both"), (5, "disjoint"),
])
def test_isoperimetric_constant_rejects_bad_arguments(n, mode):
    """A bad n or mode raises before the memo is read, even on a chain whose
    memo already holds every answer."""
    ch = natural_walk(cycle_graph(4))
    isoperimetric_table(ch)
    with pytest.raises(ValueError, match=_bad_query_message(n, mode)):
        isoperimetric_constant(ch, n, mode)


@pytest.mark.parametrize("max_n, mode", [
    (2, "partitions"), (None, "dijsoint"), (0, "both"), (-3, "both"), (5, "both"),
])
def test_isoperimetric_table_rejects_bad_arguments(max_n, mode):
    """An empty or too long range of n, or an unknown mode, raises instead of
    returning () or reports whose values are all None."""
    ch = natural_walk(cycle_graph(4))
    isoperimetric_table(ch)
    with pytest.raises(ValueError, match=_bad_query_message(max_n, mode)):
        isoperimetric_table(ch, max_n, mode=mode)


def test_classical_cheeger_values(k3, c4, dicycle3):
    assert classical_cheeger(k3, "mean") == F(3, 4)
    assert classical_cheeger(c4, "mean") == F(1, 2)
    assert classical_cheeger(dicycle3, "mean") == F(3, 4)
    assert classical_cheeger(k3, "min") == F(1)
    assert classical_cheeger(c4, "min") == F(1, 2)


def test_mean_cheeger_equals_iota2():
    for g in list(connected_graphs(4)) + [cycle_graph(5)]:
        ch = natural_walk(g)
        assert classical_cheeger(ch, "mean") == isoperimetric_constant(ch, 2).iota


# ---------------------------------------------------------------------------
# Functional objective and rounding
# ---------------------------------------------------------------------------

def test_characteristic_family_achieves_iota(c4, k4):
    for ch in (c4, k4):
        for n in (1, 2, 3):
            rep = isoperimetric_constant(ch, n)
            fam = characteristic_family(ch, rep.witness)
            assert gamma_objective(ch, fam) == rep.iota


def test_gamma_objective_validation(c4):
    """Every invalid family is refused with the same message by gamma_objective
    and level_set_rounding, on both backends."""
    ok = characteristic_family(c4, subset_family([{0}, {2}], "disjoint", 4))
    gamma_objective(c4, ok)
    level_set_rounding(c4, ok)
    bad = [
        (PositiveOrthonormalFamily(()), "family has no functions", None),
        (PositiveOrthonormalFamily(((F(1), F(1), F(1)),)), "function 0 has wrong length", None),
        (PositiveOrthonormalFamily(((F(-4), F(0), F(0), F(0)),)),
         "function 0 is negative at vertex 0", None),
        (PositiveOrthonormalFamily(((F(0),) * 4,)), "function 0 is identically zero", None),
        (PositiveOrthonormalFamily(((F(1), F(0), F(0), F(0)),)),
         "function 0 has L1 pi-norm 1/4, expected 1", "function 0 has L1 pi-norm 0.25, expected 1"),
        (PositiveOrthonormalFamily(((F(4), F(0), F(0), F(0)), (F(2), F(2), F(0), F(0)))),
         "function 1 overlaps an earlier support", None),
        (PositiveOrthonormalFamily(((float("nan"), F(0), F(0), F(0)),)),
         "function 0 has a value that is not a finite number", None),
        # drawn on another chain: its form there does not carry over to c4
        (random_positive_family(natural_walk(path_graph(4)), 1, random.Random(5)),
         "function 0 has L1 pi-norm", None),
    ]
    for ch in (c4, _float_twin(c4)):
        for fam, message, float_message in bad:
            expected = float_message if float_message and not ch.exact else message
            for fn in (gamma_objective, level_set_rounding):
                with pytest.raises(InvalidFamily, match=re.escape(expected)):
                    fn(ch, fam)


@pytest.mark.parametrize("n", [-1, 0, 5])
def test_random_families_refuse_n_out_of_range(c4, n):
    for ch in (c4, _float_twin(c4)):
        for draw in (random_disjoint_family, random_positive_family):
            with pytest.raises(ValueError, match=re.escape(f"n must be in 1..4, got {n}")):
                draw(ch, n, random.Random(1))


@pytest.mark.parametrize("fn", [family_objective, proposition_bounds_check, characteristic_family])
def test_family_with_no_classes_is_refused(c4, fn):
    for ch in (c4, _float_twin(c4)):
        with pytest.raises(InvalidFamily, match="family has no classes"):
            fn(ch, SubsetFamily((), "disjoint"))


def test_characteristic_family_refuses_overlapping_classes(c4):
    fam = SubsetFamily((frozenset({0, 1}), frozenset({1, 2})), "disjoint")
    for ch in (c4, _float_twin(c4)):
        with pytest.raises(InvalidFamily, match="vertex 1 appears in two classes"):
            characteristic_family(ch, fam)


@pytest.mark.parametrize("fn", [family_objective, proposition_bounds_check, characteristic_family])
def test_malformed_subset_family_is_refused(c4, fn):
    """A hand-built family that subset_family refuses is refused with the same
    message by every consumer of a subset family, on both backends."""
    bad = [
        (({0, 1}, {1, 2}), "disjoint", "vertex 1 appears in two classes"),
        (({0}, set()), "disjoint", "empty class in family"),
        (({0}, {4}), "disjoint", "vertex 4 out of range"),
        (({-1}, {2}), "disjoint", "vertex -1 out of range"),
        (({0, 1}, {2}), "partition", "partition does not cover the vertex set"),
        (({0}, {2}), "cover", "unknown family mode 'cover'"),
    ]
    for classes, mode, message in bad:
        with pytest.raises(InvalidFamily, match=re.escape(message)):
            subset_family(classes, mode, 4)
        for ch in (c4, _float_twin(c4)):
            with pytest.raises(InvalidFamily, match=re.escape(message)):
                fn(ch, SubsetFamily(tuple(map(frozenset, classes)), mode))


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(rational_chains(1, 9), st.data())
def test_built_families_revalidate_to_their_form(ch, data):
    """A family built by random_positive_family or characteristic_family,
    exact or float, carries the form its plain functions validate to: the
    same values, and the same gamma and level-set rounding."""
    v = ch.graph.vertex_count
    n = data.draw(st.integers(1, v))
    partition = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2 ** 32))
    for c in (ch, _float_twin(ch)):
        rng = random.Random(seed)
        fams = [random_positive_family(c, n, rng, partition) for _ in range(3)]
        fams += [characteristic_family(c, random_disjoint_family(c, n, rng, partition))
                 for _ in range(3)]
        for fam in fams:
            plain = PositiveOrthonormalFamily(fam.functions)
            assert fam._form[0] is c
            assert [[F(x, d) for x in nums] for nums, d in fam._form[1]] == [
                [F(x, d) for x in nums] for nums, d in validate_positive_family(c, plain)]
            assert repr(gamma_objective(c, plain)) == repr(gamma_objective(c, fam))
            assert level_set_rounding(c, plain) == level_set_rounding(c, fam)


def test_random_families_dominate_iota(c4, p3):
    rng = random.Random(61)
    for ch in (c4, p3):
        v = ch.graph.vertex_count
        for n in range(1, v + 1):
            iota = isoperimetric_constant(ch, n, "disjoint").iota
            for _ in range(200):
                fam = random_positive_family(ch, n, rng)
                assert gamma_objective(ch, fam) >= iota


def test_partition_supported_chain(c4, p3):
    # families with partition supports sit between iota_n and iota~_n: every
    # sample dominates iota_n, and the witness indicators achieve iota~_n
    rng = random.Random(63)
    for ch in (c4, p3):
        v = ch.graph.vertex_count
        for n in range(1, v + 1):
            rep = isoperimetric_constant(ch, n)
            tilde_char = gamma_objective(ch, characteristic_family(ch, rep.witness_tilde))
            assert tilde_char == family_objective(ch, rep.witness_tilde) == rep.iota_tilde
            assert rep.iota <= rep.iota_tilde
            for _ in range(100):
                fam = random_positive_family(ch, n, rng, partition=True)
                assert gamma_objective(ch, fam) >= rep.iota


def test_rounding_characteristic_returns_supports(c4):
    wit = subset_family([{0, 1}, {2, 3}], "disjoint", 4)
    fam = characteristic_family(c4, wit)
    assert level_set_rounding(c4, fam).classes == wit.classes


def test_rounding_never_increases_objective(c4, c6):
    rng = random.Random(67)
    for ch in (c4, c6):
        for n in (1, 2, 3):
            for _ in range(100):
                fam = random_positive_family(ch, n, rng)
                rounded = level_set_rounding(ch, fam)
                assert family_objective(ch, rounded) <= gamma_objective(ch, fam)


def test_rounding_two_level_example(c4):
    raw = [(F(2), F(1), F(0), F(0)), (F(0), F(0), F(3), F(1))]
    fam = PositiveOrthonormalFamily(
        tuple(tuple(x / sum(a * p for a, p in zip(f, c4.pi)) for x in f) for f in raw)
    )
    rounded = level_set_rounding(c4, fam)
    assert family_objective(c4, rounded) <= gamma_objective(c4, fam)
    for cls, f in zip(sorted(rounded.classes, key=min), raw):
        assert cls <= {v for v, x in enumerate(f) if x > 0}


def _rounded(ch, q):
    """A value as the chain returns it: exact on an exact chain, else the
    correctly rounded float of the exact value."""
    return q if ch.exact else float(q)


def _exact_flows(ch):
    """The exact values of the chain's own pi and phi (a float is a dyadic rational)."""
    return [F(p) for p in ch.pi], [[F(x) for x in row] for row in ch.phi]


def _reference_draw(ch, n, rng, partition):
    """random_positive_family as a plain Fraction draw: one anchor per class,
    the rest uniform, values a/b normalized by their exact pi-weighted sum,
    then rounded once on a float chain."""
    v = ch.graph.vertex_count
    pi, _ = _exact_flows(ch)
    perm = rng.sample(range(v), v)
    labels = [0] * v
    for k in range(n):
        labels[perm[k]] = k + 1
    for u in perm[n:]:
        labels[u] = rng.randint(1 if partition else 0, n)
    functions = []
    for k in range(1, n + 1):
        vals = [F(0)] * v
        for u in range(v):
            if labels[u] == k:
                vals[u] = F(rng.randint(1, 9), rng.randint(1, 9))
        norm = sum(x * p for x, p in zip(vals, pi))
        functions.append(tuple(_rounded(ch, x / norm) for x in vals))
    return tuple(functions)


def _reference_ratio(ch, cls):
    """boundary(Q) / pi(Q) from the definitions, exact: the Fraction sums over
    the arcs leaving Q of the chain's own flows."""
    v = ch.graph.vertex_count
    pi, phi = _exact_flows(ch)
    out = sum((phi[a][b] for a in cls for b in range(v) if b not in cls), F(0))
    return out / sum(pi[a] for a in cls)


def _reference_gamma(ch, functions):
    """The mean directed gradient norm of the functions' exact values, exact."""
    v = ch.graph.vertex_count
    _, phi = _exact_flows(ch)
    total = sum(
        (max(F(f[a]) - F(f[b]), 0) * phi[a][b]
         for f in functions for a in range(v) for b in range(v)),
        F(0),
    )
    return total / len(functions)


def _reference_rounding(ch, functions):
    """Per function, the superlevel set {f >= t} of least exact ratio over the
    positive values t taken in decreasing order, the first on ties."""
    v = ch.graph.vertex_count
    classes = []
    for f in functions:
        best = best_set = None
        for t in sorted({x for x in f if x > 0}, reverse=True):
            members = [u for u in range(v) if f[u] >= t]
            ratio = _reference_ratio(ch, members)
            if best is None or ratio < best:
                best, best_set = ratio, members
        classes.append(best_set)
    return subset_family(classes, "disjoint", v)


def _reference_bounds(ch, classes):
    """Exact (lhs, rhs) of S and T as the definitions read: each candidate
    family's ratios added in full, then the minimum."""
    v = ch.graph.vertex_count
    pi, phi = _exact_flows(ch)
    n = len(classes)
    ratios = [_reference_ratio(ch, c) for c in classes]
    star = [u for u in range(v) if not any(u in c for c in classes)]
    p = sum((pi[u] for u in star), F(0))
    b = sum((phi[a][c] for a in star for c in range(v) if c not in star), F(0))
    out = {"S": (
        min((_reference_ratio(ch, set(classes[j]) | set(star))
             + sum(ratios[i] for i in range(n) if i != j)) / n for j in range(n)),
        ((n - 2) * b + (1 + (n - 2) * p) * sum(ratios)) / (n * (1 + (n - 1) * p)),
    )}
    if n >= 2:
        m = n - 1
        out["T"] = (
            min((_reference_ratio(ch, set(classes[j]) | set(classes[k]))
                 + sum(ratios[i] for i in range(n) if i not in (j, k))) / m
                for j in range(n) for k in range(j + 1, n)),
            b / (m * m * (1 - p)) + F(m - 1, m * m) * sum(ratios),
        )
    return out


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(rational_chains(4, 7), st.data())
def test_positive_family_layer_matches_reference(ch, data):
    """The integer positive-family layer and cut functionals against plain
    Fraction formulas over the exact values of each chain's own pi and phi,
    rounded once, bit for bit on the exact chain and on its float twin: drawn
    functions and RNG state, gamma, level-set rounding (a brute force over
    superlevel sets), the family objective, the cut ratios and the S and T
    bounds.  Their verdict is exact on the exact chain and `at_most` of the
    rounded sides on the float twin, and the identities S at n = 1 and T at
    n = 2 hold on both."""
    v = ch.graph.vertex_count
    n = data.draw(st.integers(1, v))
    partition = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2 ** 32))
    for c in (ch, _float_twin(ch)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(4):
            fam = random_positive_family(c, n, rng, partition)
            want = _reference_draw(c, n, ref_rng, partition)
            assert repr(fam.functions) == repr(want)
            assert rng.getstate() == ref_rng.getstate()
            assert repr(gamma_objective(c, fam)) == repr(_rounded(c, _reference_gamma(c, want)))
            rounded = level_set_rounding(c, fam)
            assert rounded == _reference_rounding(c, want)
            objective = sum(_reference_ratio(c, cls) for cls in rounded.classes) / n
            assert repr(family_objective(c, rounded)) == repr(_rounded(c, objective))
            for cls in rounded.classes:
                assert repr(c.boundary_ratio(cls)) == repr(_rounded(c, _reference_ratio(c, cls)))
        for _ in range(4):
            fam = random_disjoint_family(c, n, rng)
            got = proposition_bounds_check(c, fam)
            want = _reference_bounds(c, fam.classes)
            assert list(got) == list(want)
            for name, (lhs, rhs) in want.items():
                assert repr((got[name]["lhs"], got[name]["rhs"])) == repr(
                    (_rounded(c, lhs), _rounded(c, rhs))), name
                if c.exact:
                    assert got[name]["holds"] == (lhs <= rhs)
                else:
                    assert got[name]["holds"] == at_most(got[name]["lhs"], got[name]["rhs"])
            if n <= 2:
                assert got["S" if n == 1 else "T"]["holds"], (c, n)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(rational_chains(4, 7))
def test_float_twin_structural_identities(ch):
    """On a float chain every iota is the rounded exact value on the chain's own
    floats, so the identities exact arithmetic guarantees on any nonnegative
    flows hold bit for bit: iota_1 = iota~_1 = 0 and iota~_n >= iota_n.  The
    structural suite, whose float verdicts carry the float slack, passes."""
    twin = _float_twin(ch)
    table = isoperimetric_table(twin)
    assert table[0].iota == table[0].iota_tilde == 0.0
    assert all(isinstance(x, float) for rep in table for x in (rep.iota, rep.iota_tilde))
    for rep in table:
        assert rep.iota_tilde >= rep.iota, rep.n
    result = structural_inequalities_check(twin, samples=5, reports=table)
    assert result["passed"], result["findings"]


# ---------------------------------------------------------------------------
# Supergeometric classification
# ---------------------------------------------------------------------------

def test_complete_graphs_supergeometric():
    for n in (3, 4, 5, 6):
        rep = supergeometric_classify(natural_walk(complete_graph(n)))
        assert rep.supergeometric is True


def test_all_4_vertex_digraphs_supergeometric():
    for g in strongly_connected_digraphs(4):
        for build in (natural_walk, lazy_max_degree_kernel):
            rep = supergeometric_classify(build(g))
            assert rep.supergeometric is True, sorted(g.arcs)


def test_three_clique_gap():
    ch = natural_walk(three_clique_graph(3))
    rep = isoperimetric_constant(ch, 3)
    assert rep.iota == F(1, 7)
    assert rep.iota_tilde == F(17, 105)
    assert rep.iota < rep.iota_tilde
    assert [sorted(c) for c in rep.witness.classes] == [
        [1, 2, 3], [4, 5, 6], [7, 8, 9]]
    cls = supergeometric_classify(ch)
    assert cls.supergeometric is False


def test_three_clique_smallest_gap_block_size():
    # sweep upward: the first block size with a strict gap at n = 3
    for n in (1, 2, 3):
        ch = natural_walk(three_clique_graph(n))
        rep = isoperimetric_constant(ch, 3)
        if rep.iota < rep.iota_tilde:
            assert n == 3
            break
    else:
        pytest.fail("no strict gap found in the sweep")


def test_partial_classification_has_no_overall_verdict(c6):
    rep = supergeometric_classify(c6, max_n=3)
    assert rep.supergeometric is None
    assert [r[0] for r in rep.rows] == [2, 3]


def test_complete_graph_reference_flags_discrepancy():
    ref = complete_graph_reference(4, 3)
    assert ref["corrected"] == F(8, 9)
    assert ref["printed"] == F(8, 3)
    assert ref["discrepancy"] is True
    assert complete_graph_reference(4, 1)["discrepancy"] is False


# ---------------------------------------------------------------------------
# Structural inequalities
# ---------------------------------------------------------------------------

def test_structural_chain_c4(c4):
    out = structural_inequalities_check(c4, isoperimetric_table(c4), samples=40)
    assert out["passed"], out["findings"]
    assert out["iota_chain"] == (0, F(1, 2), F(5, 6), F(1))
    assert out["endpoint"] == F(1)


@pytest.mark.parametrize("doctor, checks", [
    # iota_2 and iota_3 swapped
    ({1: {"iota": 2}, 2: {"iota": 1}}, ["gap_lower", "two_geometric", "disjoint_monotone"]),
    # iota~_3 and iota~_4 swapped
    ({2: {"iota_tilde": 3}, 3: {"iota_tilde": 2}}, ["gap_lower", "partition_monotone"]),
    # iota_1 = iota~_1 = 1/2 and iota_4 = 0
    ({0: {"iota": 1, "iota_tilde": 1}, 3: {"iota": 0}},
     ["gap_upper", "partition_monotone", "disjoint_monotone", "chain_start", "chain_endpoint"]),
])
def test_structural_violations_are_findings(c4, doctor, checks):
    """A doctored C4 table, each changed value taken from another row of the
    true one, is reported as the named findings, on both backends."""
    for c in (c4, _float_twin(c4)):
        table = isoperimetric_table(c)
        bad = [dataclasses.replace(rep, **{k: getattr(table[src], k) for k, src in
                                            doctor.get(i, {}).items()})
               for i, rep in enumerate(table)]
        out = structural_inequalities_check(c, bad, samples=2)
        assert out["passed"] is False
        assert [f["check"] for f in out["findings"]] == checks, c


def test_structural_lazy_endpoint():
    ch = lazy_max_degree_kernel(path_graph(3))
    out = structural_inequalities_check(ch, isoperimetric_table(ch), samples=40)
    assert out["passed"], out["findings"]
    assert out["endpoint"] == F(2, 3)
    assert out["iota_chain"][-1] == F(2, 3)


def test_structural_check_refuses_a_table_that_is_not_full_and_two_sided():
    """A table shorter or longer than the vertex count, or one with a side left
    out, is refused with a ValueError, not a raw IndexError or TypeError."""
    ch = natural_walk(cycle_graph(5))
    for table in (isoperimetric_table(ch, 3),
                  isoperimetric_table(ch) + isoperimetric_table(ch, 1),
                  isoperimetric_table(ch, mode="disjoint"),
                  isoperimetric_table(ch, mode="partition")):
        with pytest.raises(ValueError, match="full two-sided isoperimetric_table"):
            structural_inequalities_check(ch, table, samples=1)


def test_loop_free_endpoint_is_one(k4, dicycle3):
    for ch in (k4, dicycle3):
        v = ch.graph.vertex_count
        assert isoperimetric_constant(ch, v).iota == 1


def test_proposition_bounds_random():
    rng = random.Random(71)
    for g in (cycle_graph(5), complete_graph(4), path_graph(4)):
        ch = natural_walk(g)
        v = g.vertex_count
        for n in range(1, v + 1):
            for _ in range(50):
                fam = random_disjoint_family(ch, n, rng)
                for res in proposition_bounds_check(ch, fam).values():
                    assert res["holds"]
