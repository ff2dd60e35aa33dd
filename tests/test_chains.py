import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isospec.chains import (
    build_chain,
    lazy_max_degree_kernel,
    natural_walk,
    reversibilize,
    solve_stationary_exact,
)
from isospec.corpus import corpus_chains
from isospec.documents import parse_chain
from isospec.errors import KernelError, NoNowherezeroStationary
from isospec.graphs import (
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    three_clique_graph,
)

F = Fraction


def test_directed_cycle_uniform_pi(dicycle3):
    assert dicycle3.pi == (F(1, 3), F(1, 3), F(1, 3))
    for u in range(3):
        assert dicycle3.phi[u][(u + 1) % 3] == F(1, 3)


def test_path_pi(p3):
    assert p3.pi == (F(1, 4), F(1, 2), F(1, 4))


def test_disconnected_chain_rejected():
    g = make_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(NoNowherezeroStationary):
        natural_walk(g)


def test_complete_graph_natural_kernel():
    ch = natural_walk(complete_graph(5))
    for u in range(5):
        for v in range(5):
            assert ch.kernel[u][v] == (F(1, 4) if u != v else 0)
    assert ch.pi == (F(1, 5),) * 5


def test_three_clique_hub_mass():
    for n in (2, 3, 4):
        ch = natural_walk(three_clique_graph(n))
        assert ch.pi[0] == F(1, n * n - n + 2)


def test_sink_vertex_rejected():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(KernelError):
        natural_walk(g)


def test_lazy_kernel_path():
    ch = lazy_max_degree_kernel(path_graph(3))
    K = ch.kernel
    assert K[0][0] == F(1, 2) and K[0][1] == F(1, 2)
    assert K[1][0] == F(1, 2) and K[1][1] == 0 and K[1][2] == F(1, 2)
    assert ch.uniform_pi_stationary is True
    assert ch.pi == (F(1, 3),) * 3


def test_lazy_kernel_regular_equals_natural():
    g = complete_graph(4)
    assert lazy_max_degree_kernel(g).kernel == natural_walk(g).kernel


def test_lazy_kernel_nonuniform_digraph():
    g = make_graph(3, [(0, 1), (0, 2), (1, 2), (2, 0)])
    ch = lazy_max_degree_kernel(g)
    assert ch.uniform_pi_stationary is False
    assert ch.pi == (F(1, 4), F(1, 4), F(1, 2))


def test_lazy_kernel_loop_branch():
    g = make_graph(2, [(0, 0), (0, 1), (1, 0)])
    ch = lazy_max_degree_kernel(g)
    # out-degrees: d0 = 2 (loop counted), d1 = 1; d_max = 2
    assert ch.kernel[0][0] == F(1, 2)
    assert ch.kernel[1][1] == F(1, 2)
    assert sum(ch.kernel[0]) == 1


def test_reversibilize_directed_cycle(dicycle3):
    rev = reversibilize(dicycle3)
    for u in range(3):
        for v in range(3):
            if u != v:
                assert rev.kernel[u][v] == F(1, 2)
    assert rev.pi == dicycle3.pi


def test_reversibilize_fixed_point_and_idempotent(c4):
    rev = reversibilize(c4)
    assert rev.kernel == c4.kernel
    assert reversibilize(rev).kernel == rev.kernel


def test_reversibilized_kernel_self_adjoint(p3):
    rev = reversibilize(p3)
    n = 3
    for u in range(n):
        for v in range(n):
            assert rev.pi[u] * rev.kernel[u][v] == rev.pi[v] * rev.kernel[v][u]


def test_boundary_examples(c4, dicycle3):
    assert c4.directed_boundary({0, 1}) == F(1, 4)
    assert c4.pi_mass({0, 1}) == F(1, 2)
    assert c4.directed_boundary(range(4)) == 0
    assert dicycle3.directed_boundary({0}) == F(1, 3)
    assert dicycle3.inflow({0}) == F(1, 3)


def test_boundary_empty_set_rejected(c4):
    with pytest.raises(ValueError):
        c4.directed_boundary(set())


def test_flow_conservation_random_subsets():
    rng = random.Random(7)
    chains = [
        natural_walk(cycle_graph(5)),
        natural_walk(make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
        lazy_max_degree_kernel(path_graph(4)),
    ]
    for ch in chains:
        n = ch.graph.vertex_count
        for _ in range(25):
            q = {v for v in range(n) if rng.random() < 0.5}
            if not q or len(q) == n:
                continue
            out = ch.directed_boundary(q)
            comp = set(range(n)) - q
            assert out == ch.inflow(q) == ch.directed_boundary(comp)


def test_stochastic_invariants(p3, dicycle3):
    for ch in (p3, dicycle3):
        n = ch.graph.vertex_count
        for mat in (ch.kernel, ch.kbar):
            for u in range(n):
                assert sum(mat[u]) == 1
            for v in range(n):
                assert sum(ch.pi[u] * mat[u][v] for u in range(n)) == ch.pi[v]
        assert sum(sum(row) for row in ch.phi) == 1
        for u in range(n):
            for v in range(n):
                assert ch.phibar[u][v] == ch.phibar[v][u]


def test_explicit_kernel_validation():
    g = make_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(KernelError):
        build_chain(g, [[F(1, 2), F(1, 3)], [F(1), F(0)]])
    g2 = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    bad_support = [[0, F(1, 2), F(1, 2)], [0, 0, 1], [1, 0, 0]]
    with pytest.raises(KernelError):
        build_chain(g2, bad_support)


def test_non_finite_kernel_entry_rejected():
    g = make_graph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    for bad in (float("nan"), float("inf"), float("-inf")):
        K = [[0.0, 0.5, bad], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        with pytest.raises(KernelError, match=re.escape("non-finite kernel entry at (0,2)")):
            build_chain(g, K)
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    with pytest.raises(NoNowherezeroStationary, match="non-finite"):
        build_chain(make_graph(3, [(0, 1), (1, 2), (2, 0)]), cycle, pi=(float("nan"), 0.5, 0.5))


def test_exact_solver_matches_known_values():
    K = [[0, 1, 0], [F(1, 2), 0, F(1, 2)], [0, 1, 0]]
    assert solve_stationary_exact(K) == (F(1, 4), F(1, 2), F(1, 4))


def test_float_backend_roundtrip():
    g = cycle_graph(4)
    K = [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
         [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]
    ch = build_chain(g, K)
    assert not ch.exact
    assert ch.pi == (0.25,) * 4


def tree_theorem_pi(kernel):
    """The Markov chain tree theorem on the row-normalized exact values of a
    kernel: pi_v is proportional to the sum, over the spanning arborescences
    directed into v, of the product of their arc weights."""
    rows = [[F(x) for x in row] for row in kernel]
    q = [[x / sum(row) for x in row] for row in rows]
    n = len(q)
    weights = []
    for root in range(n):
        others = [u for u in range(n) if u != root]
        choices = [[w for w in range(n) if w != u and q[u][w]] for u in others]
        total = F(0)
        for targets in itertools.product(*choices):
            succ = dict(zip(others, targets))
            if all(_reaches(succ, u, root) for u in others):
                total += math.prod(q[u][succ[u]] for u in others)
        weights.append(total)
    return tuple(w / sum(weights) for w in weights)


def _reaches(succ, u, root):
    seen = set()
    while u != root:
        if u in seen:
            return False
        seen.add(u)
        u = succ[u]
    return True


@st.composite
def float_kernels(draw):
    """A random strongly connected digraph on 2..6 vertices (a Hamiltonian cycle
    plus random arcs) with float arc weights from 1e-9 to 10 and a diagonal of 0
    or such a weight, each row divided by its float sum."""
    v = draw(st.integers(2, 6))
    order = draw(st.permutations(range(v)))
    arcs = {(order[i], order[(i + 1) % v]) for i in range(v)}
    others = [(a, b) for a in range(v) for b in range(v) if a != b and (a, b) not in arcs]
    if others:
        arcs |= set(draw(st.lists(st.sampled_from(others), max_size=2 * v)))
    weight = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1, 10), st.integers(-9, 0))
    rows = []
    for a in range(v):
        w = [draw(weight) if (a, b) in arcs else 0.0 for b in range(v)]
        w[a] = draw(st.one_of(st.just(0.0), weight))
        total = sum(w)
        rows.append([x / total for x in w])
    return make_graph(v, sorted(arcs)), rows


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(float_kernels())
def test_float_pi_is_the_rounded_exact_law(case):
    """A float kernel's pi is its exact law rounded once; under --float, a
    natural, lazy or explicit rational document's pi is its exact pi rounded
    once."""
    graph, K = case
    ch = build_chain(graph, K)
    assert not ch.exact
    law = tree_theorem_pi(K)
    assert ch.pi == tuple(float(p) for p in law)
    rows = [[F(x) for x in row] for row in K]
    explicit = {"type": "explicit", "matrix": [[str(x / sum(row)) for x in row] for row in rows]}
    for kernel in ({"type": "natural"}, {"type": "lazy"}, explicit):
        text = json.dumps({"vertices": graph.vertex_count,
                           "arcs": sorted(map(list, graph.arcs)), "kernel": kernel})
        exact = parse_chain(text)
        assert parse_chain(text, backend="float").pi == tuple(float(p) for p in exact.pi)
    assert exact.pi == law  # the explicit document holds K, row-normalized


def test_two_state_float_kernel_pi_is_correctly_rounded():
    """The slowly mixing kernel [[1 - e, e], [2e, 1 - 2e]]: its pi is its exact
    law rounded once, at e = 1e-4 and at e = 1e-6."""
    g = make_graph(2, [(0, 1), (1, 0)])
    eps = 1e-4
    ch = build_chain(g, [[1 - eps, eps], [2 * eps, 1 - 2 * eps]])
    assert ch.pi == (0.6666666666666666, 0.3333333333333333)
    eps = 1e-6
    K = [[1 - eps, eps], [2 * eps, 1 - 2 * eps]]
    assert build_chain(g, K).pi == tuple(float(p) for p in tree_theorem_pi(K))


def test_float_pi_below_the_float_range_rejected():
    """pi_2 is about 1e-400 here: its rounding to 0.0 is refused, not divided by."""
    g = make_graph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    K = [[1.0, 1e-200, 0.0], [0.5, 0.5 - 1e-200, 1e-200], [0.0, 1.0, 0.0]]
    with pytest.raises(NoNowherezeroStationary, match="underflows"):
        build_chain(g, K)


def test_exact_solver_matches_the_tree_theorem():
    """On a float row that misses 1 (here 0.1 + 0.2 + 0.7, exactly) the solve is
    the law of the row-normalized kernel; on an exact kernel, its law."""
    assert sum(F(x) for x in (0.1, 0.2, 0.7)) != 1
    K = [[0.1, 0.2, 0.7], [0.5, 0.0, 0.5], [0.25, 0.75, 0.0]]
    assert solve_stationary_exact(K) == tree_theorem_pi(K)
    exact = [[F(1, 10), F(1, 5), F(7, 10)], [F(1, 2), 0, F(1, 2)], [F(1, 4), F(3, 4), 0]]
    assert solve_stationary_exact(exact) == tree_theorem_pi(exact)


@st.composite
def stochastic_kernels(draw):
    """A random strongly connected kernel on 2..9 vertices: a Hamiltonian cycle
    plus up to V more arcs, integer weights 1..9, a diagonal of 0 or such a
    weight, each row divided by its sum in Fractions."""
    v = draw(st.integers(2, 9))
    order = draw(st.permutations(range(v)))
    arcs = {(order[i], order[(i + 1) % v]) for i in range(v)}
    others = [(a, b) for a in range(v) for b in range(v) if a != b and (a, b) not in arcs]
    if others:
        arcs |= set(draw(st.lists(st.sampled_from(others), max_size=v)))
    rows = []
    for a in range(v):
        w = [draw(st.integers(1, 9)) if (a, b) in arcs else 0 for b in range(v)]
        w[a] = draw(st.integers(0, 9))
        rows.append([F(x, sum(w)) for x in w])
    return rows


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(stochastic_kernels())
def test_stationary_solve_matches_the_tree_theorem(K):
    """The fraction-free solve is the tree-theorem law of the kernel, exact and
    on its float twin, whose rows may miss 1 by their rounding."""
    assert solve_stationary_exact(K) == tree_theorem_pi(K)
    twin = [[float(x) for x in row] for row in K]
    assert solve_stationary_exact(twin) == tree_theorem_pi(twin)


@pytest.mark.parametrize("K", [
    # two closed classes {0, 1} and {2, 3}
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    # transient vertex 0 placed first, closed class {1, 2}
    [[0, F(1, 2), F(1, 2)], [0, 0, 1], [0, 1, 0]],
    # transient vertex 2 placed last, closed class {0, 1}
    [[0, 1, 0], [1, 0, 0], [F(1, 2), F(1, 2), 0]],
])
def test_stationary_solve_refuses_reducible_kernels(K):
    """Passed straight to the solver, past build_chain's connectivity check, a
    reducible kernel is refused on both backends."""
    for kernel in (K, [[float(x) for x in row] for row in K]):
        with pytest.raises(NoNowherezeroStationary):
            solve_stationary_exact(kernel)


def test_uniform_pi_stationary_is_read_from_pi(p3, dicycle3):
    assert dicycle3.uniform_pi_stationary is True
    assert p3.uniform_pi_stationary is False


def test_corpus_chains_are_new_objects_per_call():
    """Results memoized on a chain live as long as the chain, so each caller
    of corpus_chains gets its own chains; the graphs are shared."""
    first, second = corpus_chains(), corpus_chains()
    assert [name for name, _ in first] == [name for name, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a is not b and a.graph is b.graph
        assert (a.kernel, a.pi) == (b.kernel, b.pi)
