import random
from fractions import Fraction

import pytest

from isospec.calculus import (
    combinatorial_laplacian,
    divergence,
    duval_reiner_sides,
    grad_adjoint_grad_matrix,
    grad_norm1,
    grad_norm2_squared,
    gradient,
    gradient_norm1,
    gradient_norm2_squared,
    inner_phi,
    inner_pi,
    kernel_apply,
    laplacian_apply,
    laplacian_matrix,
    negative_part,
    positive_part,
)
from isospec.chains import build_chain, natural_walk
from isospec.errors import InvalidFamily
from isospec.graphs import complete_graph, cycle_graph, make_graph, path_graph, subset_family

F = Fraction

SAMPLE = (F(1), F(0), F(-1), F(0))


def rand_f(rng, n):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))


def rand_chain(rng):
    """A random strongly connected graph on 3..6 vertices with a random rational kernel."""
    while True:
        n = rng.randint(3, 6)
        arcs = {(u, (u + 1) % n) for u in range(n)}
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    arcs.add((u, v))
        g = make_graph(n, sorted(arcs))
        rows = []
        for u in range(n):
            outs = g.out_neighbors(u)
            weights = [F(rng.randint(1, 9)) for _ in outs]
            total = sum(weights)
            row = [F(0)] * n
            for v, w in zip(outs, weights):
                row[v] = w / total
            rows.append(row)
        return build_chain(g, rows)


def test_positive_negative_parts():
    f = (F(3), F(-2), F(0))
    assert positive_part(f) == (F(3), F(0), F(0))
    assert negative_part(f) == (F(0), F(2), F(0))
    assert all(a - b == c for a, b, c in zip(positive_part(f), negative_part(f), f))


def test_constant_function_has_zero_gradients(c4):
    f = (F(2),) * 4
    for variant in ("directed", "classical", "symmetric"):
        assert all(v == 0 for v in gradient(c4, f, variant).values())


def test_c4_gradient_norm_relations(c4):
    d = gradient_norm1(c4, SAMPLE, "directed")
    c = gradient_norm1(c4, SAMPLE, "classical")
    s = gradient_norm1(c4, SAMPLE, "symmetric")
    assert d == F(1, 2)
    assert c == F(1)
    assert s == F(1, 2)


def test_characteristic_gradient_is_boundary(c4, p3):
    for ch in (c4, p3):
        n = ch.graph.vertex_count
        for mask in range(1, (1 << n) - 1):
            q = {v for v in range(n) if mask >> v & 1}
            chi = tuple(F(1) if v in q else F(0) for v in range(n))
            assert gradient_norm1(ch, chi, "directed") == ch.directed_boundary(q)


def test_divergence_adjointness_random():
    rng = random.Random(11)
    for _ in range(100):
        ch = rand_chain(rng)
        n = ch.graph.vertex_count
        f = rand_f(rng, n)
        F_arc = {arc: F(rng.randint(-9, 9), rng.randint(1, 9))
                 for arc in ch.graph.sdg_arcs()}
        lhs = inner_phi(ch, gradient(ch, f, "classical"), F_arc)
        rhs = inner_pi(ch, f, divergence(ch, F_arc))
        assert lhs == rhs


def test_divergence_of_zero(c4):
    z = {arc: F(0) for arc in c4.graph.sdg_arcs()}
    assert divergence(c4, z) == (F(0),) * 4


def test_div_grad_is_twice_laplacian():
    rng = random.Random(13)
    chains = [natural_walk(cycle_graph(4)), natural_walk(path_graph(3))]
    chains += [rand_chain(rng) for _ in range(10)]
    for ch in chains:
        n = ch.graph.vertex_count
        D = laplacian_matrix(ch, "symmetric")
        GG = grad_adjoint_grad_matrix(ch)
        assert all(2 * D[i][j] == GG[i][j] for i in range(n) for j in range(n))


def test_laplacian_annihilates_constants(p3, dicycle3):
    for ch in (p3, dicycle3):
        ones = (F(1),) * ch.graph.vertex_count
        assert laplacian_apply(ch, ones, "directed") == (F(0),) * ch.graph.vertex_count
        assert laplacian_apply(ch, ones, "symmetric") == (F(0),) * ch.graph.vertex_count


def test_laplacian_is_f_minus_kernel_apply():
    """K f and K_bar f are the row sums in vertex order, and (I - M) f is
    f - M f from them, bit for bit on a float chain too."""
    rng = random.Random(29)
    for _ in range(20):
        ch = rand_chain(rng)
        f = rand_f(rng, ch.graph.vertex_count)
        twin = build_chain(ch.graph, [[float(x) for x in row] for row in ch.kernel])
        for chain, g in ((ch, f), (twin, tuple(float(x) for x in f))):
            for variant, mat in (("directed", chain.kernel), ("symmetric", chain.kbar)):
                mg = kernel_apply(chain, g, variant)
                assert mg == tuple(sum(row[v] * g[v] for v in range(len(g))) for row in mat)
                assert laplacian_apply(chain, g, variant) == tuple(x - y for x, y in zip(g, mg))


BAD_OPERATOR_VARIANTS = ["classical", "Directed", "kbar", None]
BAD_GRADIENT_VARIANTS = ["combinatorial", "Symmetric", "phi", None]


@pytest.mark.parametrize("variant", BAD_OPERATOR_VARIANTS)
def test_kernel_apply_rejects_unknown_variant(c4, variant):
    with pytest.raises(ValueError, match="unknown Laplacian variant"):
        kernel_apply(c4, SAMPLE, variant)


@pytest.mark.parametrize("variant", BAD_OPERATOR_VARIANTS)
def test_laplacian_apply_rejects_unknown_variant(c4, variant):
    with pytest.raises(ValueError, match="unknown Laplacian variant"):
        laplacian_apply(c4, SAMPLE, variant)


@pytest.mark.parametrize("variant", BAD_OPERATOR_VARIANTS)
def test_laplacian_matrix_rejects_unknown_variant(c4, variant):
    with pytest.raises(ValueError, match="unknown Laplacian variant"):
        laplacian_matrix(c4, variant)


@pytest.mark.parametrize("variant", BAD_GRADIENT_VARIANTS)
def test_grad_norm1_rejects_unknown_variant(c4, variant):
    F_arc = gradient(c4, SAMPLE, "classical")
    with pytest.raises(ValueError, match="unknown gradient variant"):
        grad_norm1(c4, F_arc, variant)


@pytest.mark.parametrize("variant", BAD_GRADIENT_VARIANTS)
def test_grad_norm2_squared_rejects_unknown_variant(c4, variant):
    F_arc = gradient(c4, SAMPLE, "classical")
    with pytest.raises(ValueError, match="unknown gradient variant"):
        grad_norm2_squared(c4, F_arc, variant)


def test_c4_eigenfunction(c4):
    assert laplacian_apply(c4, SAMPLE, "symmetric") == SAMPLE


def test_dirichlet_form_identities_random():
    rng = random.Random(17)
    for _ in range(60):
        ch = rand_chain(rng)
        f = rand_f(rng, ch.graph.vertex_count)
        energy = inner_pi(ch, laplacian_apply(ch, f, "symmetric"), f)
        directed_energy = inner_pi(ch, laplacian_apply(ch, f, "directed"), f)
        sym = gradient_norm2_squared(ch, f, "symmetric")
        classical = gradient_norm2_squared(ch, f, "classical")
        assert energy == directed_energy == sym
        assert classical == 2 * sym


def test_norm_lemma_relations_random():
    rng = random.Random(19)
    for _ in range(60):
        ch = rand_chain(rng)
        f = rand_f(rng, ch.graph.vertex_count)
        d1 = gradient_norm1(ch, f, "directed")
        c1 = gradient_norm1(ch, f, "classical")
        s1 = gradient_norm1(ch, f, "symmetric")
        assert d1 == c1 / 2 == s1
        assert d1 == gradient_norm1(ch, positive_part(f), "directed") + \
            gradient_norm1(ch, negative_part(f), "directed")
        # Cauchy-Schwarz relations, compared after squaring
        c2sq = gradient_norm2_squared(ch, f, "classical")
        s2sq = gradient_norm2_squared(ch, f, "symmetric")
        assert c1 * c1 <= c2sq
        assert s1 * s1 <= F(1, 2) * s2sq
        # quadratic-vs-linear norm bound for f^2
        fsq = tuple(x * x for x in f)
        lhs = gradient_norm1(ch, fsq, "directed")
        l1 = sum(abs(x) * p for x, p in zip(fsq, ch.pi))
        if l1 != 0:
            assert lhs * lhs * l1 <= 2 * s2sq * l1 * l1
            csq_f2 = gradient_norm1(ch, fsq, "classical")
            assert csq_f2 * csq_f2 * l1 <= 4 * c2sq * l1 * l1


def test_combinatorial_laplacian_path():
    cl = combinatorial_laplacian(path_graph(3))
    assert cl.matrix == (
        (F(1), F(-1), F(0)),
        (F(-1), F(2), F(-1)),
        (F(0), F(-1), F(1)),
    )
    assert cl.d_max == 2
    # characteristic polynomial x^3 - 4x^2 + 3x has roots {0, 1, 3}
    for x in (F(0), F(1), F(3)):
        m = [[cl.matrix[i][j] - (x if i == j else 0) for j in range(3)] for i in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det == 0


def test_combinatorial_laplacian_complete_and_single_arc():
    n = 4
    cl = combinatorial_laplacian(complete_graph(n))
    for i in range(n):
        for j in range(n):
            assert cl.matrix[i][j] == (n - 1 if i == j else -1)
    one_arc = combinatorial_laplacian(make_graph(2, [(0, 1)]))
    assert one_arc.matrix[0][1] == F(-1, 2)


def test_duval_reiner_single_class(c4):
    rng = random.Random(23)
    f = rand_f(rng, 4)
    part = subset_family([set(range(4))], "partition", 4)
    lhs, rhs = duval_reiner_sides(c4, f, part, [F(1)], F(3, 7))
    assert lhs == rhs
    delta_f = laplacian_apply(c4, f, "symmetric")
    assert lhs == inner_pi(c4, delta_f, f) - F(3, 7) * inner_pi(c4, f, f)


def test_duval_reiner_equal_coefficients(c4):
    rng = random.Random(29)
    f = rand_f(rng, 4)
    part = subset_family([{0, 1}, {2}, {3}], "partition", 4)
    lhs, rhs = duval_reiner_sides(c4, f, part, [F(2), F(2), F(2)], F(1, 3))
    assert lhs == rhs


def test_duval_reiner_random_instances():
    rng = random.Random(31)
    for _ in range(150):
        ch = rand_chain(rng)
        n = ch.graph.vertex_count
        k = rng.randint(1, n)
        labels = [rng.randint(1, k) for _ in range(n)]
        for j in range(k):
            labels[rng.randrange(n)] = j + 1
        if len(set(labels)) != k:
            continue
        classes = [{v for v in range(n) if labels[v] == j + 1} for j in range(k)]
        part = subset_family(classes, "partition", n)
        f = rand_f(rng, n)
        coeffs = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(len(part.classes))]
        zeta = F(rng.randint(-5, 5), rng.randint(1, 5))
        lhs, rhs = duval_reiner_sides(ch, f, part, coeffs, zeta)
        assert lhs == rhs


def test_duval_reiner_validates_inputs(c4):
    part = subset_family([{0, 1}, {2, 3}], "partition", 4)
    with pytest.raises(InvalidFamily):
        duval_reiner_sides(c4, SAMPLE, part, [F(1)], F(0))
    disjoint = subset_family([{0}, {2}], "disjoint", 4)
    with pytest.raises(InvalidFamily):
        duval_reiner_sides(c4, SAMPLE, disjoint, [F(1), F(1)], F(0))
