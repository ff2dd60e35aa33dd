import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isospec.calculus import laplacian_apply, restrict
from isospec.chains import build_chain, natural_walk
from isospec.errors import PreconditionUnmet
from isospec.graphs import complete_graph, connected_graphs, cycle_graph, make_graph
from isospec.isoperimetry import isoperimetric_constant, isoperimetric_table
from isospec.nodal import (
    CompatibleSet,
    bipolar_part_check,
    cheeger_lower,
    cheeger_upper,
    compatible_set_search,
    duval_reiner_bound,
    eigenfunction_compatible_set,
    excessive_check,
    gen_cheeger_probe,
    rayleigh_quotient,
    sign_decomposition,
    validate_compatible_set,
)
from isospec.spectral import SpectrumReport, spectrum
from isospec.tolerance import at_most

F = Fraction

SAMPLE = (F(1), F(0), F(-1), F(0))
ALT = (F(1), F(-1), F(1), F(-1))


def test_sign_decomposition_c4(c4):
    dec = sign_decomposition(c4.graph, SAMPLE)
    assert dec.positives == {0} and dec.negatives == {2}
    assert dec.kappa_plus == dec.kappa_minus == 1 and dec.kappa == 2
    dec2 = sign_decomposition(c4.graph, ALT)
    assert dec2.kappa_plus == dec2.kappa_minus == 2 and dec2.kappa == 4


def test_sign_decomposition_nonnegative(c4):
    dec = sign_decomposition(c4.graph, (F(1), F(2), F(0), F(3)))
    assert dec.kappa_minus == 0
    assert dec.positive_components == (frozenset({0, 1, 3}),)
    dec2 = sign_decomposition(c4.graph, (F(1), F(0), F(3), F(0)))
    assert dec2.positive_components == (frozenset({0}), frozenset({2}))


def test_sign_decomposition_parts(c4):
    dec = sign_decomposition(c4.graph, ALT)
    assert dec.parts == (
        (frozenset({0}), "nonnegative"), (frozenset({2}), "nonnegative"),
        (frozenset({1}), "nonpositive"), (frozenset({3}), "nonpositive"),
    )
    cs = eigenfunction_compatible_set(c4, spectrum(c4), 4)
    assert tuple(zip(cs.parts, cs.polarity)) == sign_decomposition(c4.graph, cs.functions[0]).parts


def test_float_zero_threshold(c4):
    dec = sign_decomposition(c4.graph, (1.0, 1e-14, -1.0, -1e-14))
    assert dec.zeros == {1, 3}


def test_excessive_checks(c4):
    # eigenfunction: equality, so both directions hold for its eigenvalue
    assert excessive_check(c4, SAMPLE, F(1), "Delta", "excessive")
    assert excessive_check(c4, SAMPLE, F(1), "Delta", "deficient")
    ones = (F(1),) * 4
    assert excessive_check(c4, ones, F(1), "K", "excessive")
    assert excessive_check(c4, ones, F(1), "K", "deficient")
    assert excessive_check(c4, SAMPLE, F(0), "K_bar", "deficient")
    assert not excessive_check(c4, SAMPLE, F(1, 2), "Delta", "excessive")


def test_bipolar_classification(c4):
    f = SAMPLE
    dec = sign_decomposition(c4.graph, f)
    for comp in dec.positive_components:
        assert bipolar_part_check(c4.graph, f, comp) == "nonnegative"
    assert bipolar_part_check(c4.graph, (F(1), F(1), F(2), F(3)), set(range(4))) == "nonnegative"
    assert bipolar_part_check(c4.graph, (F(1), F(1), F(-1), F(0)), {0, 1}) == "nonnegative"
    assert bipolar_part_check(c4.graph, (F(1), F(1), F(1), F(-1)), {0, 1}) == "neither"


def test_duval_reiner_bound_examples(c4):
    out = duval_reiner_bound(c4, SAMPLE, F(1), {0})
    assert out["holds"] and out["rayleigh"] == 1
    const = (F(2),) * 4
    out = duval_reiner_bound(c4, const, F(0), set(range(4)))
    assert out["holds"] and out["rayleigh"] == 0
    rep = spectrum(c4)
    f2 = rep.eigenbasis[1]
    dec = sign_decomposition(c4.graph, f2)
    out = duval_reiner_bound(c4, f2, rep.lambdas[1], dec.positive_components[0])
    assert out["holds"]


def test_duval_reiner_bound_rejects_bad_inputs(c4):
    with pytest.raises(PreconditionUnmet):
        duval_reiner_bound(c4, SAMPLE, F(1, 2), {0})
    with pytest.raises(PreconditionUnmet):
        duval_reiner_bound(c4, SAMPLE, F(1), {2})  # negative vertex, nonneg expected
    with pytest.raises(PreconditionUnmet):
        duval_reiner_bound(c4, SAMPLE, F(1), {1})  # f vanishes on Q


def _float_twin(ch):
    return build_chain(ch.graph, [[float(x) for x in row] for row in ch.kernel])


def test_duval_reiner_bound_refuses_float_noise_on_q(c4):
    # f vanishes on Q = {1} but for 1e-12 of noise, below tolerance.ZERO: the
    # float twin refuses it as the exact chain does, not a quotient of noise
    with pytest.raises(PreconditionUnmet, match="vanishes on its part"):
        duval_reiner_bound(_float_twin(c4), (1.0, 1e-12, -1.0, 0.0), 1.0, {1})
    with pytest.raises(PreconditionUnmet, match="vanishes on its part"):
        duval_reiner_bound(c4, SAMPLE, F(1), {1})


def test_duval_reiner_bound_empty_part_and_unknown_direction(c4):
    with pytest.raises(PreconditionUnmet, match="empty part"):
        duval_reiner_bound(c4, SAMPLE, F(1), set())
    with pytest.raises(ValueError, match="unknown direction"):
        duval_reiner_bound(c4, SAMPLE, F(1), {0}, "sideways")


@st.composite
def small_chains(draw):
    """A strongly connected digraph on 3..5 vertices (a Hamiltonian cycle plus
    random arcs) with integer weights 1..3 per arc and 0..3 on the diagonal,
    normalized per row."""
    v = draw(st.integers(3, 5))
    order = draw(st.permutations(range(v)))
    arcs = {(order[i], order[(i + 1) % v]) for i in range(v)}
    others = [(a, b) for a in range(v) for b in range(v) if a != b and (a, b) not in arcs]
    arcs |= set(draw(st.lists(st.sampled_from(others), max_size=v)))
    rows = []
    for a in range(v):
        w = [draw(st.integers(1, 3)) if (a, b) in arcs else 0 for b in range(v)]
        w[a] = draw(st.integers(0, 3))
        rows.append([F(x, sum(w)) for x in w])
    return build_chain(make_graph(v, sorted(arcs)), rows)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(small_chains(), st.data())
def test_duval_reiner_bound_matches_its_compatible_set(ch, data):
    """On an exact chain and its float twin, duval_reiner_bound raises exactly
    when the one-entry compatible set (zeta, f, Q) has problems, with those
    problems as its message, and otherwise returns the Rayleigh quotient of f
    on Q with the verdict quotient <= zeta."""
    v = ch.graph.vertex_count
    f = tuple(F(x) for x in data.draw(st.lists(st.integers(-2, 2), min_size=v, max_size=v)))
    # Q is a strong sign-graph of f, its zero set, or any vertex set, the
    # empty one included
    dec = sign_decomposition(ch.graph, f)
    components = dec.positive_components + dec.negative_components
    q = data.draw(st.sampled_from(list(components) + [dec.zeros, None]))
    if q is None:
        q = frozenset(data.draw(st.sets(st.integers(0, v - 1), max_size=v)))
    direction = data.draw(st.sampled_from(["excessive", "deficient"]))
    polarity = "nonnegative" if direction == "excessive" else "nonpositive"
    # the ratios (Delta f)(u) / f(u) are the zetas at which f turns excessive
    # or deficient; the extreme ones first, so the draw reaches both outcomes
    ratios = [d / x for d, x in zip(laplacian_apply(ch, f), f) if x != 0]
    zeta = data.draw(st.sampled_from(sorted(ratios, reverse=direction == "excessive")
                                     + [F(0), F(1), F(2)]))
    # noise below tolerance.ZERO where f vanishes, on the float twin only
    noise = data.draw(st.sampled_from([0.0, 1e-12]))
    twin_f = tuple(float(x) if x else noise for x in f)
    for chain, g, z in ((ch, f, zeta), (_float_twin(ch), twin_f, float(zeta))):
        problems = validate_compatible_set(chain, CompatibleSet((z,), (g,), (q,), (polarity,)))
        if problems:
            with pytest.raises(PreconditionUnmet) as exc:
                duval_reiner_bound(chain, g, z, q, direction)
            assert str(exc.value) == "; ".join(problems)
            continue
        quotient = rayleigh_quotient(chain, restrict(g, q))
        assert duval_reiner_bound(chain, g, z, q, direction) == {
            "zeta": z, "rayleigh": quotient, "holds": at_most(quotient, z),
        }


def test_cheeger_lower_examples(c4, k3):
    for ch, n in ((c4, 2), (k3, 2), (c4, 1)):
        assert cheeger_lower(spectrum(ch), isoperimetric_constant(ch, n, "disjoint"))


def test_cheeger_lower_tight_cases(c4, k3):
    assert abs(spectrum(c4).mean_lambda(2) - 0.5) < 1e-9
    assert isoperimetric_constant(c4, 2, "disjoint").iota == F(1, 2)
    assert abs(spectrum(k3).mean_lambda(2) - 0.75) < 1e-9
    assert isoperimetric_constant(k3, 2, "disjoint").iota == F(3, 4)


def test_cheeger_upper_worked_example(c4):
    cs = CompatibleSet(
        zetas=(F(1), F(1)),
        functions=(SAMPLE, SAMPLE),
        parts=(frozenset({0}), frozenset({2})),
        polarity=("nonnegative", "nonpositive"),
    )
    assert validate_compatible_set(c4, cs) == []
    out = cheeger_upper(c4, cs, isoperimetric_constant(c4, 2, "disjoint"))
    assert out["holds"]


def test_cheeger_upper_rejects_invalid_set(c4):
    bad = CompatibleSet(
        zetas=(F(1),),
        functions=(SAMPLE,),
        parts=(frozenset({2}),),       # negative vertex marked nonnegative
        polarity=("nonnegative",),
    )
    with pytest.raises(PreconditionUnmet):
        cheeger_upper(c4, bad, isoperimetric_constant(c4, 1, "disjoint"))


def test_eigenfunction_corollary_on_small_corpus():
    graphs = [cycle_graph(4), complete_graph(3), cycle_graph(5)] + list(connected_graphs(4))
    for g in graphs:
        ch = natural_walk(g)
        rep = spectrum(ch)
        for k in range(1, g.vertex_count + 1):
            cs = eigenfunction_compatible_set(ch, rep, k)
            if cs.n == 0:
                continue
            iso = isoperimetric_constant(ch, cs.n, "disjoint")
            out = cheeger_upper(ch, cs, iso)
            assert out["holds"], (g, k)


def test_classical_sandwich_small_corpus():
    for g in list(connected_graphs(4)) + [cycle_graph(5), complete_graph(5)]:
        ch = natural_walk(g)
        lam2 = spectrum(ch).lambdas[1]
        iota2 = isoperimetric_constant(ch, 2, "disjoint").iota
        assert 0.5 * lam2 <= float(iota2) + 1e-9
        assert float(iota2) ** 2 <= 2 * lam2 + 1e-9


def test_compatible_search_n2_succeeds(c4, k3):
    for ch in (c4, k3):
        cs = compatible_set_search(ch, spectrum(ch), 2)
        assert cs is not None
        assert validate_compatible_set(ch, cs) == []


def test_compatible_search_with_given_basis(c4):
    rep = spectrum(c4)
    basis = ((0.5, 0.5, 0.5, 0.5),
             (1.0, 0.0, -1.0, 0.0),
             (0.0, 1.0, 0.0, -1.0),
             (0.5, -0.5, 0.5, -0.5))
    given = SpectrumReport(
        chain=c4, lambdas=rep.lambdas, alphas=rep.alphas,
        mean_lambdas=rep.mean_lambdas, eigenbasis=basis,
        offdiag_residual=0.0, degenerate=rep.degenerate,
    )
    cs = compatible_set_search(c4, given, 3)
    assert cs is not None
    assert cs.parts == (frozenset({0}), frozenset({1}))


def test_compatible_search_none_is_legal(k3):
    out = compatible_set_search(k3, spectrum(k3), 3)
    assert out is None or validate_compatible_set(k3, out) == []


def test_gen_cheeger_probe_findings(c4, k3):
    iso = isoperimetric_constant(c4, 2, "disjoint")
    f = gen_cheeger_probe(c4, 2, iso, spectrum(c4))
    assert f["hypothesis_met"]
    assert f["lower_holds"] is True
    assert f["upper_holds"] is False
    assert f["iota"] == F(1, 2)
    assert abs(f["lower_bound"] - 1 / 16) < 1e-12
    assert abs(f["upper_bound"] - 1 / 4) < 1e-12

    f3 = gen_cheeger_probe(k3, 2, isoperimetric_constant(k3, 2, "disjoint"), spectrum(k3))
    assert f3["lower_holds"] is True and f3["upper_holds"] is False
    assert abs(f3["lower_bound"] - 9 / 64) < 1e-12


def test_gen_cheeger_probe_vacuous_case():
    # a chain and n where the sign-graph selection fails reports no bounds
    ch = natural_walk(cycle_graph(4))
    rep = spectrum(ch)
    table = isoperimetric_table(ch, mode="disjoint")
    found_vacuous = False
    for n in range(2, 5):
        f = gen_cheeger_probe(ch, n, table[n - 1], rep)
        if not f["hypothesis_met"]:
            assert "upper_holds" not in f
            found_vacuous = True
    assert found_vacuous


def test_nodal_count_bound_small_corpus():
    rng = random.Random(73)
    graphs = list(connected_graphs(4)) + [cycle_graph(5)]
    for g in graphs:
        ch = natural_walk(g)
        rep = spectrum(ch)
        iso = isoperimetric_table(ch)
        for k in range(1, g.vertex_count + 1):
            dec = sign_decomposition(g, rep.eigenbasis[k - 1])
            assert rep.lambdas[dec.kappa - 1] <= rep.lambdas[k - 1] + 1e-9
            # kappa is bounded by the last index of the eigenvalue cluster
            cluster_end = max(
                i + 1 for i, lam in enumerate(rep.lambdas)
                if lam <= rep.lambdas[k - 1] + 1e-8
            )
            assert dec.kappa <= cluster_end
            lam = rep.lambdas[k - 1]
            assert lam >= float(iso[dec.kappa - 1].iota) ** 2 / 2 - 1e-9
    _ = rng
