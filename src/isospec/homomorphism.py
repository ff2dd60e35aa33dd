"""Graph homomorphisms, comparison constants, spectral transfer bounds, and no-hom search."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, PreconditionUnmet
from .isoperimetry import DEFAULT_CAP, isoperimetric_table
from .nodal import excessive_check, sign_decomposition
from .spectral import spectrum
from .tolerance import at_most


@dataclass(frozen=True)
class HomWitness:
    mapping: tuple
    is_hom: bool
    vertex_onto: bool
    edge_onto: bool

    @property
    def classification(self):
        if not self.is_hom:
            return "not_hom"
        if self.edge_onto:
            return "onto_edge"
        if self.vertex_onto:
            return "onto_vertex"
        return "hom"


def validate_hom(graph_from, graph_to, sigma):
    """Classify a total vertex map as not_hom / hom / onto_vertex / onto_edge."""
    sigma = tuple(int(x) for x in sigma)
    if len(sigma) != graph_from.vertex_count:
        raise ValueError("map is not total on the source vertex set")
    for x in sigma:
        if not 0 <= x < graph_to.vertex_count:
            raise ValueError(f"map image {x} out of range")
    is_hom = all(graph_to.has_arc(sigma[u], sigma[v]) for u, v in graph_from.arcs)
    vertex_onto = len(set(sigma)) == graph_to.vertex_count
    hit = {(sigma[u], sigma[v]) for u, v in graph_from.arcs}
    edge_onto = is_hom and graph_to.arcs <= hit
    return HomWitness(sigma, is_hom, vertex_onto and is_hom, edge_onto)


ONTO_MODES = ("vertex_onto", "edge_onto")


def _search(graph_from, graph_to, mode, cap):
    """Arc-preserving maps in lexicographic order as witnesses, by one
    iterative backtracking over source vertices 0..n-1.

    The search keeps two hit tables as it places and removes each vertex: how
    many placed source vertices map to each target vertex, and how many placed
    source arcs (those whose endpoints are both placed) map to each target
    arc.  With mode "vertex_onto" a branch is cut when its unhit target
    vertices outnumber the unplaced source vertices, with "edge_onto" when its
    unhit target arcs outnumber the unplaced source arcs; mode None cuts
    nothing.  A leaf's flags are read from the counters.
    """
    n, m = graph_from.vertex_count, graph_to.vertex_count
    if m ** n > cap:
        raise CapExceeded(f"{m}^{n} maps exceeds the search cap {cap}")
    # arc_id[a][b]: index of the target arc (a, b), or -1 when it is absent
    arc_id = [[-1] * m for _ in range(m)]
    for e, (a, b) in enumerate(sorted(graph_to.arcs)):
        arc_id[a][b] = e
    arc_total = len(graph_to.arcs)
    # the source arcs placed with vertex pos, and those still unplaced after it
    arcs_at = [[] for _ in range(n)]
    for u, v in graph_from.arcs:
        arcs_at[max(u, v)].append((u, v))
    unplaced_after = [sum(len(a) for a in arcs_at[pos + 1:]) for pos in range(n)]
    vertex_mode, edge_mode = mode == "vertex_onto", mode == "edge_onto"
    if n == 0:
        if not (vertex_mode and m or edge_mode and arc_total):
            yield HomWitness((), True, m == 0, arc_total == 0)
        return

    fiber = [0] * m        # source vertices mapped to each target vertex
    arc_hits = [0] * arc_total
    unhit_v, unhit_a = m, arc_total
    partial = [0] * n
    hit_arcs = [None] * n  # target arcs hit by the arcs placed with each vertex
    nxt = [0] * n          # next image to try at each position
    pos = 0
    while pos >= 0:
        placed = hit_arcs[pos]
        if placed is not None:
            hit_arcs[pos] = None
            img = partial[pos]
            fiber[img] -= 1
            if not fiber[img]:
                unhit_v += 1
            for e in placed:
                arc_hits[e] -= 1
                if not arc_hits[e]:
                    unhit_a += 1
        img = nxt[pos]
        if img == m:
            nxt[pos] = 0
            pos -= 1
            continue
        nxt[pos] = img + 1
        partial[pos] = img
        placed = []
        for u, v in arcs_at[pos]:
            e = arc_id[partial[u]][partial[v]]
            if e < 0:
                break
            placed.append(e)
        else:
            hit_arcs[pos] = placed
            if not fiber[img]:
                unhit_v -= 1
            fiber[img] += 1
            for e in placed:
                if not arc_hits[e]:
                    unhit_a -= 1
                arc_hits[e] += 1
            if (vertex_mode and unhit_v > n - 1 - pos) or (
                edge_mode and unhit_a > unplaced_after[pos]
            ):
                continue
            if pos == n - 1:
                yield HomWitness(tuple(partial), True, not unhit_v, not unhit_a)
            else:
                pos += 1


def iter_homomorphisms(graph_from, graph_to, cap=10 ** 8):
    """All arc-preserving maps in lexicographic order, by backtracking."""
    for w in _search(graph_from, graph_to, None, cap):
        yield w.mapping


def onto_homomorphisms(graph_from, graph_to, mode="vertex_onto", cap=10 ** 8):
    """Vertex-onto or edge-onto homomorphisms in lexicographic order, as witnesses."""
    if mode not in ONTO_MODES:
        raise ValueError(f"unknown onto mode {mode!r}; expected one of {ONTO_MODES}")
    yield from _search(graph_from, graph_to, mode, cap)


def no_hom_search(graph_from, graph_to, mode="vertex_onto", cap=10 ** 8):
    """First onto homomorphism in lexicographic order, or None when none exists."""
    for w in onto_homomorphisms(graph_from, graph_to, mode, cap):
        return w
    return None


# ---------------------------------------------------------------------------
# Comparison constants
# ---------------------------------------------------------------------------

def _kernel_extremes(chain, role):
    """(max, min) of phi_bar over arcs between distinct vertices, then (max,
    min) of pi, memoized on the chain.  Raises `PreconditionUnmet`, naming the
    chain by `role`, when no flow runs between two distinct vertices (a
    one-vertex chain)."""
    extremes = chain._memo.get("kernel_extremes")
    if extremes is None:
        n = chain.graph.vertex_count
        vals = [
            chain.phibar[u][v]
            for u in range(n)
            for v in range(n)
            if u != v and chain.phibar[u][v] != 0
        ]
        if not vals:
            raise PreconditionUnmet(
                f"the {role} chain has no flow between two distinct vertices"
            )
        extremes = chain._memo["kernel_extremes"] = (
            max(vals), min(vals), max(chain.pi), min(chain.pi)
        )
    return extremes


@dataclass(frozen=True)
class ComparisonConstants:
    m_sigma: int
    m_sup: int
    s_sigma: int
    s_sup: int
    pi_max_from: object
    pi_min_from: object
    pi_max_to: object
    pi_min_to: object
    phibar_max_from: object
    phibar_min_from: object
    phibar_max_to: object
    phibar_min_to: object
    tau_from_to: object
    tau_to_from: object


def comparison_constants(chain_from, chain_to, witness):
    """Fiber edge-count and fiber-size extremes of the map plus kernel extremes.

    Edge counts run over arcs of the symmetric directed view of the source;
    the minimum skips empty fiber-pair arc sets.
    """
    sigma = witness.mapping
    m = chain_to.graph.vertex_count
    counts = {}
    for u, v in chain_from.graph.sdg_arcs():
        key = (sigma[u], sigma[v])
        counts[key] = counts.get(key, 0) + 1
    fiber_sizes = [0] * m
    for x in sigma:
        fiber_sizes[x] += 1
    f_max, f_min, p_max_from, p_min_from = _kernel_extremes(chain_from, "source")
    t_max, t_min, p_max_to, p_min_to = _kernel_extremes(chain_to, "target")
    tau_from_to = (p_max_to / p_min_from) * (f_max / t_min)
    tau_to_from = (p_max_from / p_min_to) * (t_max / f_min)
    return ComparisonConstants(
        m_sigma=min(counts.values()) if counts else 0,
        m_sup=max(counts.values()) if counts else 0,
        s_sigma=min(fiber_sizes),
        s_sup=max(fiber_sizes),
        pi_max_from=p_max_from,
        pi_min_from=p_min_from,
        pi_max_to=p_max_to,
        pi_min_to=p_min_to,
        phibar_max_from=f_max,
        phibar_min_from=f_min,
        phibar_max_to=t_max,
        phibar_min_to=t_min,
        tau_from_to=tau_from_to,
        tau_to_from=tau_to_from,
    )


def _transfer_factor(cc, part):
    """The factor of part (a), (M^sigma / S_sigma) tau(G, H), or of part (b),
    (M_sigma / S^sigma) / tau(H, G), from the extremes of `cc`."""
    if part == "a":
        return (
            Fraction(cc.m_sup, cc.s_sigma)
            * (cc.phibar_max_from * cc.pi_max_to)
            / (cc.phibar_min_to * cc.pi_min_from)
        )
    return (
        Fraction(cc.m_sigma, cc.s_sup)
        * (cc.phibar_min_from * cc.pi_min_to)
        / (cc.phibar_max_to * cc.pi_max_from)
    )


def comparison_check(chain_from, chain_to, witness, part="both", *, cap=DEFAULT_CAP):
    """Transfer bounds along an onto homomorphism.

    Part (a), vertex-onto: lambda^G_k <= factor * lambda^H_k and
    iota^G_k <= factor * iota^H_k for k = 1..|V(H)|, with
    factor = (M^sigma / S_sigma) (phibar^M_G pi^M_H) / (phibar^m_H pi^m_G).
    Part (b), edge-onto: lambda^G_{n-m+k} >= factor' * lambda^H_k with the
    dual factor.  Each comparison is `tolerance.at_most`: the iota ones are
    exact on an exact chain, the eigenvalue ones carry the float slack.  Only
    the factor depends on the map: the spectra, iota values and kernel
    extremes are memoized on the chains, so a sweep over many maps of one pair
    computes them once.

    A part asked for by name ("a" or "b") raises `PreconditionUnmet` when the
    map is not onto in its sense.  Under "both" such a part is reported as
    None, its unmet precondition is listed in `report["unmet"]`, and
    `PreconditionUnmet` is raised only when neither part applies.  Any other
    `part` raises `ValueError` before any work is done.
    """
    if part not in ("a", "b", "both"):
        raise ValueError(f"part must be 'a', 'b' or 'both', got {part!r}")
    run_a, run_b = part in ("a", "both"), part in ("b", "both")
    unmet = {}
    if run_a and not witness.vertex_onto:
        unmet["part_a"] = "part (a) needs a vertex-onto homomorphism"
        run_a = False
    if run_b and not witness.edge_onto:
        unmet["part_b"] = "part (b) needs an edge-onto homomorphism"
        run_b = False
    if unmet and not (run_a or run_b):
        raise PreconditionUnmet("; ".join(unmet.values()))
    cc = comparison_constants(chain_from, chain_to, witness)
    n = chain_from.graph.vertex_count
    m = chain_to.graph.vertex_count
    spec_from = spectrum(chain_from)
    spec_to = spectrum(chain_to)
    report = {"constants": cc, "part_a": None, "part_b": None, "unmet": unmet}

    if run_a:
        factor = _transfer_factor(cc, "a")
        iotas_from = isoperimetric_table(chain_from, m, "disjoint", cap=cap)
        iotas_to = isoperimetric_table(chain_to, m, "disjoint", cap=cap)
        rows = []
        ok = True
        for k in range(1, m + 1):
            lam_ok = at_most(spec_from.lambdas[k - 1], float(factor) * spec_to.lambdas[k - 1])
            iota_from = iotas_from[k - 1].iota
            iota_to = iotas_to[k - 1].iota
            iota_ok = at_most(iota_from, factor * iota_to)
            ok = ok and lam_ok and iota_ok
            rows.append(
                {
                    "k": k,
                    "lambda_from": spec_from.lambdas[k - 1],
                    "lambda_to": spec_to.lambdas[k - 1],
                    "lambda_holds": lam_ok,
                    "iota_from": iota_from,
                    "iota_to": iota_to,
                    "iota_holds": iota_ok,
                }
            )
        report["part_a"] = {"factor": factor, "rows": rows, "holds": ok}

    if run_b:
        factor = _transfer_factor(cc, "b")
        rows = []
        ok = True
        for k in range(1, m + 1):
            lhs = spec_from.lambdas[n - m + k - 1]
            rhs = float(factor) * spec_to.lambdas[k - 1]
            holds = at_most(rhs, lhs)
            ok = ok and holds
            rows.append({"k": k, "lambda_from": lhs, "lambda_to": spec_to.lambdas[k - 1], "holds": holds})
        report["part_b"] = {"factor": factor, "rows": rows, "holds": ok}

    report["holds"] = all(
        report[key] is None or report[key]["holds"] for key in ("part_a", "part_b")
    )
    return report


# ---------------------------------------------------------------------------
# Courant-Hilbert style transfer of sign-graph counts
# ---------------------------------------------------------------------------

def courant_hilbert_check(chain_from, chain_to, witness, f, zeta, theorem):
    """Transfer a sign-graph count of a function on the target into an
    eigenvalue index bound on the source.

    theorem "excessive" (vertex-onto):  lambda^G_{kappa+(f)} <= (M^s/S_s) tau(G,H) zeta
    theorem "deficient_a" (edge-onto):  alpha^G_{kappa+(f)} >= (M_s/S^s) tau(H,G)^-1 zeta
    theorem "deficient_b" (edge-onto, kappa-(f) != 0, target strongly
    connected): strict bound at index |Comp(P_f union O_f)|.
    """
    cc = comparison_constants(chain_from, chain_to, witness)
    dec = sign_decomposition(chain_to.graph, f)
    spec_from = spectrum(chain_from)
    report = {"theorem": theorem, "kappa_plus": dec.kappa_plus, "kappa_minus": dec.kappa_minus}

    if theorem == "excessive":
        if not witness.vertex_onto:
            raise PreconditionUnmet("excessive transfer needs a vertex-onto homomorphism")
        if not excessive_check(chain_to, f, zeta, "Delta", "excessive"):
            raise PreconditionUnmet("f is not zeta-excessive for the target Laplacian")
        if dec.kappa_plus == 0:
            raise PreconditionUnmet("f has no positive sign-graph")
        lhs = spec_from.lambdas[dec.kappa_plus - 1]
        rhs = float(_transfer_factor(cc, "a")) * float(zeta)
        report.update({"lhs": lhs, "rhs": rhs, "holds": at_most(lhs, rhs)})
        return report

    if theorem in ("deficient_a", "deficient_b"):
        if not witness.edge_onto:
            raise PreconditionUnmet("deficient transfer needs an edge-onto homomorphism")
        if not excessive_check(chain_to, f, zeta, "K_bar", "deficient"):
            raise PreconditionUnmet("f is not zeta-deficient for the target K_bar")
        rhs = float(_transfer_factor(cc, "b")) * float(zeta)
        if theorem == "deficient_a":
            if dec.kappa_plus == 0:
                raise PreconditionUnmet("f has no positive sign-graph")
            lhs = spec_from.alphas[dec.kappa_plus - 1]
            report.update({"lhs": lhs, "rhs": rhs, "holds": at_most(rhs, lhs)})
            return report
        if dec.kappa_minus == 0:
            raise PreconditionUnmet("strict variant needs kappa-(f) != 0")
        if not chain_to.graph.is_strongly_connected():
            raise PreconditionUnmet("strict variant needs a strongly connected target")
        comp_count = len(chain_to.graph.undirected_components(dec.positives | dec.zeros))
        lhs = spec_from.alphas[comp_count - 1]
        report.update(
            {"index": comp_count, "lhs": lhs, "rhs": rhs, "holds": not at_most(lhs, rhs)}
        )
        return report

    raise ValueError(f"unknown theorem {theorem!r}")
