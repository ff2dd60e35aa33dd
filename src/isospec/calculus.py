"""Discrete gradients, divergence, Laplacians, weighted norms, and the Duval-Reiner identity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidFamily


def positive_part(f):
    return tuple(x if x > 0 else 0 * x for x in f)


def negative_part(f):
    return tuple(-x if x < 0 else 0 * x for x in f)


def restrict(f, subset):
    q = set(subset)
    return tuple(x if v in q else 0 * x for v, x in enumerate(f))


def inner_pi(chain, f, g):
    return sum(a * b * p for a, b, p in zip(f, g, chain.pi))


# ---------------------------------------------------------------------------
# Gradients.  Directed/classical gradients live on arcs of the symmetric
# directed view; the symmetric gradient lives on undirected edges.
# ---------------------------------------------------------------------------

def gradient(chain, f, variant="directed"):
    g = chain.graph
    if variant == "directed":
        return {(u, v): max(f[u] - f[v], 0 * f[u]) for u, v in sorted(g.sdg_arcs())}
    if variant == "classical":
        return {(u, v): f[u] - f[v] for u, v in sorted(g.sdg_arcs())}
    if variant == "symmetric":
        return {
            (u, v): abs(f[u] - f[v])
            for u, v in sorted(g.undirected_edges())
            if u != v
        }
    raise ValueError(f"unknown gradient variant {variant!r}")


def _arc_weights(chain, variant):
    """phi_bar for the symmetric gradient, phi for the directed and classical ones."""
    if variant not in ("directed", "classical", "symmetric"):
        raise ValueError(f"unknown gradient variant {variant!r}")
    return chain.phibar if variant == "symmetric" else chain.phi


def grad_norm1(chain, F, variant="directed"):
    """L1 norm of an arc function under phi (directed/classical) or phi_bar (symmetric)."""
    w = _arc_weights(chain, variant)
    return sum(abs(val) * w[u][v] for (u, v), val in F.items())


def grad_norm2_squared(chain, F, variant="directed"):
    w = _arc_weights(chain, variant)
    return sum(val * val * w[u][v] for (u, v), val in F.items())


def gradient_norm1(chain, f, variant="directed"):
    return grad_norm1(chain, gradient(chain, f, variant), variant)


def gradient_norm2_squared(chain, f, variant="directed"):
    return grad_norm2_squared(chain, gradient(chain, f, variant), variant)


def divergence(chain, F):
    """Adjoint of the classical gradient: <grad f, F>_phi = <f, div F>_pi for all f."""
    n = chain.graph.vertex_count
    out = []
    for u in range(n):
        acc = 0
        for v in chain.graph.out_neighbors(u):
            acc += F.get((u, v), 0) * chain.phi[u][v]
        for v in chain.graph.in_neighbors(u):
            acc -= F.get((v, u), 0) * chain.phi[v][u]
        out.append(acc / chain.pi[u])
    return tuple(out)


def inner_phi(chain, F, G):
    keys = set(F) | set(G)
    return sum(F.get(k, 0) * G.get(k, 0) * chain.phi[k[0]][k[1]] for k in keys)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def _operator(chain, variant):
    """K for the directed variant, K_bar for the symmetric one."""
    if variant not in ("directed", "symmetric"):
        raise ValueError(f"unknown Laplacian variant {variant!r}")
    return chain.kernel if variant == "directed" else chain.kbar


def kernel_apply(chain, f, variant="symmetric"):
    """K f for the directed variant, K_bar f for the symmetric one."""
    mat = _operator(chain, variant)
    n = len(f)
    return tuple(sum(mat[u][v] * f[v] for v in range(n)) for u in range(n))


def laplacian_apply(chain, f, variant="symmetric"):
    """(I - K) f for the directed variant, (I - K_bar) f for the symmetric one."""
    return tuple(x - y for x, y in zip(f, kernel_apply(chain, f, variant)))


def laplacian_matrix(chain, variant="symmetric"):
    mat = _operator(chain, variant)
    n = chain.graph.vertex_count
    one = chain.scalar(1, 1)
    return tuple(
        tuple((one if u == v else 0 * one) - mat[u][v] for v in range(n))
        for u in range(n)
    )


def grad_adjoint_grad_matrix(chain):
    """The operator div(grad(.)) assembled column by column; equals 2(I - K_bar)."""
    n = chain.graph.vertex_count
    cols = []
    for u in range(n):
        e = tuple(chain.scalar(int(v == u), 1) for v in range(n))
        cols.append(divergence(chain, gradient(chain, e, "classical")))
    return tuple(tuple(cols[v][u] for v in range(n)) for u in range(n))


@dataclass(frozen=True)
class CombinatorialLaplacian:
    """D - A where D holds out-degrees and A weighs one-directional pairs by 1/2."""

    matrix: tuple
    d_max: int


def combinatorial_laplacian(graph):
    n = graph.vertex_count
    rows = []
    for u in range(n):
        row = [Fraction(0)] * n
        row[u] = Fraction(graph.out_degree(u))
        for v in range(n):
            if v == u:
                continue
            fwd = graph.has_arc(u, v)
            bwd = graph.has_arc(v, u)
            if fwd and bwd:
                row[v] -= 1
            elif fwd or bwd:
                row[v] -= Fraction(1, 2)
        rows.append(tuple(row))
    return CombinatorialLaplacian(tuple(rows), graph.max_out_degree())


# ---------------------------------------------------------------------------
# The Duval-Reiner algebraic identity for the symmetric Laplacian
# ---------------------------------------------------------------------------

def duval_reiner_sides(chain, f, partition, coeffs, zeta):
    """Both sides of the restriction identity for g = sum_i c_i f|_{Q_i}.

    Returns (lhs, rhs); they agree for every partition, coefficient list and
    zeta because the symmetric Laplacian is self-adjoint in the pi product.
    """
    if partition.mode != "partition":
        raise InvalidFamily("duval_reiner_sides needs a partition-mode family")
    if len(coeffs) != len(partition.classes):
        raise InvalidFamily(
            f"{len(coeffs)} coefficients for {len(partition.classes)} classes"
        )
    parts = [restrict(f, cls) for cls in partition.classes]
    n = chain.graph.vertex_count
    g = tuple(sum(c * part[v] for c, part in zip(coeffs, parts)) for v in range(n))
    tg = laplacian_apply(chain, g, "symmetric")
    lhs = inner_pi(chain, tg, g) - zeta * inner_pi(chain, g, g)

    tf = laplacian_apply(chain, f, "symmetric")
    tf_minus = tuple(a - zeta * b for a, b in zip(tf, f))
    rhs = sum(c * c * inner_pi(chain, tf_minus, part) for c, part in zip(coeffs, parts))
    t_parts = [laplacian_apply(chain, part, "symmetric") for part in parts]
    half = chain.scalar(1, 2)
    cross = 0
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            diff = ci - cj
            if diff != 0:
                cross += diff * diff * inner_pi(chain, t_parts[j], parts[i])
    rhs -= half * cross
    return lhs, rhs
