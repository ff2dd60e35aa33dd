"""Sign-graph decomposition, excessive/deficient tests, bipolar parts, and Cheeger-type checks."""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    gradient_norm2_squared,
    inner_pi,
    kernel_apply,
    laplacian_apply,
    restrict,
)
from .errors import PreconditionUnmet
from .tolerance import at_most, signed


@dataclass(frozen=True)
class SignDecomposition:
    positives: frozenset
    negatives: frozenset
    zeros: frozenset
    positive_components: tuple
    negative_components: tuple

    @property
    def kappa_plus(self):
        return len(self.positive_components)

    @property
    def kappa_minus(self):
        return len(self.negative_components)

    @property
    def kappa(self):
        return self.kappa_plus + self.kappa_minus

    @property
    def parts(self):
        """(component, polarity) of every strong sign-graph, positive ones first."""
        return tuple((c, "nonnegative") for c in self.positive_components) + tuple(
            (c, "nonpositive") for c in self.negative_components
        )


def sign_decomposition(graph, f):
    """Strict-sign classification with components taken in the undirected view."""
    vals = signed(f)
    pos = frozenset(v for v, x in enumerate(vals) if x > 0)
    neg = frozenset(v for v, x in enumerate(vals) if x < 0)
    zer = frozenset(range(len(vals))) - pos - neg
    return SignDecomposition(
        positives=pos,
        negatives=neg,
        zeros=zer,
        positive_components=graph.undirected_components(pos) if pos else (),
        negative_components=graph.undirected_components(neg) if neg else (),
    )


def excessive_check(chain, f, zeta, operator="Delta", direction="excessive"):
    """Coordinatewise test of (op f) <= zeta f (excessive) or >= (deficient)."""
    if operator == "Delta":
        out = laplacian_apply(chain, f, "symmetric")
    elif operator in ("K", "K_bar"):
        out = kernel_apply(chain, f, "directed" if operator == "K" else "symmetric")
    else:
        raise ValueError(f"unknown operator {operator!r}")
    if direction == "excessive":
        return all(at_most(o, zeta * x) for o, x in zip(out, f))
    if direction == "deficient":
        return all(at_most(zeta * x, o) for o, x in zip(out, f))
    raise ValueError(f"unknown direction {direction!r}")


def bipolar_part_check(graph, f, Q):
    """Classify Q as a nonnegative/nonpositive bipolar part of f, or neither.

    Nonnegative: f >= 0 on Q and f(u) f(v) <= 0 across every arc of the cut in
    either direction; symmetric for nonpositive.
    """
    q = set(Q)
    if not q:
        raise ValueError("bipolar part must be nonempty")
    vals = signed(f)
    cut_ok = True
    for u, v in graph.arcs:
        if (u in q) != (v in q):
            if vals[u] * vals[v] > 0:
                cut_ok = False
                break
    if not cut_ok:
        return "neither"
    nonneg = all(vals[v] >= 0 for v in q)
    nonpos = all(vals[v] <= 0 for v in q)
    if nonneg:
        return "nonnegative"
    if nonpos:
        return "nonpositive"
    return "neither"


def rayleigh_quotient(chain, f):
    """Symmetric Dirichlet form over the squared pi-norm of a nonzero function."""
    denom = inner_pi(chain, f, f)
    if denom == 0:
        raise ValueError("zero function has no Rayleigh quotient")
    return gradient_norm2_squared(chain, f, "symmetric") / denom


def duval_reiner_bound(chain, f, zeta, Q, direction="excessive"):
    """Check zeta >= Rayleigh(f restricted to Q) under the hypotheses of the
    one-entry compatible set (zeta, f, Q).

    direction "excessive" pairs with a nonnegative bipolar part, "deficient"
    with a nonpositive one.  Unmet hypotheses raise `PreconditionUnmet`.
    """
    polarity = {"excessive": "nonnegative", "deficient": "nonpositive"}.get(direction)
    if polarity is None:
        raise ValueError(f"unknown direction {direction!r}")
    entry = CompatibleSet((zeta,), (f,), (frozenset(Q),), (polarity,))
    problems = validate_compatible_set(chain, entry)
    if problems:
        raise PreconditionUnmet("; ".join(problems))
    quotient = rayleigh_quotient(chain, restrict(f, Q))
    return {
        "zeta": zeta,
        "rayleigh": quotient,
        "holds": at_most(quotient, zeta),
    }


# ---------------------------------------------------------------------------
# Cheeger bounds
# ---------------------------------------------------------------------------

def cheeger_lower(spectrum_report, iso_report):
    """mean_lambda_n <= iota_n, up to float tolerance on the eigenvalue side."""
    n = iso_report.n
    mean = spectrum_report.mean_lambda(n)
    return at_most(mean, float(iso_report.iota))


@dataclass(frozen=True)
class CompatibleSet:
    """Functions with scalar bounds and pairwise-disjoint bipolar parts.

    polarity[i] is "nonnegative" (excessive entry) or "nonpositive"
    (deficient entry).
    """

    zetas: tuple
    functions: tuple
    parts: tuple
    polarity: tuple

    @property
    def n(self):
        return len(self.zetas)


def validate_compatible_set(chain, cs):
    """Return the list of violated conditions (empty when the set is valid)."""
    problems = []
    if not (len(cs.zetas) == len(cs.functions) == len(cs.parts) == len(cs.polarity)):
        return ["entry lists have mismatched lengths"]
    seen = set()
    for i, (zeta, f, part, pol) in enumerate(
        zip(cs.zetas, cs.functions, cs.parts, cs.polarity)
    ):
        if not part:
            problems.append(f"entry {i}: empty part")
            continue
        if set(part) & seen:
            problems.append(f"entry {i}: part overlaps an earlier part")
        seen |= set(part)
        direction = "excessive" if pol == "nonnegative" else "deficient"
        if not excessive_check(chain, f, zeta, "Delta", direction):
            problems.append(f"entry {i}: function is not {zeta}-{direction}")
        if bipolar_part_check(chain.graph, f, part) != pol:
            problems.append(f"entry {i}: part is not a {pol} bipolar part")
        g = restrict(f, part)
        if all(x == 0 for x in signed(g)):
            problems.append(f"entry {i}: function vanishes on its part")
    return problems


def cheeger_upper(chain, cs, iso_report):
    """2 * mean(zetas) >= iota_n^2 for a valid compatible set of size n."""
    problems = validate_compatible_set(chain, cs)
    if problems:
        raise PreconditionUnmet("; ".join(problems))
    if cs.n != iso_report.n:
        raise PreconditionUnmet(
            f"compatible set has {cs.n} entries, report is for n={iso_report.n}"
        )
    mean_zeta = sum(float(z) for z in cs.zetas) / cs.n
    iota = float(iso_report.iota)
    return {
        "mean_zeta": mean_zeta,
        "iota": iso_report.iota,
        "holds": at_most(iota * iota, 2.0 * mean_zeta),
    }


def eigenfunction_compatible_set(chain, spectrum_report, k):
    """All strong sign-graphs of the k-th eigenfunction paired with its eigenvalue."""
    f = spectrum_report.eigenbasis[k - 1]
    lam = spectrum_report.lambdas[k - 1]
    parts = sign_decomposition(chain.graph, f).parts
    m = len(parts)
    return CompatibleSet(
        zetas=(lam,) * m,
        functions=(tuple(f),) * m,
        parts=tuple(comp for comp, _ in parts),
        polarity=tuple(pol for _, pol in parts),
    )


def compatible_set_search(chain, spectrum_report, n):
    """Backtracking choice of one strong sign-graph per eigenfunction f_2..f_n.

    Parts must be pairwise disjoint; candidates per function are the positive
    components then the negative ones, each ordered by minimum vertex.  Returns
    the first success in this deterministic order, or None.
    """
    if not 2 <= n <= chain.graph.vertex_count:
        raise ValueError(f"n must be in 2..{chain.graph.vertex_count}")
    candidates = []
    for k in range(2, n + 1):
        opts = sign_decomposition(chain.graph, spectrum_report.eigenbasis[k - 1]).parts
        if not opts:
            return None
        candidates.append(opts)

    chosen = []

    def search(i, used):
        if i == len(candidates):
            return True
        for comp, pol in candidates[i]:
            if comp & used:
                continue
            chosen.append((comp, pol))
            if search(i + 1, used | comp):
                return True
            chosen.pop()
        return False

    if not search(0, frozenset()):
        return None
    return CompatibleSet(
        zetas=tuple(spectrum_report.lambdas[k - 1] for k in range(2, n + 1)),
        functions=tuple(tuple(spectrum_report.eigenbasis[k - 1]) for k in range(2, n + 1)),
        parts=tuple(comp for comp, _ in chosen),
        polarity=tuple(pol for _, pol in chosen),
    )


def gen_cheeger_probe(chain, n, iso_report, spectrum_report):
    """Evaluate (never assert) the conjectured two-sided bound
    ((n-1)/2n) iota_n^2 <= mean_lambda_n <= ((n-1)/n) iota_n, with iota_n read
    from `iso_report` and the spectrum from `spectrum_report`.

    The hypothesis is a successful sign-graph selection for f_2..f_n; when it
    fails the finding records "hypothesis unmet" and no bounds are evaluated.
    """
    cs = compatible_set_search(chain, spectrum_report, n)
    finding = {
        "n": n,
        "hypothesis_met": cs is not None,
        "iota": iso_report.iota,
        "mean_lambda": spectrum_report.mean_lambda(n),
    }
    if cs is None:
        return finding
    iota = float(iso_report.iota)
    mean = spectrum_report.mean_lambda(n)
    lower = (n - 1) / (2.0 * n) * iota * iota
    upper = (n - 1) / n * iota
    finding.update(
        {
            "lower_bound": lower,
            "lower_holds": at_most(lower, mean),
            "upper_bound": upper,
            "upper_holds": at_most(mean, upper),
        }
    )
    return finding
