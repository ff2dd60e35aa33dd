"""Independent exact oracle for the benchmark's correctness checks.

Nothing here imports `isospec`: kernels, stationary laws, cut tables, the
isoperimetric minima, gradients, closed-form spectra and onto-map counts are
all recomputed from the raw inputs (vertex counts, arcs, kernel matrices).

The isoperimetric minima come from a bitmask subset dynamic programme rather
than the library's branch and bound: h_k[M] is the least sum of k class ratios
over the partitions of the vertex set M into k nonempty classes, so
iota~_n = h_n[all] / n and iota_n = min_M h_n[M] / n.  Sums of ratios are kept
as unreduced integer pairs (numerator, denominator) and compared by cross
multiplication, which is exact and avoids Fraction normalisation in the loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

F = Fraction


def _lcm(values):
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


# ---------------------------------------------------------------------------
# Kernels from the graph-document conventions
# ---------------------------------------------------------------------------

def natural_kernel(vcount, arcs):
    """K(u, v) = 1/outdeg(u) on every arc uv (loops included)."""
    out = [sorted({v for a, v in arcs if a == u}) for u in range(vcount)]
    rows = []
    for u in range(vcount):
        if not out[u]:
            raise ValueError(f"vertex {u} has no out-arc")
        row = [F(0)] * vcount
        for v in out[u]:
            row[v] = F(1, len(out[u]))
        rows.append(row)
    return rows


def lazy_kernel(vcount, arcs):
    """1/d_max on every non-loop arc, the rest of the row on the diagonal."""
    out = [sorted({v for a, v in arcs if a == u}) for u in range(vcount)]
    dmax = max(len(o) for o in out)
    rows = []
    for u in range(vcount):
        row = [F(0)] * vcount
        for v in out[u]:
            if v != u:
                row[v] = F(1, dmax)
        row[u] = 1 - sum(row[v] for v in range(vcount) if v != u)
        rows.append(row)
    return rows


def parse_rational(text):
    num, _, den = str(text).partition("/")
    return F(int(num), int(den or 1))


def stationary(kernel):
    """The probability vector pi with pi K = pi, by Gauss-Jordan elimination on
    the system (K^T - I) pi = 0 with its last equation replaced by sum(pi) = 1."""
    n = len(kernel)
    rows = [
        [F(kernel[j][i]) - (1 if i == j else 0) for j in range(n)] + [F(0)]
        for i in range(n - 1)
    ]
    rows.append([F(1)] * n + [F(1)])
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("stationary law is not unique")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                fac = rows[r][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[col])]
    pi = [rows[i][n] for i in range(n)]
    if any(p <= 0 for p in pi):
        raise ValueError("stationary law is not everywhere positive")
    return pi


def _scaled(f):
    """A rational vector as (common denominator, integer numerators)."""
    f = [x if isinstance(x, F) else F(x) for x in f]
    scale = _lcm(x.denominator for x in f)
    return scale, [x.numerator * (scale // x.denominator) for x in f]


# ---------------------------------------------------------------------------
# The exact chain: cut tables, minima, objectives
# ---------------------------------------------------------------------------

class Chain:
    """A rational kernel with its stationary law and all 2^V cut values."""

    def __init__(self, kernel):
        self.kernel = [[F(x) for x in row] for row in kernel]
        self.vcount = n = len(self.kernel)
        for row in self.kernel:
            if len(row) != n or sum(row) != 1 or any(x < 0 for x in row):
                raise ValueError("kernel is not row-stochastic")
        self.pi = stationary(self.kernel)
        self.phi = [[self.kernel[u][v] * self.pi[u] for v in range(n)] for u in range(n)]
        self.pi_den = _lcm(p.denominator for p in self.pi)
        self.phi_den = _lcm(x.denominator for row in self.phi for x in row)
        self.pn = pn = [int(p * self.pi_den) for p in self.pi]
        fn = [[int(x * self.phi_den) for x in row] for row in self.phi]
        out = [sum(fn[u][v] for v in range(n) if v != u) for u in range(n)]
        size = 1 << n
        mass = [0] * size
        bnd = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            inner = 0
            for u in range(n):
                if rest >> u & 1:
                    inner += fn[u][v] + fn[v][u]
            mass[mask] = mass[rest] + pn[v]
            bnd[mask] = bnd[rest] + out[v] - inner
        self.mass = mass    # pi(S) * pi_den
        self.bnd = bnd      # boundary(S) * phi_den
        self.flows = [(u, v, fn[u][v]) for u in range(n) for v in range(n) if u != v and fn[u][v]]
        self._levels = [None, [(bnd[m], mass[m]) if m else None for m in range(size)]]
        self._iota = {}

    # -- cut functionals ----------------------------------------------------

    def mask(self, subset):
        m = 0
        for v in subset:
            m |= 1 << v
        return m

    def ratio(self, mask):
        """boundary(S) / pi(S) for a nonempty vertex mask."""
        return F(self.bnd[mask] * self.pi_den, self.mass[mask] * self.phi_den)

    def pi_mass(self, mask):
        return F(self.mass[mask], self.pi_den)

    def boundary(self, mask):
        return F(self.bnd[mask], self.phi_den)

    def objective(self, classes):
        """Mean normalized outflow of a family of vertex sets."""
        return sum(self.ratio(self.mask(c)) for c in classes) / len(classes)

    # -- isoperimetric minima -----------------------------------------------

    def _level(self, k):
        while len(self._levels) <= k:
            self._levels.append(self._next_level(len(self._levels)))
        return self._levels[k]

    def _next_level(self, k):
        prev = self._levels[k - 1]
        one = self._levels[1]
        size = 1 << self.vcount
        cur = [None] * size
        for m in range(size):
            if bin(m).count("1") < k:
                continue
            low = m & -m
            rest = m ^ low
            best_n = best_d = None
            sub = rest
            while True:
                if sub != rest:  # the class holding low(m) leaves rest ^ sub to k-1 classes
                    tail = prev[rest ^ sub]
                    if tail is not None:
                        a, b = one[low | sub]
                        c, d = tail
                        num = a * d + c * b
                        den = b * d
                        if best_n is None or num * best_d < best_n * den:
                            best_n, best_d = num, den
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            if best_n is not None:
                cur[m] = (best_n, best_d)
        return cur

    def _value(self, pair, n):
        num, den = pair
        return F(num * self.pi_den, den * self.phi_den * n)

    def iota(self, n):
        """iota_n: least mean ratio over n pairwise-disjoint nonempty sets."""
        if (n, False) not in self._iota:
            best = None
            for pair in self._level(n):
                if pair is not None and (best is None or pair[0] * best[1] < best[0] * pair[1]):
                    best = pair
            self._iota[n, False] = self._value(best, n)
        return self._iota[n, False]

    def iota_tilde(self, n):
        """iota~_n: the same minimum over partitions of the vertex set."""
        if (n, True) not in self._iota:
            self._iota[n, True] = self._value(self._level(n)[(1 << self.vcount) - 1], n)
        return self._iota[n, True]

    # -- functional side ----------------------------------------------------

    def gamma(self, functions):
        """Mean directed-gradient L1 norm sum_{u,v} max(f(u)-f(v), 0) phi(u,v)."""
        total = F(0)
        for f in functions:
            scale, g = _scaled(f)
            acc = sum((g[u] - g[v]) * w for u, v, w in self.flows if g[u] > g[v])
            total += F(acc, scale * self.phi_den)
        return total / len(functions)

    def positive_family_ok(self, functions, n):
        """n nonnegative nonzero functions with disjoint supports and pi-L1 norm 1."""
        if len(functions) != n:
            return False
        seen = set()
        for f in functions:
            if len(f) != self.vcount:
                return False
            scale, g = _scaled(f)
            supp = {v for v, x in enumerate(g) if x}
            if any(x < 0 for x in g) or not supp or supp & seen:
                return False
            seen |= supp
            if sum(x * p for x, p in zip(g, self.pn)) != scale * self.pi_den:
                return False
        return True

    def family_ok(self, classes, n, partition):
        """n pairwise-disjoint nonempty vertex sets (covering V for a partition)."""
        if len(classes) != n:
            return False
        seen = set()
        for cls in classes:
            cls = set(cls)
            if not cls or cls & seen or not cls <= set(range(self.vcount)):
                return False
            seen |= cls
        return not partition or len(seen) == self.vcount

    def proposition_bounds(self, classes):
        """The S and T merge bounds of a disjoint family, as (lhs, rhs) pairs."""
        n = len(classes)
        masks = [self.mask(c) for c in classes]
        ratios = [self.ratio(m) for m in masks]
        total = sum(ratios)
        star = ((1 << self.vcount) - 1) ^ self.mask(v for c in classes for v in c)
        pi_star = self.pi_mass(star) if star else F(0)
        b_star = self.boundary(star) if star else F(0)
        s_lhs = (min(self.ratio(masks[j] | star) - ratios[j] for j in range(n)) + total) / n
        s_rhs = ((n - 2) * b_star + (1 + (n - 2) * pi_star) * total) / (n * (1 + (n - 1) * pi_star))
        out = {"S": (s_lhs, s_rhs)}
        if n >= 2:
            m = n - 1
            t_lhs = (min(
                self.ratio(masks[j] | masks[k]) - ratios[j] - ratios[k]
                for j in range(n)
                for k in range(j + 1, n)
            ) + total) / m
            t_rhs = b_star / (m * m * (1 - pi_star)) + F(m - 1, m * m) * total
            out["T"] = (t_lhs, t_rhs)
        return out

    def phibar_extremes(self):
        n = self.vcount
        vals = [
            (self.phi[u][v] + self.phi[v][u]) / 2
            for u in range(n)
            for v in range(n)
            if u != v and self.phi[u][v] + self.phi[v][u] != 0
        ]
        return max(vals), min(vals)


# ---------------------------------------------------------------------------
# Closed-form spectra of Delta = I - K_bar for natural walks
# ---------------------------------------------------------------------------

def cycle_spectrum(n):
    return sorted(1 - math.cos(2 * math.pi * j / n) for j in range(n))


def complete_spectrum(n):
    return [0.0] + [n / (n - 1)] * (n - 1)


def k33_spectrum():
    # walk eigenvalues of K_{3,3}: 1, 0 (four times), -1
    return [0.0, 1.0, 1.0, 1.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Homomorphisms by brute force
# ---------------------------------------------------------------------------

def onto_maps(n_from, arcs_from, n_to, arcs_to, mode):
    """Every vertex- or edge-onto homomorphism, in lexicographic order, by
    testing all n_to ** n_from vertex maps."""
    arcs_to = set(arcs_to)
    found = []
    for sigma in product(range(n_to), repeat=n_from):
        image = {(sigma[u], sigma[v]) for u, v in arcs_from}
        if not image <= arcs_to:
            continue
        if mode == "vertex_onto" and len(set(sigma)) == n_to:
            found.append(sigma)
        elif mode == "edge_onto" and image == arcs_to:
            found.append(sigma)
    return found


def comparison_factors(src, dst, arcs_from, sigma):
    """Part (a) and part (b) transfer factors of a homomorphism, from their
    definitions: fiber arc counts, fiber sizes, phibar and pi extremes."""
    counts = {}
    for u, v in arcs_from:
        key = (sigma[u], sigma[v])
        counts[key] = counts.get(key, 0) + 1
    fibers = [sigma.count(x) for x in range(dst.vcount)]
    f_max, f_min = src.phibar_extremes()
    t_max, t_min = dst.phibar_extremes()
    a = F(max(counts.values()), min(fibers)) * (f_max * max(dst.pi)) / (t_min * min(src.pi))
    b = F(min(counts.values()), max(fibers)) * (f_min * min(dst.pi)) / (t_max * max(src.pi))
    return a, b


# ---------------------------------------------------------------------------
# Graphs the benchmark builds itself
# ---------------------------------------------------------------------------

def undirected(edges):
    return sorted({(u, v) for u, v in edges} | {(v, u) for u, v in edges})


def cycle_arcs(n):
    return undirected([(i, (i + 1) % n) for i in range(n)])


def complete_arcs(n):
    return undirected([(i, j) for i in range(n) for j in range(i + 1, n)])


def k33_arcs():
    return undirected([(i, 3 + j) for i in range(3) for j in range(3)])


def petersen_arcs():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return undirected(outer + inner + spokes)


def three_clique_arcs(block):
    """Hub 0 joined to the first vertex of each of three complete blocks."""
    edges = []
    for i in range(3):
        base = 1 + i * block
        edges.append((0, base))
        edges += [(base + a, base + b) for a in range(block) for b in range(a + 1, block)]
    return undirected(edges)


# ---------------------------------------------------------------------------
# Self-test against hand-derived values
# ---------------------------------------------------------------------------

def self_test():
    """Check the oracle on values derived by hand; raises AssertionError."""
    c4 = Chain(natural_kernel(4, cycle_arcs(4)))
    if c4.iota(2) != F(1, 2) or c4.iota_tilde(2) != F(1, 2):
        raise AssertionError("C4: iota_2 must be 1/2")
    for n in (4, 5):
        kn = Chain(natural_kernel(n, complete_arcs(n)))
        for t in range(1, n + 1):
            want = F(n * (t - 1), t * (n - 1))
            if kn.iota(t) != want or kn.iota_tilde(t) != want:
                raise AssertionError(f"K{n}: iota_{t} must be {want}")
    tc = Chain(natural_kernel(10, three_clique_arcs(3)))
    if tc.pi[0] != F(1, 8):
        raise AssertionError("three-clique: the hub's stationary mass must be 1/8")
    if tc.iota(3) != F(1, 7) or tc.iota_tilde(3) != F(17, 105):
        raise AssertionError("three-clique: iota_3 = 1/7 and iota~_3 = 17/105")
    if any(abs(a - b) > 1e-12 for a, b in zip(cycle_spectrum(4), [0.0, 1.0, 1.0, 2.0])):
        raise AssertionError("C4 spectrum must be 0, 1, 1, 2")
    if len(onto_maps(4, cycle_arcs(4), 2, complete_arcs(2), "vertex_onto")) != 2:
        raise AssertionError("C4 -> K2 has exactly the two proper 2-colourings")
    if onto_maps(5, cycle_arcs(5), 2, complete_arcs(2), "vertex_onto"):
        raise AssertionError("C5 has no homomorphism onto K2")
