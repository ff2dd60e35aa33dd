"""Markov kernels on graphs: stationary laws, flows, reversibilization, cut functionals."""

from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, lcm

from .errors import KernelError, NoNowherezeroStationary
from .graphs import Graph
from .tolerance import INPUT, ROW_SUM, is_exact


class MarkovChain:
    """A row-stochastic kernel on a base graph with its stationary distribution.

    Stores the induced flow phi(u,v) = K(u,v) pi(u), the additive
    reversibilization K_bar = (K + K*)/2 and its flow phi_bar.  In exact mode
    every entry is a Fraction; otherwise floats.  The public fields are never
    changed after construction, so data derived from them (the spectrum, the
    minimizer's results, kernel extremes) is computed once and memoized in the
    private dict `_memo` by the functions that derive it; the memo lives as
    long as the chain and never enters a report.
    """

    __slots__ = (
        "graph", "kernel", "pi", "exact", "uniform_pi_stationary",
        "phi", "kbar", "phibar",
        "_pi_num", "_pi_den", "_phi_num", "_phi_den", "_out_num", "_memo",
    )

    def __init__(self, graph, kernel, pi, exact, uniform_pi_stationary=None):
        n = graph.vertex_count
        self.graph = graph
        self.kernel = tuple(tuple(row) for row in kernel)
        self.pi = tuple(pi)
        self.exact = exact
        self.uniform_pi_stationary = uniform_pi_stationary

        K, p = self.kernel, self.pi
        half = Fraction(1, 2) if exact else 0.5
        self.phi = tuple(tuple(K[u][v] * p[u] for v in range(n)) for u in range(n))
        self.kbar = tuple(
            tuple(half * (K[u][v] + K[v][u] * p[v] / p[u]) for v in range(n))
            for u in range(n)
        )
        self.phibar = tuple(
            tuple(half * (self.phi[u][v] + self.phi[v][u]) for v in range(n))
            for u in range(n)
        )

        # The cut functionals run on integer scales on both backends: a float is
        # a dyadic rational, so the scales of a float chain hold its floats exactly.
        pi_q = [x.as_integer_ratio() for x in p]
        phi_q = [[x.as_integer_ratio() for x in row] for row in self.phi]
        self._pi_den = pi_den = lcm(*(d for _, d in pi_q))
        self._phi_den = phi_den = lcm(*(d for row in phi_q for _, d in row))
        self._pi_num = tuple(a * (pi_den // d) for a, d in pi_q)
        self._phi_num = tuple(tuple(a * (phi_den // d) for a, d in row) for row in phi_q)
        self._out_num = tuple(
            sum(self._phi_num[u][v] for v in range(n) if v != u) for u in range(n)
        )
        self._memo = {}

    # -- cut functionals ---------------------------------------------------

    def vertex_mask(self, subset):
        """The bitmask of a set of vertices: bit v stands for vertex v."""
        mask = 0
        for v in subset:
            mask |= 1 << v
        if mask >> self.graph.vertex_count:
            raise ValueError("vertex out of range")
        return mask

    def scalar(self, num, den):
        """num / den for integers num and den > 0: a Fraction on an exact chain,
        else the correctly rounded float (Python's int division rounds once)."""
        return Fraction(num, den) if self.exact else num / den

    def cut_num(self, mask):
        """(pi_num, boundary_num) of the nonempty vertex set `mask` on the chain's
        integer scales: pi(Q) = pi_num / _pi_den, boundary(Q) = boundary_num / _phi_den.
        Both are exact on either backend.
        """
        if not mask:
            raise ValueError("boundary of the empty set is undefined")
        members = [v for v in range(mask.bit_length()) if mask >> v & 1]
        pi_num = self._pi_num
        out_num = self._out_num
        mass = 0
        outflow = 0
        for u in members:
            row = self._phi_num[u]
            mass += pi_num[u]
            outflow += out_num[u] + row[u] - sum(map(row.__getitem__, members))
        return mass, outflow

    def pi_mass(self, subset):
        mask = self.vertex_mask(subset)
        return self.scalar(self.cut_num(mask)[0], self._pi_den) if mask else 0

    def directed_boundary(self, subset):
        """Total flow out of `subset`: sum of phi(u,v) over arcs leaving it."""
        return self.scalar(self.cut_num(self.vertex_mask(subset))[1], self._phi_den)

    def inflow(self, subset):
        q = set(subset)
        if not q:
            raise ValueError("inflow of the empty set is undefined")
        total = 0
        for u in q:
            for v in self.graph.in_neighbors(u):
                if v not in q:
                    total += self.phi[v][u]
        return total

    def boundary_ratio(self, subset):
        """Normalized outflow boundary(Q)/pi(Q)."""
        mass, outflow = self.cut_num(self.vertex_mask(subset))
        return self.scalar(outflow * self._pi_den, mass * self._phi_den)

    def trace(self):
        return sum(self.kernel[u][u] for u in range(self.graph.vertex_count))

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"MarkovChain({self.graph!r}, {mode})"


def _support_graph_strongly_connected(graph, kernel):
    n = graph.vertex_count
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and kernel[u][v] != 0
    ]
    return graph.is_strongly_connected(arcs)


def _validate_kernel(graph, kernel, exact):
    n = graph.vertex_count
    if len(kernel) != n or any(len(row) != n for row in kernel):
        raise KernelError(f"kernel must be {n}x{n}")
    for u in range(n):
        for v in range(n):
            if not exact and not isfinite(kernel[u][v]):
                raise KernelError(f"non-finite kernel entry at ({u},{v})")
        row_sum = sum(kernel[u])
        if exact:
            if row_sum != 1:
                raise KernelError(f"row {u} sums to {row_sum}, expected 1")
        elif abs(row_sum - 1) > ROW_SUM:
            raise KernelError(f"row {u} sums to {row_sum!r}, expected 1")
        for v in range(n):
            if kernel[u][v] < 0:
                raise KernelError(f"negative kernel entry at ({u},{v})")
            if u != v and kernel[u][v] != 0 and not graph.has_arc(u, v):
                raise KernelError(f"kernel entry ({u},{v}) has no supporting arc")


def solve_stationary_exact(kernel):
    """Left fixed vector of a kernel via Gaussian elimination on K^T - I, exact on
    the values of its entries (a float is a dyadic rational), on both backends.

    A float row may miss a unit sum by up to ROW_SUM; such a row is divided by
    its exact sum first, so the result is the stationary law of the
    row-normalized kernel.  An exact kernel's rows sum to 1 and are used as they
    are.  Requires a one-dimensional null space and an everywhere-positive
    solution.
    """
    n = len(kernel)
    rows = []
    for row in kernel:
        row = [Fraction(x) for x in row]
        total = sum(row)
        rows.append(row if total == 1 else [x / total for x in row])
    m = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    piv_rows = []
    piv_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        piv_rows.append(r)
        piv_cols.append(c)
        r += 1
    free = [c for c in range(n) if c not in piv_cols]
    if len(free) != 1:
        raise NoNowherezeroStationary(
            f"stationary distribution is not unique (null space dimension {len(free)})"
        )
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for row, col in zip(piv_rows, piv_cols):
        x[col] = -m[row][free[0]]
    total = sum(x)
    if total == 0:
        raise NoNowherezeroStationary("stationary solution has zero total mass")
    x = [v / total for v in x]
    if any(v <= 0 for v in x):
        raise NoNowherezeroStationary("stationary distribution has a nonpositive entry")
    return tuple(x)


def build_chain(graph, kernel, exact=None, pi=None, uniform_pi_stationary=None):
    """Validate a kernel on a graph and construct the chain, solving for pi if needed.

    Both backends solve pi exactly; a float chain's pi is rounded once.
    """
    kernel = tuple(tuple(row) for row in kernel)
    if exact is None:
        exact = is_exact(*(x for row in kernel for x in row))
    if exact:
        kernel = tuple(tuple(Fraction(x) for x in row) for row in kernel)
    else:
        kernel = tuple(tuple(float(x) for x in row) for row in kernel)
    _validate_kernel(graph, kernel, exact)
    if not _support_graph_strongly_connected(graph, kernel):
        raise NoNowherezeroStationary("kernel support graph is not strongly connected")
    scalar = Fraction if exact else float
    if pi is None:
        pi = tuple(map(scalar, solve_stationary_exact(kernel)))
        if not all(pi):
            raise NoNowherezeroStationary("stationary distribution underflows to 0 as floats")
    else:
        pi = tuple(map(scalar, pi))
        _check_stationary(kernel, pi, exact)
    return MarkovChain(graph, kernel, pi, exact, uniform_pi_stationary)


def _check_stationary(kernel, pi, exact):
    n = len(kernel)
    if not all(0 < p < inf for p in pi):
        raise NoNowherezeroStationary("supplied pi has a nonpositive or non-finite entry")
    total = sum(pi)
    for v in range(n):
        lhs = sum(pi[u] * kernel[u][v] for u in range(n))
        if exact:
            if lhs != pi[v] or total != 1:
                raise NoNowherezeroStationary("supplied pi is not stationary")
        elif abs(lhs - pi[v]) > INPUT or abs(total - 1) > INPUT:
            raise NoNowherezeroStationary("supplied pi is not stationary")


def natural_walk(graph):
    """Out-degree random walk: K(u,v) = 1/outdeg(u) on every arc uv."""
    n = graph.vertex_count
    rows = []
    for u in range(n):
        d = graph.out_degree(u)
        if d == 0:
            raise KernelError(f"vertex {graph.labels[u]!r} has out-degree 0")
        row = [Fraction(0)] * n
        for v in graph.out_neighbors(u):
            row[v] = Fraction(1, d)
        rows.append(tuple(row))
    return build_chain(graph, rows, exact=True)


def lazy_max_degree_kernel(graph):
    """Max-out-degree lazy kernel: 1/d_max on non-loop arcs, remainder on the diagonal.

    The stationary distribution is solved, never assumed uniform; the
    uniform_pi_stationary flag on the result records whether uniform would
    have been stationary (true exactly when every column also sums to 1).
    """
    n = graph.vertex_count
    dmax = graph.max_out_degree()
    if dmax < 1:
        raise KernelError("graph has no arcs")
    rows = []
    for u in range(n):
        d = graph.out_degree(u)
        row = [Fraction(0)] * n
        for v in graph.out_neighbors(u):
            if v != u:
                row[v] = Fraction(1, dmax)
        if graph.has_arc(u, u):
            row[u] = Fraction(dmax - d + 1, dmax)
        else:
            row[u] = Fraction(dmax - d, dmax)
        if row[u] < 0:
            raise KernelError(f"vertex {u} out-degree exceeds the maximum")
        rows.append(tuple(row))
    uniform = all(sum(rows[u][v] for u in range(n)) == 1 for v in range(n))
    return build_chain(graph, rows, exact=True, uniform_pi_stationary=uniform)


def reversibilize(chain):
    """Chain with kernel K_bar on the symmetric base graph; pi is unchanged."""
    g = chain.graph
    base = Graph(g.labels, g.sdg_arcs())
    return build_chain(base, chain.kbar, exact=chain.exact, pi=chain.pi)
