"""Markov kernels on graphs: stationary laws, flows, reversibilization, cut functionals."""

from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, lcm

from .errors import KernelError, NoNowherezeroStationary
from .graphs import Graph
from .tolerance import INPUT, ROW_SUM, is_exact


class MarkovChain:
    """A row-stochastic kernel on a base graph with its stationary distribution.

    Stores the kernel and pi tuples it is given, the induced flow
    phi(u,v) = K(u,v) pi(u), the additive reversibilization K_bar = (K + K*)/2
    and its flow phi_bar.  In exact mode every entry is a Fraction; otherwise
    floats.  phi_bar and K_bar are made once by `scalar` from the integer unit.
    The public fields are never changed after construction, so data derived
    from them (the spectrum, the cut table, the minimizer's results, kernel
    extremes) is computed once and memoized in the private dict `_memo` by the
    functions that derive it; the memo lives as long as the chain and never
    enters a report.
    """

    __slots__ = (
        "graph", "kernel", "pi", "exact", "phi", "kbar", "phibar",
        "_den", "_pi_num", "_phi_num", "_sym_num", "_out_num", "_memo",
    )

    def __init__(self, graph, kernel, pi, exact):
        n = graph.vertex_count
        self.graph = graph
        self.kernel = kernel
        self.pi = pi
        self.exact = exact
        self.phi = tuple(tuple(k * p for k in row) for row, p in zip(kernel, pi))

        # The cut functionals run on one integer unit, pi = _pi_num / _den and phi =
        # _phi_num / _den, exact on both backends (a float is a dyadic rational).
        # On an exact chain _den is phi's own denominator: pi(u) = sum_v phi(u, v).
        # _sym_num[u][v] is the flow between u and v, both ways: phi_bar(u, v) is
        # _sym_num[u][v] / 2 _den and K_bar(u, v) is _sym_num[u][v] / 2 _pi_num[u].
        pi_q = [x.as_integer_ratio() for x in pi]
        phi_q = [[x.as_integer_ratio() for x in row] for row in self.phi]
        self._den = den = lcm(*(d for _, d in pi_q), *(d for row in phi_q for _, d in row))
        self._pi_num = pi_num = tuple(a * (den // d) for a, d in pi_q)
        self._phi_num = phi = tuple(tuple(a * (den // d) for a, d in row) for row in phi_q)
        self._sym_num = sym = tuple(
            tuple(phi[u][v] + phi[v][u] for v in range(n)) for u in range(n)
        )
        self._out_num = tuple(sum(row) - row[u] for u, row in enumerate(phi))
        self.phibar = tuple(tuple(self.scalar(x, 2 * den) for x in row) for row in sym)
        self.kbar = tuple(tuple(self.scalar(x, 2 * p) for x in row) for row, p in zip(sym, pi_num))
        self._memo = {}

    @property
    def uniform_pi_stationary(self):
        """Whether the uniform law is stationary: pi is unique, so exactly when
        every entry of pi is equal."""
        return all(p == self.pi[0] for p in self.pi)

    # -- cut functionals ---------------------------------------------------

    def vertex_mask(self, subset):
        """The bitmask of a set of vertices: bit v stands for vertex v."""
        vcount = self.graph.vertex_count
        mask = 0
        for v in subset:
            if not 0 <= v < vcount:
                raise ValueError("vertex out of range")
            mask |= 1 << v
        return mask

    def scalar(self, num, den):
        """num / den for integers num and den > 0: a Fraction on an exact chain,
        else the correctly rounded float (Python's int division rounds once)."""
        return Fraction(num, den) if self.exact else num / den

    def cut_num(self, mask):
        """(mass, boundary) of the nonempty vertex set `mask` as integers over the
        chain's one denominator, exact on either backend: pi(Q) = mass / _den,
        boundary(Q) = boundary / _den, and boundary / mass is the normalized outflow.
        """
        if not mask:
            raise ValueError("boundary of the empty set is undefined")
        members = _members(mask)
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
        return self.scalar(self.cut_num(mask)[0] if mask else 0, self._den)

    def directed_boundary(self, subset):
        """Total flow out of `subset`: sum of phi(u,v) over arcs leaving it."""
        return self.scalar(self.cut_num(self.vertex_mask(subset))[1], self._den)

    def inflow(self, subset):
        """Total flow into `subset`: sum of phi(v,u) over arcs entering it, which
        is the flow out of its complement."""
        mask = self.vertex_mask(subset)
        if not mask:
            raise ValueError("inflow of the empty set is undefined")
        rest = mask ^ ((1 << self.graph.vertex_count) - 1)
        return self.scalar(self.cut_num(rest)[1] if rest else 0, self._den)

    def boundary_ratio(self, subset):
        """Normalized outflow boundary(Q)/pi(Q)."""
        mass, outflow = self.cut_num(self.vertex_mask(subset))
        return self.scalar(outflow, mass)

    def trace(self):
        return sum(self.kernel[u][u] for u in range(self.graph.vertex_count))

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"MarkovChain({self.graph!r}, {mode})"


def _members(mask):
    """The vertices of the bitmask `mask`, in increasing order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _validate_kernel(graph, kernel, exact):
    n = graph.vertex_count
    if len(kernel) != n or any(len(row) != n for row in kernel):
        raise KernelError(f"kernel must be {n}x{n}")
    slack = 0 if exact else ROW_SUM
    for u in range(n):
        for v in range(n):
            if not exact and not isfinite(kernel[u][v]):
                raise KernelError(f"non-finite kernel entry at ({u},{v})")
        row_sum = sum(kernel[u])
        if abs(row_sum - 1) > slack:
            raise KernelError(f"row {u} sums to {row_sum}, expected 1")
        for v in range(n):
            if kernel[u][v] < 0:
                raise KernelError(f"negative kernel entry at ({u},{v})")
            if u != v and kernel[u][v] != 0 and not graph.has_arc(u, v):
                raise KernelError(f"kernel entry ({u},{v}) has no supporting arc")


def solve_stationary_exact(kernel):
    """The stationary law of a kernel by one fraction-free elimination, exact on
    the values of its entries (a float is a dyadic rational), on both backends.

    Row u is scaled to integers a[u] with exact sum s(u), so a float row that
    misses 1 by up to ROW_SUM is read row-normalized.  With y(u) = pi(u) / s(u),
    stationarity is y (diag(s) - A) = 0, whose last equation follows from the
    others (the rows of diag(s) - A sum to 0).  The first n - 1, with y(n-1)
    free, are solved by Bareiss elimination and integer back-substitution.
    No pivoting is needed: for an irreducible kernel every proper principal
    submatrix of I - K is a nonsingular M-matrix, so the pivots, the leading
    principal minors of diag(s) - A, are positive.  A zero pivot or a
    nonpositive entry of the law raises NoNowherezeroStationary, so a
    reducible kernel is refused.
    """
    n = len(kernel)
    a = []
    for row in kernel:
        ratios = [x.as_integer_ratio() for x in row]
        den = lcm(*(d for _, d in ratios))
        a.append([num * (den // d) for num, d in ratios])
    s = [sum(row) for row in a]
    # equation v < n - 1, column u: the coefficient of y(u)
    m = [[(s[u] if u == v else 0) - a[u][v] for u in range(n)] for v in range(n - 1)]
    prev = 1
    for k, pivot_row in enumerate(m):
        pivot = pivot_row[k]
        if not pivot:
            raise NoNowherezeroStationary("zero pivot: the kernel is not irreducible")
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    # y(n-1) = the last pivot, the determinant of the system: by Cramer's rule
    # every y(u) is then an integer, so each division below is exact
    y = [0] * (n - 1) + [prev]
    for k in reversed(range(n - 1)):
        row = m[k]
        y[k] = -sum(row[j] * y[j] for j in range(k + 1, n)) // row[k]
    w = [yu * su for yu, su in zip(y, s)]
    if any(x <= 0 for x in w):
        raise NoNowherezeroStationary("stationary distribution has a nonpositive entry")
    total = sum(w)
    return tuple(Fraction(x, total) for x in w)


def build_chain(graph, kernel, pi=None):
    """Validate a kernel on a graph and construct the chain, solving for pi if needed.

    The backend is read from the entries: exact when every one is rational,
    else float.  Both backends solve pi exactly; a float chain's pi is rounded
    once.  A supplied pi is checked for stationarity instead.
    """
    kernel = tuple(tuple(row) for row in kernel)
    exact = is_exact(*(x for row in kernel for x in row))
    scalar = Fraction if exact else float
    kernel = tuple(tuple(map(scalar, row)) for row in kernel)
    _validate_kernel(graph, kernel, exact)
    arcs = [(u, v) for u, row in enumerate(kernel) for v, x in enumerate(row) if u != v and x]
    if not graph.is_strongly_connected(arcs):
        raise NoNowherezeroStationary("kernel support graph is not strongly connected")
    if pi is None:
        pi = tuple(map(scalar, solve_stationary_exact(kernel)))
        if not all(pi):
            raise NoNowherezeroStationary("stationary distribution underflows to 0 as floats")
    else:
        pi = tuple(map(scalar, pi))
        _check_stationary(kernel, pi, exact)
    return MarkovChain(graph, kernel, pi, exact)


def _check_stationary(kernel, pi, exact):
    n = len(kernel)
    if not all(0 < p < inf for p in pi):
        raise NoNowherezeroStationary("supplied pi has a nonpositive or non-finite entry")
    slack = 0 if exact else INPUT
    total = sum(pi)
    for v in range(n):
        lhs = sum(pi[u] * kernel[u][v] for u in range(n))
        if abs(lhs - pi[v]) > slack or abs(total - 1) > slack:
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
    return build_chain(graph, rows)


def lazy_max_degree_kernel(graph):
    """Max-out-degree lazy kernel: 1/d_max on non-loop arcs, remainder on the diagonal.

    The stationary distribution is solved, never assumed uniform; the
    chain's uniform_pi_stationary tells whether it is.
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
    return build_chain(graph, rows)


def reversibilize(chain):
    """Chain with kernel K_bar on the symmetric base graph; pi is unchanged."""
    g = chain.graph
    base = Graph(g.labels, g.sdg_arcs())
    return build_chain(base, chain.kbar, pi=chain.pi)
