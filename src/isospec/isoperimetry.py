"""Isoperimetric spectra: exact minimization over disjoint families and partitions.

The n'th isoperimetric value of a chain is the minimum over families of n
pairwise-disjoint nonempty vertex sets of the mean normalized outflow
(1/n) sum_i boundary(Q_i)/pi(Q_i); the tilde variant restricts the minimum
to partitions.  Minimization is exact.  Each top-level call builds one cut
table of all 2^V vertex sets (integer masses and outflows over fixed common
denominators, the ratio of each set as a Fraction and as a float, and the
least ratio over the subsets of each set).  A branch-and-bound search over
canonical families cuts a branch when a float lower bound from that table,
taken at an anchor, inside a class or at a class's close, exceeds the
incumbent by more than a relative and absolute margin of 1e-9.  The float
error of a bound is below 1e-14 relative, so the margin never cuts a family
that ties the optimum or beats it; the surviving families are compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .calculus import gradient_norm1
from .errors import CapExceeded, InvalidFamily
from .graphs import SubsetFamily, subset_family

DEFAULT_CAP = 14


@dataclass(frozen=True)
class IsoperimetricReport:
    n: int
    iota: object
    iota_tilde: object
    witness: object
    witness_tilde: object
    families_examined: int   # complete families the searches reached and scored


@dataclass(frozen=True)
class PositiveOrthonormalFamily:
    """Nonzero nonnegative functions, pi-unit in L1, with pairwise disjoint supports."""

    functions: tuple


# ---------------------------------------------------------------------------
# Family enumeration (restricted-growth labelings; label 0 = unassigned)
# ---------------------------------------------------------------------------

def enumerate_families(vcount, n, mode):
    """Yield every canonical family exactly once, in label-lexicographic order."""
    if not 1 <= n <= vcount:
        raise ValueError(f"n must be in 1..{vcount}, got {n}")
    if mode not in ("disjoint", "partition"):
        raise ValueError(f"unknown mode {mode!r}")
    labels = [0] * vcount

    def rec(pos, used):
        if pos == vcount:
            if used == n:
                classes = [[] for _ in range(n)]
                for v, lab in enumerate(labels):
                    if lab:
                        classes[lab - 1].append(v)
                yield SubsetFamily(tuple(frozenset(c) for c in classes), mode)
            return
        if vcount - pos < n - used:
            return
        choices = range(1, min(used + 1, n) + 1) if mode == "partition" else range(0, min(used + 1, n) + 1)
        for lab in choices:
            labels[pos] = lab
            yield from rec(pos + 1, used + (1 if lab == used + 1 else 0))
        labels[pos] = 0

    yield from rec(0, 0)


def family_objective(chain, fam):
    """Mean normalized outflow of a subset family."""
    total = sum(chain.boundary_ratio(cls) for cls in fam.classes)
    return total / len(fam.classes)


# ---------------------------------------------------------------------------
# Exact minimization
# ---------------------------------------------------------------------------

# Relative and absolute slack of the float pruning filter.  A bound is a float
# sum of at most n + 1 correctly rounded nonnegative terms, so its relative
# error is below (n + 2) * 2**-53, under 1e-14 for any n a 2^V table can
# hold; 1e-9 leaves five orders of magnitude between that error and a prune.
PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class CutTable:
    """Cut values of every vertex set of a chain, indexed by bitmask.

    pi_num[S] and boundary_num[S] are the mass and the outflow of S on the
    chain's integer scales (floats on a float chain); ratio[S] is
    boundary(S)/pi(S), a Fraction on an exact chain; ratio_f is its float copy
    and lb[S] the least ratio_f over the nonempty subsets of S (lb[0] = inf).
    last_ratio[S] is ratio[S] as the last class of a partition scores it: the
    same value on an exact chain; on a float chain the flow inside S is summed
    pair by pair rather than member by member, the rounding the minimizer has
    always given that class.
    """

    vertex_count: int
    pi_num: list
    boundary_num: list
    ratio: list
    ratio_f: list
    lb: list
    last_ratio: list


def cut_table(chain):
    """The cut table of `chain`: O(2^V) sums plus an O(V 2^V) subset-min transform.

    A set's mass, outflow and inner flow are extended from the set without its
    largest vertex, so on a float chain every sum runs over the members in
    increasing order.
    """
    vcount = chain.graph.vertex_count
    pi_v = chain._pi_num
    phi = chain._phi_num
    out_v = chain._out_num
    size = 1 << vcount
    pi_num = [0] * size
    out_sum = [0] * size
    inner = [0] * size     # flow between members, both directions
    pairwise = [0] * size  # the same, one pair at a time (float chains only)
    for h in range(vcount):
        base = 1 << h
        sym = [phi[h][m] + phi[m][h] for m in range(h)]
        cross = [0] * base  # cross[T]: flow between h and the members of T
        for t in range(1, base):
            top = t.bit_length() - 1
            cross[t] = cross[t ^ (1 << top)] + sym[top]
        ph = pi_v[h]
        oh = out_v[h]
        for t in range(base):
            pi_num[base | t] = pi_num[t] + ph
            out_sum[base | t] = out_sum[t] + oh
            inner[base | t] = inner[t] + cross[t]
            if not chain.exact:
                x = pairwise[t]
                for m in _members(t):
                    x += sym[m]
                pairwise[base | t] = x
    boundary_num = [o - i for o, i in zip(out_sum, inner)]
    if chain.exact:
        pi_den = chain._pi_den
        phi_den = chain._phi_den
        ratio = [None] + [
            Fraction(boundary_num[s] * pi_den, pi_num[s] * phi_den) for s in range(1, size)
        ]
        ratio_f = [inf] + [float(r) for r in ratio[1:]]
        last_ratio = ratio
    else:
        ratio = [None] + [boundary_num[s] / pi_num[s] for s in range(1, size)]
        ratio_f = [inf] + ratio[1:]
        last_ratio = [None] + [(out_sum[s] - pairwise[s]) / pi_num[s] for s in range(1, size)]
    lb = list(ratio_f)
    for v in range(vcount):
        bit = 1 << v
        for s in range(size):
            if s & bit and lb[s ^ bit] < lb[s]:
                lb[s] = lb[s ^ bit]
    return CutTable(vcount, pi_num, boundary_num, ratio, ratio_f, lb, last_ratio)


def _minimize(chain, n, mode, table):
    """Minimum mean normalized outflow over canonical families, with its witness.

    Returns (value, witness, leaves), leaves being the complete families the
    search reached and scored.  Classes are built one at a time in canonical
    order: class k's anchor is its minimum, the anchors increase, and in
    disjoint mode the vertices passed over by an anchor stay unassigned.  With
    `partial` the float sum of the closed classes' ratios and LB the subset
    minima of `table`, the chain's `cut_table`, a branch is cut

    * at the anchor a of class k, when partial + (n-k+1)·LB[a ∪ rest] is above
      the cutoff (every later class lies in a ∪ rest, the vertices from a on);
    * inside the member recursion, when partial + LB[cur ∪ undecided]
      + (n-k)·LB[rest \\ cur] is above it;
    * when class k closes with total t, when t + (n-k)·LB[remaining] is.

    The cutoff is the incumbent's float value inflated by PRUNE_MARGIN, both
    relative and absolute.  Each bound is a float image of a true lower bound,
    off by far less than that margin, so a family that ties the optimum or
    beats it is never cut.  The surviving leaves are scored exactly (ratio sums
    as Fractions on exact chains; on float chains the float sum in class order)
    and ties go to the lexicographically smallest canonical labelling.
    """
    vcount = table.vertex_count
    ratio = table.ratio
    ratio_f = table.ratio_f
    lb = table.lb
    exact = chain.exact
    last_ratio_f = ratio_f if exact else table.last_ratio
    partition = mode == "partition"

    best_sum = None
    best_labels = None
    best_classes = None
    cutoff = inf
    classes = []           # masks of the closed classes
    leaves = 0

    def finish(total_f):
        nonlocal best_sum, best_labels, best_classes, cutoff, leaves
        leaves += 1
        if total_f > cutoff:
            return
        total = sum(ratio[m] for m in classes) if exact else total_f
        if best_sum is not None and total > best_sum:
            return
        labels = [0] * vcount
        for k, m in enumerate(classes, 1):
            for v in _members(m):
                labels[v] = k
        labels = tuple(labels)
        if best_sum is None or total < best_sum:
            best_sum = total
            f = float(total)
            cutoff = f + PRUNE_MARGIN * f + PRUNE_MARGIN
        elif labels >= best_labels:
            return
        best_labels = labels
        best_classes = tuple(classes)

    def pick_class(k, avail, partial):
        after = n - k          # classes still to place after this one
        verts = _members(avail)
        for ai, a in enumerate(verts[:1] if partition else verts):
            bit = 1 << a
            rest = avail & ~(bit | (bit - 1))
            members = verts[ai + 1:]
            if len(members) < after or partial + (after + 1) * lb[bit | rest] > cutoff:
                break          # a later anchor only shrinks a ∪ rest
            if partition and not after:
                classes.append(avail)
                finish(partial + last_ratio_f[avail])
                classes.pop()
                break
            undecided = [rest]
            for v in members:
                undecided.append(undecided[-1] ^ (1 << v))

            def extend(i, cur, free, nfree):
                # cur: class so far; free: rest \ cur, of size nfree;
                # members[i:] undecided
                bound = partial + lb[cur | undecided[i]]
                if after:
                    bound += after * lb[free]
                if bound > cutoff:
                    return
                if i == len(members):
                    total = partial + ratio_f[cur]
                    classes.append(cur)
                    if not after:
                        finish(total)
                    elif total + after * lb[free] <= cutoff:
                        pick_class(k + 1, free, total)
                    classes.pop()
                    return
                extend(i + 1, cur, free, nfree)
                if nfree > after:
                    t = 1 << members[i]
                    extend(i + 1, cur | t, free ^ t, nfree - 1)

            extend(0, bit, rest, len(members))

    pick_class(1, (1 << vcount) - 1, 0.0)
    witness = SubsetFamily(tuple(frozenset(_members(m)) for m in best_classes), mode)
    return best_sum / n, witness, leaves


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _check_cap(chain, cap):
    vcount = chain.graph.vertex_count
    if vcount > cap:
        raise CapExceeded(
            f"{vcount} vertices exceeds the enumeration cap {cap}; pass a larger cap"
        )


def isoperimetric_constant(chain, n, mode="both", cap=DEFAULT_CAP, table=None):
    """Exact iota_n / iota~_n with minimizing witnesses.

    mode selects which side is computed ("disjoint", "partition" or "both");
    the unsolved side is reported as None.  `table`, the chain's `cut_table`,
    is built here when not given; callers that ask for several n pass one.
    """
    vcount = chain.graph.vertex_count
    if not 1 <= n <= vcount:
        raise ValueError(f"n must be in 1..{vcount}, got {n}")
    _check_cap(chain, cap)
    if table is None:
        table = cut_table(chain)
    iota = iota_tilde = witness = witness_tilde = None
    examined = 0
    if mode in ("disjoint", "both"):
        iota, witness, k = _minimize(chain, n, "disjoint", table)
        examined += k
    if mode in ("partition", "both"):
        iota_tilde, witness_tilde, k = _minimize(chain, n, "partition", table)
        examined += k
    return IsoperimetricReport(n, iota, iota_tilde, witness, witness_tilde, examined)


def isoperimetric_table(chain, max_n=None, cap=DEFAULT_CAP):
    """Reports for n = 1..max_n (default the vertex count), from one cut table."""
    vcount = chain.graph.vertex_count
    if max_n is None:
        max_n = vcount
    _check_cap(chain, cap)
    table = cut_table(chain)
    return tuple(
        isoperimetric_constant(chain, n, "both", cap, table) for n in range(1, max_n + 1)
    )


# ---------------------------------------------------------------------------
# Classical Cheeger constants
# ---------------------------------------------------------------------------

def classical_cheeger(chain, version="mean"):
    """min over nonempty proper Q of boundary(Q)/(2 pi(Q)(1-pi(Q))), or the
    min-version restricted to pi(Q) <= 1/2 with denominator pi(Q)."""
    vcount = chain.graph.vertex_count
    if vcount < 2:
        raise ValueError("need at least two vertices")
    if vcount > 24:
        raise CapExceeded("classical_cheeger enumerates all cuts; graph too large")
    best = None
    half = Fraction(1, 2) if chain.exact else 0.5
    one = Fraction(1) if chain.exact else 1.0
    for mask in range(1, (1 << vcount) - 1):
        q = [v for v in range(vcount) if mask >> v & 1]
        bnd = chain.directed_boundary(q)
        mass = chain.pi_mass(q)
        if version == "mean":
            val = bnd / (2 * mass * (one - mass))
        elif version == "min":
            if mass > half:
                continue
            val = bnd / mass
        else:
            raise ValueError(f"unknown version {version!r}")
        if best is None or val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# Functional objective, level-set rounding, random families
# ---------------------------------------------------------------------------

def _lcm(a, b):
    return a * b // gcd(a, b)


def validate_positive_family(chain, fam):
    """Exact check of the positive-orthonormal family invariants."""
    vcount = chain.graph.vertex_count
    seen = set()
    for i, f in enumerate(fam.functions):
        if len(f) != vcount:
            raise InvalidFamily(f"function {i} has wrong length")
        supp = set()
        for v, x in enumerate(f):
            if x < 0:
                raise InvalidFamily(f"function {i} is negative at vertex {v}")
            if x != 0:
                supp.add(v)
        if not supp:
            raise InvalidFamily(f"function {i} is identically zero")
        if supp & seen:
            raise InvalidFamily(f"function {i} overlaps an earlier support")
        seen |= supp
        norm = sum(f[v] * chain.pi[v] for v in supp)
        if chain.exact:
            if norm != 1:
                raise InvalidFamily(f"function {i} has L1 pi-norm {norm}, expected 1")
        elif abs(norm - 1.0) > 1e-10:
            raise InvalidFamily(f"function {i} has L1 pi-norm {norm!r}, expected 1")


def gamma_objective(chain, fam):
    """Mean directed-gradient L1 norm of a validated positive-orthonormal family."""
    validate_positive_family(chain, fam)
    n = len(fam.functions)
    if chain.exact:
        total = Fraction(0)
        phi_num = chain._phi_num
        arcs = sorted(chain.graph.sdg_arcs())
        for f in fam.functions:
            den = 1
            for x in f:
                den = _lcm(den, x.denominator)
            g = [int(x * den) for x in f]
            acc = 0
            for u, v in arcs:
                d = g[u] - g[v]
                if d > 0:
                    acc += d * phi_num[u][v]
            total += Fraction(acc, den * chain._phi_den)
        return total / n
    total = 0.0
    for f in fam.functions:
        total += gradient_norm1(chain, [float(x) for x in f], "directed")
    return total / n


def level_set_rounding(chain, fam):
    """Per function, the superlevel set minimizing boundary/mass; the co-area
    identity makes the resulting family objective at most the functional one."""
    validate_positive_family(chain, fam)
    pi_num = chain._pi_num
    phi_num = chain._phi_num
    out_num = chain._out_num
    classes = []
    for f in fam.functions:
        order = sorted(range(len(f)), key=lambda v: (f[v], v), reverse=True)
        order = [v for v in order if f[v] > 0]
        members = []
        psum = 0
        osum = 0
        inner = 0
        best = None
        best_set = None
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and f[order[j]] == f[order[i]]:
                t = order[j]
                for m in members:
                    inner += phi_num[t][m] + phi_num[m][t]
                members.append(t)
                psum += pi_num[t]
                osum += out_num[t]
                j += 1
            if chain.exact:
                ratio = Fraction((osum - inner) * chain._pi_den, psum * chain._phi_den)
            else:
                ratio = ((osum - inner) * chain._pi_den) / (psum * chain._phi_den)
            if best is None or ratio < best:
                best = ratio
                best_set = tuple(members)
            i = j
        classes.append(best_set)
    return subset_family(classes, "disjoint", chain.graph.vertex_count)


def characteristic_family(chain, fam):
    """The normalized indicator family chi_Q / pi(Q) over a subset family."""
    functions = []
    for cls in fam.classes:
        mass = chain.pi_mass(cls)
        functions.append(
            tuple(
                (1 / mass if v in cls else Fraction(0) if chain.exact else 0.0)
                for v in range(chain.graph.vertex_count)
            )
        )
    return PositiveOrthonormalFamily(tuple(functions))


def random_positive_family(chain, n, rng, partition=False):
    """Random supports (one anchor per class, the rest uniform) with independent
    positive rational values, L1-normalized per class."""
    vcount = chain.graph.vertex_count
    perm = rng.sample(range(vcount), vcount)
    labels = [0] * vcount
    for k in range(n):
        labels[perm[k]] = k + 1
    lo = 1 if partition else 0
    for v in perm[n:]:
        labels[v] = rng.randint(lo, n)
    functions = []
    for k in range(1, n + 1):
        vals = [Fraction(0)] * vcount
        for v in range(vcount):
            if labels[v] == k:
                vals[v] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        norm = sum(x * p for x, p in zip(vals, chain.pi))
        functions.append(tuple(x / norm for x in vals))
    return PositiveOrthonormalFamily(tuple(functions))


def random_disjoint_family(chain, n, rng, partition=False):
    vcount = chain.graph.vertex_count
    perm = rng.sample(range(vcount), vcount)
    labels = [0] * vcount
    for k in range(n):
        labels[perm[k]] = k + 1
    lo = 1 if partition else 0
    for v in perm[n:]:
        labels[v] = rng.randint(lo, n)
    classes = [[v for v in range(vcount) if labels[v] == k] for k in range(1, n + 1)]
    return subset_family(classes, "partition" if partition else "disjoint", vcount)


# ---------------------------------------------------------------------------
# Supergeometric classification and the structural-inequality suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupergeometricReport:
    rows: tuple          # (n, iota, iota_tilde, geometric)
    supergeometric: object   # bool when max_n covers the vertex count, else None
    max_n: int


def supergeometric_classify(chain, max_n=None, cap=DEFAULT_CAP):
    vcount = chain.graph.vertex_count
    if max_n is None:
        max_n = vcount
    if not 2 <= max_n <= vcount:
        raise ValueError(f"max_n must be in 2..{vcount}")
    _check_cap(chain, cap)
    table = cut_table(chain)
    rows = []
    for n in range(2, max_n + 1):
        rep = isoperimetric_constant(chain, n, "both", cap, table)
        rows.append((n, rep.iota, rep.iota_tilde, rep.iota == rep.iota_tilde))
    overall = all(r[3] for r in rows) if max_n == vcount else None
    return SupergeometricReport(tuple(rows), overall, max_n)


def complete_graph_reference(n, t):
    """Closed-form complete-graph values: the mean definition gives
    n(t-1)/(t(n-1)).  The variant without the 1/t mean factor circulates in
    the literature, so both are reported with a discrepancy flag."""
    corrected = Fraction(n * (t - 1), t * (n - 1))
    printed = Fraction(n, n - 1) * (t - 1)
    return {
        "n": n,
        "t": t,
        "corrected": corrected,
        "printed": printed,
        "discrepancy": corrected != printed,
    }


def proposition_bounds_check(chain, fam):
    """The two weighted-mean bounds for merging a class with the leftover set
    (S, needs a disjoint family) or merging two classes (T, drops one class).

    Returns per-bound dicts with lhs (the min), rhs, and holds flags.
    """
    classes = fam.classes
    n_classes = len(classes)
    ratios = [chain.boundary_ratio(c) for c in classes]
    covered = set().union(*classes)
    q_star = [v for v in range(chain.graph.vertex_count) if v not in covered]
    pi_star = chain.pi_mass(q_star) if q_star else Fraction(0) if chain.exact else 0.0
    b_star = chain.directed_boundary(q_star) if q_star else Fraction(0) if chain.exact else 0.0

    out = {}
    n = n_classes
    s_values = []
    for j in range(n):
        merged = set(classes[j]) | set(q_star)
        val = chain.boundary_ratio(merged) + sum(ratios[i] for i in range(n) if i != j)
        s_values.append(val / n)
    s_rhs = (
        (n - 2) * b_star + (1 + (n - 2) * pi_star) * sum(ratios)
    ) / (n * (1 + (n - 1) * pi_star))
    out["S"] = {"lhs": min(s_values), "rhs": s_rhs, "holds": min(s_values) <= s_rhs}

    if n_classes >= 2:
        m = n_classes - 1
        t_values = []
        for j in range(n_classes):
            for k in range(j + 1, n_classes):
                merged = set(classes[j]) | set(classes[k])
                val = chain.boundary_ratio(merged) + sum(
                    ratios[i] for i in range(n_classes) if i not in (j, k)
                )
                t_values.append(val / m)
        t_rhs = b_star / (m * m * (1 - pi_star)) + Fraction(m - 1, m * m) * sum(ratios) \
            if chain.exact else b_star / (m * m * (1 - pi_star)) + (m - 1) / (m * m) * sum(ratios)
        out["T"] = {"lhs": min(t_values), "rhs": t_rhs, "holds": min(t_values) <= t_rhs}
    return out


def structural_inequalities_check(chain, samples=200, rng=None, reports=None, cap=DEFAULT_CAP):
    """Exact verification of the structural inequalities tying iota and iota~ together.

    Checks, per n: 0 <= iota~_n - iota_n <= 1/n, iota~_2 = iota_2, the
    (1 - 1/n^2) partition monotonicity, disjoint monotonicity, the full chain
    0 = iota_1 <= ... <= iota_V with endpoint 1 - trace(K)/V, plus the S/T
    weighted-mean bounds on `samples` random disjoint families per n.
    Violations are returned as findings, not raised.
    """
    import random as _random

    vcount = chain.graph.vertex_count
    if reports is None:
        reports = isoperimetric_table(chain, cap=cap)
    rng = rng or _random.Random(20240)
    findings = []

    def record(name, ok, detail):
        if not ok:
            findings.append({"check": name, "detail": detail})

    iotas = [rep.iota for rep in reports]
    tildes = [rep.iota_tilde for rep in reports]
    for idx, rep in enumerate(reports, start=1):
        gap = rep.iota_tilde - rep.iota
        record("gap_lower", gap >= 0, f"n={idx} gap={gap}")
        record("gap_upper", gap <= Fraction(1, idx) if chain.exact else gap <= 1 / idx,
               f"n={idx} gap={gap}")
    if vcount >= 2:
        record("two_geometric", tildes[1] == iotas[1], f"{tildes[1]} != {iotas[1]}")
    for n in range(1, vcount):
        bound = (1 - Fraction(1, n * n)) if chain.exact else 1 - 1 / (n * n)
        record("partition_monotone", tildes[n - 1] <= bound * tildes[n],
               f"n={n}: {tildes[n-1]} > (1-1/n^2)*{tildes[n]}")
        record("disjoint_monotone", iotas[n - 1] <= iotas[n],
               f"n={n}: {iotas[n-1]} > {iotas[n]}")
    record("chain_start", iotas[0] == 0, f"iota_1={iotas[0]}")
    endpoint = 1 - chain.trace() / vcount
    record("chain_endpoint", iotas[-1] == endpoint,
           f"iota_{vcount}={iotas[-1]} expected {endpoint}")

    prop_checked = 0
    for n in range(1, vcount + 1):
        for _ in range(samples):
            fam = random_disjoint_family(chain, n, rng)
            res = proposition_bounds_check(chain, fam)
            for name, r in res.items():
                prop_checked += 1
                record(f"proposition_{name}", r["holds"],
                       f"n={n} lhs={r['lhs']} rhs={r['rhs']}")
    return {
        "vertex_count": vcount,
        "iota_chain": tuple(iotas),
        "iota_tilde_chain": tuple(tildes),
        "endpoint": endpoint,
        "proposition_samples": prop_checked,
        "findings": findings,
        "passed": not findings,
    }
