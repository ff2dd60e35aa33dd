"""Isoperimetric spectra: exact minimization over disjoint families and partitions.

The n'th isoperimetric value of a chain is the minimum over families of n
pairwise-disjoint nonempty vertex sets of the mean normalized outflow
(1/n) sum_i boundary(Q_i)/pi(Q_i); the tilde variant restricts the minimum
to partitions.  Minimization is exact, and its results are memoized on the
chain, as is the one cut table of all 2^V vertex sets that the first search
builds (each set's integer mass and outflow, its ratio as a correctly
rounded float, and the least ratio over the subsets of each set).  A
branch-and-bound search over canonical families cuts a branch when a float
lower bound from that table, taken at an anchor, inside a class or at a
class's close, exceeds the incumbent by more than a relative and absolute
margin of 1e-9.  The float error of a bound is below 1e-14 relative, so the
margin never cuts a family that ties the optimum or beats it; the surviving
families are compared exactly.

The minimizer, the positive-family layer (random families, the gradient
objective, level-set rounding) and the cut functionals (family objective, the
S/T merge bounds, the classical Cheeger constants) run on one integer unit,
pi = _pi_num / _den and phi = _phi_num / _den, so a vertex set's ratio is the
boundary / mass of MarkovChain.cut_num.  A function is a vector of integer
numerators over one common denominator, a sum of ratios is one integer pair
(`_ratio_sum`), and ratios are compared by cross-multiplying.  The unit is
exact on both backends (a float is a dyadic rational), so every question is
decided on the chain's exact values, and a returned value is made once by
MarkovChain.scalar: a Fraction on an exact chain, else the correctly rounded float.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .chains import _members
from .errors import CapExceeded, InvalidFamily
from .graphs import SubsetFamily, _class_masks
from .tolerance import INPUT, PRUNE_MARGIN, at_most

DEFAULT_CAP = 14


@dataclass(frozen=True)
class IsoperimetricReport:
    n: int
    iota: object
    iota_tilde: object
    witness: object
    witness_tilde: object


@dataclass(frozen=True)
class PositiveOrthonormalFamily:
    """Nonzero nonnegative functions, pi-unit in L1, with pairwise disjoint supports.

    `random_positive_family` and `characteristic_family` build a family from
    its form (see `validate_positive_family`), valid by construction, and keep
    it for the chain it was built on; `gamma_objective` and
    `level_set_rounding` reuse it.  A family built by hand is validated on
    every call.
    """

    functions: tuple
    # (chain, form), set by _built_family; not a field, so equality, repr and
    # reports ignore it
    _form = None


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


def _ratio_sum(pairs):
    """Sum of outflow / mass over (mass, outflow) pairs, as integers (num, den > 0)."""
    num, den = 0, 1
    for mass, outflow in pairs:
        num = num * mass + outflow * den
        den *= mass
    return num, den


def family_objective(chain, fam):
    """Mean normalized outflow of a subset family."""
    masks = _class_masks(fam.classes, fam.mode, chain.graph.vertex_count)
    num, den = _ratio_sum(map(chain.cut_num, masks))
    return chain.scalar(num, den * len(masks))


# ---------------------------------------------------------------------------
# Exact minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutTable:
    """Cut values of every vertex set of a chain, indexed by bitmask.

    (mass[S], boundary[S]) is `chain.cut_num(S)`, exact on either backend;
    ratio_f[S] is boundary(S)/pi(S) correctly rounded and lb[S] the least
    ratio_f over the nonempty subsets of S (the empty set has 0, 0, inf, inf).
    The table is memoized on its chain and shared by every caller, so its
    lists are never changed.
    """

    vertex_count: int
    mass: list
    boundary: list
    ratio_f: list
    lb: list


def cut_table(chain):
    """The cut table of `chain`, built once and memoized on it: O(2^V) integer
    sums plus an O(V 2^V) subset-min transform.  A set T | h is extended from
    T, the set without its largest vertex h: adding h adds h's outflow and
    removes the flow between h and T, both directions, from the boundary.
    """
    table = chain._memo.get("cut_table")
    if table is not None:
        return table
    vcount = chain.graph.vertex_count
    pi_v = chain._pi_num
    out_v = chain._out_num
    size = 1 << vcount
    pi_num = [0] * size
    boundary = [0] * size
    for h in range(vcount):
        base = 1 << h
        sym = chain._sym_num[h]
        cross = [0] * base  # cross[T]: flow between h and the members of T
        for t in range(1, base):
            top = t.bit_length() - 1
            cross[t] = cross[t ^ (1 << top)] + sym[top]
        ph = pi_v[h]
        oh = out_v[h]
        for t in range(base):
            pi_num[base | t] = pi_num[t] + ph
            boundary[base | t] = boundary[t] + oh - cross[t]
    # int true division rounds once
    ratio_f = [inf] + [b / m for m, b in zip(pi_num[1:], boundary[1:])]
    lb = list(ratio_f)
    for v in range(vcount):
        bit = 1 << v
        for s in range(size):
            if s & bit and lb[s ^ bit] < lb[s]:
                lb[s] = lb[s ^ bit]
    table = chain._memo["cut_table"] = CutTable(vcount, pi_num, boundary, ratio_f, lb)
    return table


def _minimize(chain, n, mode, table):
    """Minimum mean normalized outflow over canonical families, with its witness.

    Returns (value, witness, leaves), leaves being the complete families the
    search reached and scored.  The leaf count enters no report: it depends on
    the search, not on the chain, and its one reader is the benchmark's tracer
    (perfbench/tracing.py).  Classes are built one at a time in canonical
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
    beats it is never cut.  The surviving leaves are scored exactly (integer
    ratio sums by `_ratio_sum`) and ties go to the lexicographically smallest
    canonical labelling; the minimum is rounded once by `chain.scalar`.
    """
    vcount = table.vertex_count
    mass = table.mass
    boundary = table.boundary
    ratio_f = table.ratio_f
    lb = table.lb
    partition = mode == "partition"

    best_num, best_den = 1, 0    # the incumbent's ratio sum; 1/0 before the first
    best_labels = None
    best_classes = None
    cutoff = inf
    classes = []           # masks of the closed classes
    leaves = 0

    def finish(total_f):
        nonlocal best_num, best_den, best_labels, best_classes, cutoff, leaves
        leaves += 1
        if total_f > cutoff:
            return
        num, den = _ratio_sum((mass[m], boundary[m]) for m in classes)
        if num * best_den > best_num * den:
            return
        labels = [0] * vcount
        for k, m in enumerate(classes, 1):
            for v in _members(m):
                labels[v] = k
        labels = tuple(labels)
        if num * best_den < best_num * den:
            best_num, best_den = num, den
            f = num / den
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
                finish(partial + ratio_f[avail])
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
    return chain.scalar(best_num, best_den * n), witness, leaves


def _check_query(chain, n, mode, cap):
    """Refuse an n outside 1..V, an unknown mode and a chain over the cap."""
    vcount = chain.graph.vertex_count
    if not 1 <= n <= vcount:
        raise ValueError(f"n must be in 1..{vcount}, got {n}")
    if mode not in ("disjoint", "partition", "both"):
        raise ValueError(f"mode must be 'disjoint', 'partition' or 'both', got {mode!r}")
    if vcount > cap:
        raise CapExceeded(
            f"{vcount} vertices exceeds the enumeration cap {cap}; pass a larger cap"
        )


def _report(chain, n, mode):
    """The report for one n; the side `mode` leaves out is None.

    Each side's (value, witness) is memoized on the chain; the chain's cut
    table is asked for only for a side that is not memoized yet.
    """
    memo = chain._memo
    found = {}
    for side in ("disjoint", "partition"):
        if mode in (side, "both"):
            key = ("iota", n, side)
            if key not in memo:
                memo[key] = _minimize(chain, n, side, cut_table(chain))[:2]
            found[side] = memo[key]
    iota, witness = found.get("disjoint", (None, None))
    iota_tilde, witness_tilde = found.get("partition", (None, None))
    return IsoperimetricReport(n, iota, iota_tilde, witness, witness_tilde)


def isoperimetric_constant(chain, n, mode="both", *, cap=DEFAULT_CAP):
    """Exact iota_n / iota~_n with minimizing witnesses, from one cut table.

    mode selects which side is computed ("disjoint", "partition" or "both");
    the unsolved side is reported as None.  Results and the cut table are
    memoized on the chain.
    """
    _check_query(chain, n, mode, cap)
    return _report(chain, n, mode)


def isoperimetric_table(chain, max_n=None, mode="both", *, cap=DEFAULT_CAP):
    """Reports for n = 1..max_n (default the vertex count), from the chain's
    one cut table; `mode` is as in `isoperimetric_constant`."""
    if max_n is None:
        max_n = chain.graph.vertex_count
    _check_query(chain, max_n, mode, cap)
    return tuple(_report(chain, n, mode) for n in range(1, max_n + 1))


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
    unit = chain._den      # pi(Q) = mass / unit
    best = None            # (num, den) of the least value so far
    for mask in range(1, (1 << vcount) - 1):
        mass, bnd = chain.cut_num(mask)
        if version == "mean":
            val = (bnd * unit, 2 * mass * (unit - mass))
        elif version == "min":
            if 2 * mass > unit:
                continue
            val = (bnd, mass)
        else:
            raise ValueError(f"unknown version {version!r}")
        if best is None or val[0] * best[1] < best[0] * val[1]:
            best = val
    return chain.scalar(*best)


# ---------------------------------------------------------------------------
# Functional objective, level-set rounding, random families
# ---------------------------------------------------------------------------

def validate_positive_family(chain, fam):
    """Exact check of the positive-orthonormal family invariants.

    Returns the family's form: per function its integer numerators over a
    common denominator, (nums, den) with f(v) = nums[v]/den, exact for float
    values too.  A float chain's family may miss the unit L1 pi-norm by INPUT.
    """
    if not fam.functions:
        raise InvalidFamily("family has no functions")
    vcount = chain.graph.vertex_count
    pi_num = chain._pi_num
    unit = chain._den
    form = []
    seen = 0
    for i, f in enumerate(fam.functions):
        if len(f) != vcount:
            raise InvalidFamily(f"function {i} has wrong length")
        try:
            f = [Fraction(x) for x in f]
        except (ValueError, OverflowError) as exc:
            raise InvalidFamily(f"function {i} has a value that is not a finite number") from exc
        den = lcm(*(x.denominator for x in f))
        nums = tuple(x.numerator * (den // x.denominator) for x in f)
        supp = 0
        mass = 0
        for v, x in enumerate(nums):
            if x < 0:
                raise InvalidFamily(f"function {i} is negative at vertex {v}")
            if x:
                supp |= 1 << v
                mass += x * pi_num[v]
        if not supp:
            raise InvalidFamily(f"function {i} is identically zero")
        if supp & seen:
            raise InvalidFamily(f"function {i} overlaps an earlier support")
        seen |= supp
        if mass != den * unit:
            norm = chain.scalar(mass, den * unit)
            if chain.exact or abs(norm - 1) > INPUT:
                raise InvalidFamily(f"function {i} has L1 pi-norm {norm}, expected 1")
        form.append((nums, den))
    return form


def _built_family(chain, form):
    """The family of the values of `form` on `chain`, carrying `form` on an
    exact chain; on a float chain the validated form of the rounded values, so
    the family is exactly what its functions hold."""
    zero = chain.scalar(0, 1)
    fam = PositiveOrthonormalFamily(tuple(
        tuple(chain.scalar(x, den) if x else zero for x in nums) for nums, den in form
    ))
    if not chain.exact:
        form = validate_positive_family(chain, fam)
    object.__setattr__(fam, "_form", (chain, form))
    return fam


def _family_form(chain, fam):
    """The form of `fam` on `chain`: the one it was built with, else validated now."""
    if fam._form is not None and fam._form[0] is chain:
        return fam._form[1]
    return validate_positive_family(chain, fam)


def gamma_objective(chain, fam):
    """Mean directed-gradient L1 norm of a validated positive-orthonormal family."""
    form = _family_form(chain, fam)
    n = len(form)
    # sum over arcs uv of max(f(u) - f(v), 0) phi(u, v), with phi = phi_num / _den
    flows = [
        [(v, w) for v, w in enumerate(row) if w and v != u]
        for u, row in enumerate(chain._phi_num)
    ]
    num, den = 0, 1
    for nums, d in form:
        acc = 0
        for u, x in enumerate(nums):
            if x:
                for v, w in flows[u]:
                    if nums[v] < x:
                        acc += (x - nums[v]) * w
        num = num * d + acc * den
        den *= d
    return chain.scalar(num, den * chain._den * n)


def level_set_rounding(chain, fam):
    """Per function, the superlevel set minimizing boundary/mass; the co-area
    identity makes the resulting family objective at most the functional one.
    Ties go to the first minimal level, the one with the largest values."""
    form = _family_form(chain, fam)
    pi_num = chain._pi_num
    sym_num = chain._sym_num
    out_num = chain._out_num
    classes = []
    for g, _ in form:
        order = sorted((v for v in range(len(g)) if g[v] > 0), key=lambda v: (g[v], v), reverse=True)
        members = []
        psum = 0
        b = 0    # boundary of members, extended a vertex at a time as in cut_table
        best_b = best_p = best_set = None
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and g[order[j]] == g[order[i]]:
                t = order[j]
                row = sym_num[t]
                b += out_num[t]
                for m in members:
                    b -= row[m]
                members.append(t)
                psum += pi_num[t]
                j += 1
            # boundary / mass is b / psum
            if best_set is None or b * best_p < best_b * psum:
                best_b, best_p = b, psum
                best_set = frozenset(members)
            i = j
        classes.append(best_set)
    # the supports are disjoint and each best set is nonempty
    return SubsetFamily(tuple(sorted(classes, key=min)), "disjoint")


def characteristic_family(chain, fam):
    """The normalized indicator family chi_Q / pi(Q) over a subset family."""
    vcount = chain.graph.vertex_count
    unit = chain._den      # chi_Q / pi(Q) = unit / mass on Q
    form = [(tuple(unit if m >> v & 1 else 0 for v in range(vcount)), chain.cut_num(m)[0])
            for m in _class_masks(fam.classes, fam.mode, vcount)]
    return _built_family(chain, form)


def _random_labels(vcount, n, rng, partition):
    """Class labels 1..n of a random support: class k is anchored at perm[k-1]
    of a random permutation, every other vertex draws its label uniformly from
    0..n (1..n for a partition), 0 meaning unassigned."""
    if not 1 <= n <= vcount:
        raise ValueError(f"n must be in 1..{vcount}, got {n}")
    perm = rng.sample(range(vcount), vcount)
    labels = [0] * vcount
    for k in range(n):
        labels[perm[k]] = k + 1
    lo = 1 if partition else 0
    for v in perm[n:]:
        labels[v] = rng.randint(lo, n)
    return labels


def random_positive_family(chain, n, rng, partition=False):
    """Random supports (one anchor per class, the rest uniform) with independent
    positive rational values, L1-normalized per class."""
    vcount = chain.graph.vertex_count
    labels = _random_labels(vcount, n, rng, partition)
    form = []
    for k in range(1, n + 1):
        drawn = [(v, rng.randint(1, 9), rng.randint(1, 9)) for v in range(vcount) if labels[v] == k]
        # the values a/b scaled by L = lcm(b) are integers g, and g / sum(g pi)
        # is g * _den / sum(g pi_num)
        scale = lcm(*(b for _, _, b in drawn))
        nums = [0] * vcount
        mass = 0
        for v, a, b in drawn:
            nums[v] = a * (scale // b) * chain._den
            mass += a * (scale // b) * chain._pi_num[v]
        form.append((tuple(nums), mass))
    return _built_family(chain, form)


def random_disjoint_family(chain, n, rng, partition=False):
    vcount = chain.graph.vertex_count
    labels = _random_labels(vcount, n, rng, partition)
    # each class holds its anchor; in partition mode every label is a class
    classes = [frozenset(v for v in range(vcount) if labels[v] == k) for k in range(1, n + 1)]
    return SubsetFamily(tuple(sorted(classes, key=min)), "partition" if partition else "disjoint")


# ---------------------------------------------------------------------------
# Supergeometric classification and the structural-inequality suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupergeometricReport:
    rows: tuple          # (n, iota, iota_tilde, geometric)
    supergeometric: object   # bool when max_n covers the vertex count, else None
    max_n: int


def supergeometric_classify(chain, max_n=None, *, cap=DEFAULT_CAP):
    vcount = chain.graph.vertex_count
    if max_n is None:
        max_n = vcount
    if not 2 <= max_n <= vcount:
        raise ValueError(f"max_n must be in 2..{vcount}")
    rows = tuple(
        (rep.n, rep.iota, rep.iota_tilde, rep.iota == rep.iota_tilde)
        for rep in isoperimetric_table(chain, max_n, cap=cap)[1:]
    )
    overall = all(r[3] for r in rows) if max_n == vcount else None
    return SupergeometricReport(rows, overall, max_n)


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

    Returns per-bound dicts with lhs (the min), rhs, and holds flags; lhs and
    rhs are rounded once on a float chain, and holds is `at_most(lhs, rhs)`:
    exact on an exact chain, with float slack on a float chain, whose rounded
    pi and phi conserve flow only up to their rounding.
    """
    out = {}
    for name, (lhs, rhs) in _merge_bounds(chain, fam).items():
        lhs, rhs = chain.scalar(*lhs), chain.scalar(*rhs)
        out[name] = {"lhs": lhs, "rhs": rhs, "holds": at_most(lhs, rhs)}
    return out


def _merge_bounds(chain, fam):
    """{"S": (lhs, rhs), "T": (lhs, rhs)}, T only for n >= 2, each side an
    integer pair (num, den) with den > 0.

    With r_i the class ratios, R their total, Q* the vertices no class covers,
    p = pi(Q*) and b = boundary(Q*):

    * S: lhs = (min_j [ratio(Q_j ∪ Q*) - r_j] + R) / n,
      rhs = ((n-2) b + (1 + (n-2) p) R) / (n (1 + (n-1) p));
    * T: lhs = (min_{j<k} [ratio(Q_j ∪ Q_k) - r_j - r_k] + R) / m,
      rhs = b / (m^2 (1 - p)) + (m-1) R / m^2, with m = n - 1.

    A ratio is boundary / mass from cut_num; p = star_p / unit and b =
    star_b / unit, and both parts of each rhs are multiplied by unit.  Pairs
    (num, den) are compared by cross-multiplying.
    """
    unit = chain._den
    masks = _class_masks(fam.classes, fam.mode, chain.graph.vertex_count)
    n = len(masks)
    cuts = [chain.cut_num(m) for m in masks]     # (mass, boundary)
    total_num, total_den = _ratio_sum(cuts)      # R
    star = (1 << chain.graph.vertex_count) - 1
    for m in masks:
        star &= ~m
    star_p, star_b = chain.cut_num(star) if star else (0, 0)

    def lhs(candidates, count):
        num, den = candidates[0]
        for x, y in candidates[1:]:
            if x * den < num * y:
                num, den = x, y
        return num * total_den + total_num * den, den * total_den * count

    s_candidates = []
    for m, (p, b) in zip(masks, cuts):
        pm, bm = chain.cut_num(m | star)
        s_candidates.append((bm * p - b * pm, pm * p))
    s_rhs = (
        (n - 2) * star_b * total_den + (unit + (n - 2) * star_p) * total_num,
        total_den * n * (unit + (n - 1) * star_p),
    )
    out = {"S": (lhs(s_candidates, n), s_rhs)}
    if n >= 2:
        m = n - 1
        t_candidates = []
        for j in range(n):
            pj, bj = cuts[j]
            for k in range(j + 1, n):
                pk, bk = cuts[k]
                pm, bm = chain.cut_num(masks[j] | masks[k])
                t_candidates.append((bm * pj * pk - (bj * pk + bk * pj) * pm, pm * pj * pk))
        t_rhs = (
            star_b * total_den + (m - 1) * total_num * (unit - star_p),
            m * m * (unit - star_p) * total_den,
        )
        out["T"] = (lhs(t_candidates, m), t_rhs)
    return out


def structural_inequalities_check(chain, reports, samples=200, rng=None):
    """Verification of the structural inequalities tying iota and iota~ together.

    `reports` is the chain's full `isoperimetric_table`.  Checks, per n: 0 <= iota~_n - iota_n <= 1/n, iota~_2 = iota_2, the
    (1 - 1/n^2) partition monotonicity, disjoint monotonicity, the full chain
    0 = iota_1 <= ... <= iota_V with endpoint 1 - trace(K)/V, plus the S/T
    weighted-mean bounds on `samples` random disjoint families per n.  Each
    comparison is `tolerance.at_most` (an equality is one both ways): exact on
    an exact chain, with float slack on a float chain.  Violations are returned
    as findings, not raised; a table that is not full and two-sided is
    refused with ValueError.
    """
    vcount = chain.graph.vertex_count
    if len(reports) != vcount or any(
        rep.iota is None or rep.iota_tilde is None for rep in reports
    ):
        raise ValueError(
            "structural_inequalities_check needs the chain's full two-sided "
            f"isoperimetric_table: {vcount} reports with iota and iota_tilde"
        )
    rng = rng or random.Random(20240)
    findings = []

    def record(name, ok, detail):
        if not ok:
            findings.append({"check": name, "detail": detail})

    def equal(a, b):
        return at_most(a, b) and at_most(b, a)

    iotas = [rep.iota for rep in reports]
    tildes = [rep.iota_tilde for rep in reports]
    for idx, rep in enumerate(reports, start=1):
        gap = rep.iota_tilde - rep.iota
        record("gap_lower", at_most(0, gap), f"n={idx} gap={gap}")
        record("gap_upper", at_most(gap, Fraction(1, idx)), f"n={idx} gap={gap}")
    if vcount >= 2:
        record("two_geometric", equal(tildes[1], iotas[1]), f"{tildes[1]} != {iotas[1]}")
    for n in range(1, vcount):
        # Fraction(x) keeps the product exact on a float chain too
        bound = 1 - Fraction(1, n * n)
        record("partition_monotone", at_most(tildes[n - 1], bound * Fraction(tildes[n])),
               f"n={n}: {tildes[n-1]} > (1-1/n^2)*{tildes[n]}")
        record("disjoint_monotone", at_most(iotas[n - 1], iotas[n]),
               f"n={n}: {iotas[n-1]} > {iotas[n]}")
    record("chain_start", equal(iotas[0], 0), f"iota_1={iotas[0]}")
    endpoint = 1 - chain.trace() / vcount
    record("chain_endpoint", equal(iotas[-1], endpoint),
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
