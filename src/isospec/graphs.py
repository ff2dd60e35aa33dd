"""Finite directed graphs (loops allowed), their symmetric views, and vertex-subset families."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import InvalidFamily


class Graph:
    """Directed graph on vertices 0..n-1 with string labels.

    Immutable after construction.  Derived views:
      * sdg arcs: uv and vu present iff uv or vu is an arc,
      * undirected edges: {u, v} present iff uv or vu is an arc.
    """

    __slots__ = ("labels", "arcs", "_out", "_in", "_sdg_arcs", "_edges", "_und_adj")

    def __init__(self, labels, arcs):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        n = len(labels)
        arc_set = set()
        for u, v in arcs:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for {n} vertices")
            arc_set.add((u, v))
        self.labels = labels
        self.arcs = frozenset(arc_set)
        out = [[] for _ in range(n)]
        inn = [[] for _ in range(n)]
        for u, v in sorted(arc_set):
            out[u].append(v)
            inn[v].append(u)
        self._out = tuple(tuple(x) for x in out)
        self._in = tuple(tuple(x) for x in inn)
        self._sdg_arcs = frozenset(arc_set | {(v, u) for u, v in arc_set})
        self._edges = frozenset((min(u, v), max(u, v)) for u, v in arc_set)
        adj = [set() for _ in range(n)]
        for u, v in self._edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self._und_adj = tuple(tuple(sorted(s)) for s in adj)

    @property
    def vertex_count(self):
        return len(self.labels)

    def has_arc(self, u, v):
        return (u, v) in self.arcs

    def out_neighbors(self, u):
        return self._out[u]

    def in_neighbors(self, u):
        return self._in[u]

    def out_degree(self, u):
        return len(self._out[u])

    def max_out_degree(self):
        return max(len(row) for row in self._out)

    def sdg_arcs(self):
        return self._sdg_arcs

    def undirected_edges(self):
        return self._edges

    def vertex_index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def is_strongly_connected(self, arcs=None):
        n = self.vertex_count
        if n == 0:
            return False
        if arcs is None:
            fwd, bwd = self._out, self._in
        else:
            fwd = [[] for _ in range(n)]
            bwd = [[] for _ in range(n)]
            for u, v in arcs:
                fwd[u].append(v)
                bwd[v].append(u)
        for adj in (fwd, bwd):
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != n:
                return False
        return True

    def undirected_components(self, subset=None):
        """Connected components of the undirected view induced on `subset`, sorted by minimum."""
        if subset is None:
            subset = range(self.vertex_count)
        pool = set(subset)
        comps = []
        while pool:
            start = min(pool)
            seen = {start}
            stack = [start]
            pool.discard(start)
            while stack:
                u = stack.pop()
                for v in self._und_adj[u]:
                    if v in pool:
                        pool.discard(v)
                        seen.add(v)
                        stack.append(v)
            comps.append(frozenset(seen))
        comps.sort(key=min)
        return tuple(comps)

    def relabel(self, perm):
        """New graph with vertex i renamed to perm[i]; labels follow the vertices."""
        n = self.vertex_count
        labels = [None] * n
        for i, p in enumerate(perm):
            labels[p] = self.labels[i]
        return Graph(labels, [(perm[u], perm[v]) for u, v in self.arcs])

    def __repr__(self):
        return f"Graph({self.vertex_count} vertices, {len(self.arcs)} arcs)"


def make_graph(vertices, arcs, undirected=False):
    """Build a Graph from a vertex count or label list and an arc list.

    Arc endpoints may be integer indices or labels.  With undirected=True every
    pair is expanded to both directions.  A negative vertex count and an
    endpoint that is neither an index nor a label are refused with ValueError.
    """
    if isinstance(vertices, int):
        if vertices < 0:
            raise ValueError(f"vertex count must be nonnegative, got {vertices}")
        labels = tuple(str(i) for i in range(vertices))
    else:
        labels = tuple(str(x) for x in vertices)
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(x, arc):
        if isinstance(x, int) and not isinstance(x, bool):
            return x
        try:
            return index[str(x)]
        except KeyError:
            raise ValueError(f"unknown vertex label {x!r} in arc {list(arc)!r}") from None

    pairs = []
    for u, v in arcs:
        a, b = resolve(u, (u, v)), resolve(v, (u, v))
        pairs.append((a, b))
        if undirected:
            pairs.append((b, a))
    return Graph(labels, pairs)


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------

def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)], undirected=True)


def cycle_graph(n, directed=False):
    arcs = [(i, (i + 1) % n) for i in range(n)]
    return make_graph(n, arcs, undirected=not directed)


def complete_graph(n):
    return make_graph(n, list(combinations(range(n), 2)), undirected=True)


def complete_bipartite_graph(a, b):
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return make_graph(a + b, edges, undirected=True)


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return make_graph(10, edges, undirected=True)


def circulant_graph(order, connections):
    """Cayley graph of Z_order with the symmetric connection set {±s : s in connections}."""
    edges = set()
    for s in connections:
        s = s % order
        if s == 0:
            continue
        for u in range(order):
            v = (u + s) % order
            edges.add((min(u, v), max(u, v)))
    return make_graph(order, sorted(edges), undirected=True)


def three_clique_graph(block_size):
    """A hub vertex joined to one vertex of each of three disjoint complete blocks.

    Vertex 0 is the hub; block i occupies indices 1+i*block_size .. (i+1)*block_size,
    with the hub attached to the first vertex of each block.
    """
    n = block_size
    edges = []
    for i in range(3):
        base = 1 + i * n
        edges.append((0, base))
        edges.extend((base + a, base + b) for a, b in combinations(range(n), 2))
    return make_graph(3 * n + 1, edges, undirected=True)


# ---------------------------------------------------------------------------
# Small-graph enumeration up to isomorphism
# ---------------------------------------------------------------------------

def canonical_arcs(n, arcs):
    """Lexicographically smallest arc tuple over all vertex permutations."""
    best = None
    arcs = list(arcs)
    for perm in permutations(range(n)):
        key = tuple(sorted((perm[u], perm[v]) for u, v in arcs))
        if best is None or key < best:
            best = key
    return best


def _class_representatives(n, pairs, build):
    """One graph per isomorphism class of connected edge masks over `pairs`,
    sorted by `canonical_arcs`: each class is represented by its smallest mask.

    When a mask is examined, every mask in its orbit under the vertex
    permutations is marked, so a later mask of the same class is skipped
    without being built or canonicalised.
    """
    index = {pair: i for i, pair in enumerate(pairs)}
    # an undirected pair (u, v), u < v, is also reached as (v, u)
    index.update({(v, u): i for (u, v), i in index.items() if (v, u) not in index})
    # moved[p][i]: bit of pair i after vertex permutation p
    moved = [[index[perm[u], perm[v]] for u, v in pairs] for perm in permutations(range(n))]
    covered = bytearray(1 << len(pairs))
    found = []
    for mask in range(len(covered)):
        if covered[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for image in moved:
            covered[sum(1 << image[i] for i in bits)] = 1
        g = build([pairs[i] for i in bits])
        if g.is_strongly_connected():
            found.append((canonical_arcs(n, g.arcs), g))
    found.sort(key=lambda item: item[0])
    return tuple(g for _, g in found)


@lru_cache(maxsize=None)
def connected_graphs(n):
    """All connected simple undirected graphs on n vertices, one per isomorphism class."""
    return _class_representatives(
        n, list(combinations(range(n), 2)), lambda edges: make_graph(n, edges, undirected=True)
    )


@lru_cache(maxsize=None)
def strongly_connected_digraphs(n):
    """All loop-free strongly connected digraphs on n vertices, one per isomorphism class."""
    labels = [str(i) for i in range(n)]
    return _class_representatives(
        n, [(u, v) for u in range(n) for v in range(n) if u != v], lambda arcs: Graph(labels, arcs)
    )


# ---------------------------------------------------------------------------
# Subset families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetFamily:
    """Ordered list of pairwise-disjoint nonempty vertex subsets.

    Canonical form: classes sorted by their minimum vertex.  In partition mode
    the classes cover every vertex.
    """

    classes: tuple
    mode: str

    @property
    def n(self):
        return len(self.classes)

    def label_tuple(self, vertex_count):
        labels = [0] * vertex_count
        for k, cls in enumerate(self.classes, start=1):
            for v in cls:
                labels[v] = k
        return tuple(labels)


def subset_family(classes, mode, vertex_count):
    """Validate and canonicalize a family of vertex subsets."""
    sets = [frozenset(int(v) for v in cls) for cls in classes]
    _class_masks(sets, mode, vertex_count)
    return SubsetFamily(tuple(sorted(sets, key=min)), mode)


def _class_masks(classes, mode, vertex_count):
    """The bitmasks of a family's classes.  Refuses an unknown mode, no classes,
    an empty class, a vertex out of range or in two classes, and a partition
    that does not cover the vertex set."""
    if mode not in ("disjoint", "partition"):
        raise InvalidFamily(f"unknown family mode {mode!r}")
    if not classes:
        raise InvalidFamily("family has no classes")
    masks = []
    seen = 0
    for cls in classes:
        mask = 0
        for v in cls:
            if not 0 <= v < vertex_count:
                raise InvalidFamily(f"vertex {v} out of range")
            mask |= 1 << v
        if not mask:
            raise InvalidFamily("empty class in family")
        shared = mask & seen
        if shared:
            raise InvalidFamily(f"vertex {(shared & -shared).bit_length() - 1} appears in two classes")
        seen |= mask
        masks.append(mask)
    if mode == "partition" and seen != (1 << vertex_count) - 1:
        raise InvalidFamily("partition does not cover the vertex set")
    return masks
