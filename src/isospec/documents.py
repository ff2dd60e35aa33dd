"""Graph/kernel and map documents (UTF-8 JSON) and scalar serialization."""

from __future__ import annotations

import json
from fractions import Fraction

from .chains import build_chain, lazy_max_degree_kernel, natural_walk
from .errors import InvalidDocument
from .graphs import make_graph
from .tolerance import is_exact


def parse_scalar(x):
    """Rational strings "p/q" (and bare "p") are bit-exact; numbers pass through."""
    if isinstance(x, str):
        try:
            if "/" in x:
                num, den = x.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDocument(f"bad rational literal {x!r}") from exc
    if isinstance(x, bool):
        raise InvalidDocument(f"bad scalar {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise InvalidDocument(f"bad scalar {x!r}")


def _load_object(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument(f"{what} must be a JSON object")
    return doc


def parse_graph(text):
    """Parse the graph part of a document; returns (Graph, kernel_spec_or_None)."""
    doc = _load_object(text, "graph document")
    if "vertices" not in doc or "arcs" not in doc:
        raise InvalidDocument("graph document needs 'vertices' and 'arcs'")
    vertices = doc["vertices"]
    if not isinstance(vertices, (int, list)) or isinstance(vertices, bool):
        raise InvalidDocument("'vertices' must be a count or a list of labels")
    arcs = doc["arcs"]
    if not isinstance(arcs, list) or any(
        not isinstance(a, list) or len(a) != 2 for a in arcs
    ):
        raise InvalidDocument("'arcs' must be a list of [from, to] pairs")
    undirected = doc.get("undirected", False)
    if not isinstance(undirected, bool):
        raise InvalidDocument("'undirected' must be true or false")
    try:
        graph = make_graph(vertices, [tuple(a) for a in arcs], undirected=undirected)
    except ValueError as exc:
        raise InvalidDocument(str(exc)) from exc
    return graph, doc.get("kernel")


def parse_chain(text, backend=None):
    """Parse a graph/kernel document into a validated MarkovChain.

    backend: None keeps rationals exact, "exact" demands rational entries,
    "float" rounds an exact chain to floats: its kernel and its exact pi,
    each entry once.
    """
    graph, spec = parse_graph(text)
    if spec is None:
        spec = {"type": "natural"}
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidDocument("'kernel' must be an object with a 'type'")
    ktype = spec["type"]
    if ktype == "natural":
        chain = natural_walk(graph)
    elif ktype == "lazy":
        chain = lazy_max_degree_kernel(graph)
    elif ktype == "explicit":
        matrix = spec.get("matrix")
        n = graph.vertex_count
        if (
            not isinstance(matrix, list)
            or len(matrix) != n
            or any(not isinstance(row, list) or len(row) != n for row in matrix)
        ):
            raise InvalidDocument(f"explicit kernel needs an {n}x{n} 'matrix'")
        entries = [[parse_scalar(x) for x in row] for row in matrix]
        if backend == "exact" and not is_exact(*(x for row in entries for x in row)):
            raise InvalidDocument("exact backend requested but kernel has float entries")
        chain = build_chain(graph, entries)
    else:
        raise InvalidDocument(f"unknown kernel type {ktype!r}")
    if backend == "float" and chain.exact:
        kernel = [list(map(float, row)) for row in chain.kernel]
        chain = build_chain(graph, kernel, pi=list(map(float, chain.pi)))
    return chain


def parse_map(text, graph_from, graph_to):
    """Parse a vertex map document {"map": {from_label: to_label, ...}}."""
    doc = _load_object(text, "map document")
    mapping = doc.get("map")
    if not isinstance(mapping, dict):
        raise InvalidDocument("map document needs a 'map' object")
    out = [None] * graph_from.vertex_count
    for src, dst in mapping.items():
        try:
            out[graph_from.vertex_index(src)] = graph_to.vertex_index(dst)
        except KeyError as exc:
            raise InvalidDocument(str(exc)) from exc
    if any(x is None for x in out):
        missing = [graph_from.labels[i] for i, x in enumerate(out) if x is None]
        raise InvalidDocument(f"map is not total; missing {missing}")
    return tuple(out)
