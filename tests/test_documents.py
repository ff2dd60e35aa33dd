import json
from fractions import Fraction

import pytest

from isospec.documents import parse_chain, parse_graph, parse_map, parse_scalar
from isospec.errors import InvalidDocument, KernelError, NoNowherezeroStationary

F = Fraction


def doc(**kwargs):
    return json.dumps(kwargs)


def test_natural_kernel_document():
    ch = parse_chain(doc(vertices=3, arcs=[[0, 1], [1, 2], [2, 0]],
                         kernel={"type": "natural"}))
    assert ch.pi == (F(1, 3),) * 3
    assert ch.exact


def test_kernel_defaults_to_natural():
    ch = parse_chain(doc(vertices=2, arcs=[[0, 1]], undirected=True))
    assert ch.kernel[0][1] == 1


def test_undirected_expansion_and_labels():
    ch = parse_chain(doc(vertices=["a", "b", "c"], arcs=[["a", "b"], ["b", "c"]],
                         undirected=True, kernel={"type": "natural"}))
    assert ch.graph.has_arc(1, 0)
    assert ch.pi == (F(1, 4), F(1, 2), F(1, 4))


def test_explicit_rational_matrix_is_bit_exact():
    ch = parse_chain(doc(vertices=2, arcs=[[0, 1], [1, 0]],
                         kernel={"type": "explicit",
                                 "matrix": [["1/3", "2/3"], ["1/2", "1/2"]]}))
    assert ch.kernel[0][0] == F(1, 3)
    assert ch.exact


def test_explicit_float_matrix_selects_float_backend():
    ch = parse_chain(doc(vertices=2, arcs=[[0, 1], [1, 0]],
                         kernel={"type": "explicit",
                                 "matrix": [[0.25, 0.75], [0.5, 0.5]]}))
    assert not ch.exact
    with pytest.raises(InvalidDocument):
        parse_chain(doc(vertices=2, arcs=[[0, 1], [1, 0]],
                        kernel={"type": "explicit",
                                "matrix": [[0.25, 0.75], [0.5, 0.5]]}),
                    backend="exact")


def test_float_backend_forces_conversion():
    ch = parse_chain(doc(vertices=2, arcs=[[0, 1], [1, 0]],
                         kernel={"type": "lazy"}), backend="float")
    assert not ch.exact


def test_float_backend_keeps_the_exact_row_sum_check():
    """A rational row that misses 1 is refused on both backends; a row of float
    literals may miss 1 by up to ROW_SUM."""
    rational = doc(vertices=2, arcs=[[0, 1], [1, 0]],
                   kernel={"type": "explicit",
                           "matrix": [["1/2", "499999999999999/1000000000000000"],
                                      ["1/2", "1/2"]]})
    for backend in (None, "float"):
        with pytest.raises(KernelError, match="row 0 sums to"):
            parse_chain(rational, backend=backend)
    literal = doc(vertices=2, arcs=[[0, 1], [1, 0]],
                  kernel={"type": "explicit", "matrix": [[0.5, 0.499999999999999], [0.5, 0.5]]})
    for backend in (None, "float"):
        assert not parse_chain(literal, backend=backend).exact


def test_malformed_documents():
    for bad in (
        "not json",
        doc(vertices=3),
        doc(vertices=3, arcs=[[0, 1, 2]]),
        doc(vertices=2, arcs=[[0, 1]], kernel={"type": "mystery"}),
        doc(vertices=2, arcs=[[0, 1]], kernel={"type": "explicit", "matrix": [[1]]}),
    ):
        with pytest.raises(InvalidDocument):
            parse_chain(bad)


@pytest.mark.parametrize("undirected", ["false", "true", 0, 1, None, []])
def test_undirected_must_be_a_boolean(undirected):
    with pytest.raises(InvalidDocument, match="'undirected' must be true or false"):
        parse_graph(doc(vertices=2, arcs=[[0, 1]], undirected=undirected))


def test_undirected_false_keeps_arcs_one_way():
    graph, _ = parse_graph(doc(vertices=2, arcs=[[0, 1]], undirected=False))
    assert not graph.has_arc(1, 0)


@pytest.mark.parametrize("vertices", [True, False])
def test_vertices_must_not_be_a_boolean(vertices):
    with pytest.raises(InvalidDocument, match="'vertices' must be a count"):
        parse_graph(doc(vertices=vertices, arcs=[]))


@pytest.mark.parametrize("vertices, arcs, message", [
    (3, [[0.0, 1]], "unknown vertex label 0.0 in arc [0.0, 1]"),
    (3, [[None, 1]], "unknown vertex label None in arc [None, 1]"),
    (-1, [], "vertex count must be nonnegative, got -1"),
], ids=["float-endpoint", "null-endpoint", "negative-count"])
def test_bad_vertex_references_name_their_cause(vertices, arcs, message):
    with pytest.raises(InvalidDocument) as info:
        parse_graph(doc(vertices=vertices, arcs=arcs))
    assert str(info.value) == message


def test_stationary_failure_propagates():
    with pytest.raises(NoNowherezeroStationary):
        parse_chain(doc(vertices=4, arcs=[[0, 1], [1, 0], [2, 3], [3, 2]],
                        kernel={"type": "natural"}))


def test_map_document():
    g, _ = parse_graph(doc(vertices=["x", "y"], arcs=[["x", "y"]], undirected=True))
    h, _ = parse_graph(doc(vertices=["a"], arcs=[["a", "a"]]))
    sigma = parse_map(json.dumps({"map": {"x": "a", "y": "a"}}), g, h)
    assert sigma == (0, 0)
    with pytest.raises(InvalidDocument):
        parse_map(json.dumps({"map": {"x": "a"}}), g, h)


def test_scalar_round_trip():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("7") == F(7)
    assert parse_scalar(2) == F(2)
    with pytest.raises(InvalidDocument):
        parse_scalar("1/0")
