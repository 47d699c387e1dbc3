"""Value semantics of linlay's records and of its classes with behaviour.

The records are named tuples; Graph, GridColoring, LinearOrder and
PathFamily are plain classes whose equality, hashing, checks and cached
fields are written out, so these tests pin what each one compares, refuses
and keeps.
"""

import pytest

from linlay import (
    BoundaryStep,
    EdgeColoring,
    Graph,
    GridColoring,
    InsufficientScale,
    InvalidParameterError,
    Layout,
    LeafFamily,
    LinearOrder,
    PathFamily,
    ScaleParameters,
    Selection,
    SolveResult,
    VerifyReport,
    WitnessReport,
    identity_order,
    make_hex_dual,
)

RECORD_FIELDS = {
    BoundaryStep: ("component", "color", "far_boundary"),
    EdgeColoring: ("colors", "k"),
    Layout: ("kind", "order", "coloring"),
    VerifyReport: ("valid", "violations"),
    LeafFamily: ("leaves", "direction"),
    Selection: ("kind", "indices"),
    SolveResult: ("k", "layout", "exact", "orders_scanned", "lower_bound"),
    ScaleParameters: ("s", "n", "m", "c", "d", "b_bound", "a_digits"),
    WitnessReport: (
        "case", "edges", "family_size_b", "chain_or_antichain_size", "lower_bound", "trace",
    ),
    InsufficientScale: (
        "family_size_b", "longest_chain", "largest_antichain", "required_c", "required_d",
    ),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda r: r.__name__)
def test_records_keep_their_fields_in_order(record):
    assert record._fields == RECORD_FIELDS[record]
    defaults = {"trace": None} if record is WitnessReport else {}
    assert record._field_defaults == defaults


def test_records_are_immutable_tuples():
    report = VerifyReport(True, [])
    assert report == (True, [])
    assert tuple(report) == (True, [])
    with pytest.raises(AttributeError):
        report.valid = False
    witness = WitnessReport("crossing_II", (), 2, 2, 0)
    assert witness.trace is None
    assert len(LeafFamily((1, 4, 2), {}).leaves) == 3


def test_graph_equality_and_hash_cover_all_five_fields():
    fields = ("plain", (0, 1), ((1,), (0,)), None, None)
    g = Graph(*fields)
    assert g == Graph(*fields)
    assert hash(g) == hash(Graph(*fields))
    for i, other in enumerate(("hex", (0, 2), ((), ()), 1, 1)):
        changed = list(fields)
        changed[i] = other
        assert g != Graph(*changed), i
    assert g != fields


def test_graph_repr_leaves_out_the_rows():
    g = make_hex_dual(3)
    assert str(g.adjacency) not in repr(g)
    assert repr(Graph("plain", (0, 1), ((1,), (0,)))) == (
        "Graph(kind='plain', labels=(0, 1), hex_n=None, star_a=None)"
    )


def test_graph_caches_its_edge_set():
    g = Graph("plain", (0, 1, 2), ((1,), (0, 2), (1,)))
    assert g.edges == ((0, 1), (1, 2))
    assert g.edges is g.edges


def test_linear_order_equality_and_hash_look_at_the_sequence_only():
    order = LinearOrder.from_sequence((2, 0, 1))
    same = LinearOrder((2, 0, 1), (9, 9, 9))
    assert order == same
    assert hash(order) == hash(same)
    assert order != LinearOrder.from_sequence((2, 1, 0))
    assert order != (2, 0, 1)
    assert identity_order(3) == LinearOrder.from_sequence(range(3))
    with pytest.raises(AttributeError):
        order.label = "no room for new attributes"
    for seq in ([True, 0], [0.0, 1], ["0", 1]):
        with pytest.raises(InvalidParameterError, match="is not an integer"):
            LinearOrder.from_sequence(seq)


def test_grid_coloring_checks_its_rows():
    with pytest.raises(InvalidParameterError):
        GridColoring(0, ())
    with pytest.raises(InvalidParameterError):
        GridColoring(2, (("R", "B"),))
    with pytest.raises(InvalidParameterError):
        GridColoring(1, (("G",),))


def test_grid_coloring_equality_and_hash_over_size_and_rows():
    rows = (("R", "B"), ("B", "B"))
    coloring = GridColoring(2, rows)
    assert coloring == GridColoring(2, tuple(tuple(r) for r in rows))
    assert hash(coloring) == hash(GridColoring(2, rows))
    assert coloring != GridColoring(2, (("R", "B"), ("B", "R")))
    assert coloring != (2, rows)


def test_path_family_defaults_and_cached_spans():
    order = LinearOrder.from_sequence((0, 2, 1, 3))
    with pytest.raises(TypeError):
        PathFamily(((0, 1), (2, 3)), order)  # every path names its leaf
    fam = PathFamily(((0, 1), (2, 3)), order, (5, 7))
    assert fam.leaves[1] == 7
    assert fam.extents is fam.extents
    assert fam.extents == ((0, 2), (1, 3))
    assert fam.edge_spans is fam.edge_spans
    assert fam.edge_spans == ([(0, 2)], [(1, 3)])
