import json
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linlay import (
    Graph,
    GridCoord,
    InvalidParameterError,
    ProductVertex,
    graph_from_json,
    graph_to_json,
    hex_coord,
    hex_vertex_id,
    make_hex_dual,
    make_star,
    make_star_hex_product,
    plain_graph,
    shortest_path,
)
from linlay import graph_to_dot, hex_queue_layout, product_queue_layout
from linlay import graphs as graphs_module
from linlay.graphs import star_hex_product_has_edge

from oracles import (
    cartesian_product,
    complete_graph,
    connected_components,
    graph_json_dict,
    reference_graph_json,
    reference_graph_to_dot,
    reference_shortest_path,
)


def hex_edge_oracle(p, q):
    da, db = p.a - q.a, p.b - q.b
    return abs(da) + abs(db) == 1 or (da == db and abs(da) == 1)


# ---------------------------------------------------------------------------
# hex grid

def test_hex_single_vertex():
    g = make_hex_dual(1)
    assert g.vertex_count == 1
    assert len(g.edges) == 0


def test_hex_three_counts():
    g = make_hex_dual(3)
    assert g.vertex_count == 9
    assert len(g.edges) == 16
    horizontal = vertical = diagonal = 0
    for u, v in g.edges:
        p, q = g.labels[u], g.labels[v]
        if p.b == q.b:
            horizontal += 1
        elif p.a == q.a:
            vertical += 1
        else:
            diagonal += 1
    assert (horizontal, vertical, diagonal) == (6, 6, 4)


def test_hex_two_derived_by_pair_enumeration():
    g = make_hex_dual(2)
    expected = {
        (u, v)
        for u in range(4)
        for v in range(u + 1, 4)
        if hex_edge_oracle(hex_coord(u, 2), hex_coord(v, 2))
    }
    assert set(g.edges) == expected
    assert len(g.edges) == 5


@pytest.mark.parametrize("n", range(1, 13))
def test_hex_counts_formula(n):
    g = make_hex_dual(n)
    assert g.vertex_count == n * n
    assert len(g.edges) == 3 * n * n - 4 * n + 1
    oracle = sum(
        1
        for u in range(n * n)
        for v in range(u + 1, n * n)
        if hex_edge_oracle(hex_coord(u, n), hex_coord(v, n))
    )
    assert len(g.edges) == oracle


@pytest.mark.parametrize("n", [3, 5, 8])
def test_hex_degree_range(n):
    g = make_hex_dual(n)
    degrees = [g.degree(v) for v in range(g.vertex_count)]
    assert min(degrees) == 2
    assert max(degrees) == 6
    assert g.degree(hex_vertex_id(GridCoord(1, n), n)) == 2
    assert g.degree(hex_vertex_id(GridCoord(n, 1), n)) == 2


def test_hex_row_major_ids():
    n = 4
    g = make_hex_dual(n)
    for v in range(n * n):
        coord = g.labels[v]
        assert hex_vertex_id(coord, n) == v
        assert hex_coord(v, n) == coord


def test_hex_rejects_zero():
    with pytest.raises(InvalidParameterError):
        make_hex_dual(0)


# ---------------------------------------------------------------------------
# stars

def test_star_five():
    g = make_star(5)
    assert g.vertex_count == 6
    assert len(g.edges) == 5


def test_star_single_edge():
    g = make_star(1)
    assert g.vertex_count == 2
    assert set(g.edges) == {(0, 1)}


def test_star_degrees():
    g = make_star(3)
    assert g.degree(0) == 3
    assert all(g.degree(v) == 1 for v in range(1, 4))
    assert g.labels[0] == "t"
    assert g.labels[1:] == (1, 2, 3)


def test_star_rejects_zero():
    with pytest.raises(InvalidParameterError):
        make_star(0)


# ---------------------------------------------------------------------------
# products

def test_product_star_hex_counts():
    g = make_star_hex_product(5, 3)
    assert g.vertex_count == 54
    assert len(g.edges) == 141  # 6*16 + 9*5
    assert isinstance(g.labels[0], ProductVertex)


def test_product_edge_check_matches_the_built_product():
    for a in range(1, 4):
        for n in range(1, 4):
            edges = make_star_hex_product(a, n).edges
            size = (a + 1) * n * n
            for u in range(-1, size + 1):
                for v in range(-1, size + 1):
                    expected = (min(u, v), max(u, v)) in edges
                    assert star_hex_product_has_edge(a, n, u, v) == expected, (a, n, u, v)


def test_star_hex_product_equals_the_generic_product():
    for a in range(1, 6):
        for n in range(1, 7):
            built = make_star_hex_product(a, n)
            generic = cartesian_product(make_star(a), make_hex_dual(n))
            assert built == generic  # kind, sizes, labels and edge set
            assert built.adjacency == generic.adjacency
            assert all(type(label) is ProductVertex for label in built.labels)


def _graphs_of_every_constructor():
    rng = Random(2024)
    graphs = [make_hex_dual(n) for n in range(1, 6)]
    graphs += [make_star(a) for a in range(1, 5)]
    graphs += [make_star_hex_product(a, n) for a in range(1, 4) for n in range(1, 4)]
    graphs += [complete_graph(5), plain_graph(0, []), plain_graph(3, [])]
    for _ in range(10):
        n = rng.randint(2, 9)
        pairs = [(v, u) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        rng.shuffle(pairs)
        graphs.append(plain_graph(n, pairs))
    graphs += [
        cartesian_product(plain_graph(3, [(0, 2), (1, 2)]), make_star(2)),
        cartesian_product(make_star(2), make_star(3)),
        cartesian_product(make_hex_dual(2), make_star(1)),
    ]
    # a file may list its edges in any order and label vertices freely
    shuffled = {
        "kind": "plain",
        "vertices": [{"id": i, "label": 10 - i} for i in range(4)],
        "edges": [[2, 3], [0, 3], [1, 2], [0, 1]],
    }
    graphs.append(graph_from_json(json.dumps(shuffled)))
    return graphs + [graph_from_json(graph_to_json(g)) for g in graphs]


def test_edges_are_the_ascending_pairs_of_the_rows():
    for g in _graphs_of_every_constructor():
        edges = g.edges
        assert isinstance(edges, tuple) and g.edges is edges
        # ascending, each edge once, and the same edges as the rows
        assert edges == tuple(sorted({tuple(sorted((u, w)))
                                      for u, row in enumerate(g.adjacency) for w in row}))


def test_plain_graph_takes_pairs_in_any_order_orientation_and_multiplicity():
    pairs = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)]
    messy = [(v, u) for u, v in pairs[::2]] + pairs[1::2] + pairs[:3]
    Random(7).shuffle(messy)
    g = plain_graph(5, messy)
    assert g == plain_graph(5, pairs)
    assert list(g.edges) == pairs
    assert all(list(row) == sorted(set(row)) for row in g.adjacency)


def test_plain_graph_refuses_loops_and_negative_counts():
    with pytest.raises(InvalidParameterError, match="self-loop at vertex 1"):
        plain_graph(3, [(1, 1)])
    with pytest.raises(InvalidParameterError, match="vertex_count must be nonnegative"):
        plain_graph(-1, [])


def test_graphs_differing_in_one_edge_compare_unequal():
    pairs = [(0, 1), (1, 2), (2, 3)]
    assert plain_graph(4, pairs) != plain_graph(4, pairs[:2] + [(0, 3)])
    assert plain_graph(4, pairs) != plain_graph(4, pairs[:2])


def test_graph_json_equals_the_dict_form():
    for g in _graphs_of_every_constructor():
        assert graph_to_json(g) == json.dumps(graph_json_dict(g), separators=(",", ":"))


def test_writers_match_the_reference_writers():
    rng = Random(31337)
    graphs = [make_hex_dual(n) for n in range(1, 13)] + [make_star(a) for a in range(1, 6)]
    graphs += [make_star_hex_product(a, n) for a in range(1, 4) for n in range(1, 4)]
    for _ in range(10):
        n = rng.randint(0, 12)
        graphs.append(plain_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < 0.3]))
    graphs += _graphs_of_every_constructor()
    layouts = {g: hex_queue_layout(g.hex_n) for g in graphs[:12]}
    layouts.update({g: product_queue_layout(g.star_a, g.hex_n) for g in graphs[17:26]})
    # runs of 1, 2 and 3 vertices or rows put a boundary after every item
    for chunk in (1, 2, 3, graphs_module._CHUNK):
        with mock.patch.object(graphs_module, "_CHUNK", chunk):
            for g in graphs:
                assert graph_to_json(g) == reference_graph_json(g)
                assert graph_to_dot(g) == reference_graph_to_dot(g)
                if g in layouts:
                    assert graph_to_dot(g, layouts[g]) == reference_graph_to_dot(g, layouts[g])
    # more vertices and rows than one run holds
    big = make_star_hex_product(20, 10)
    assert big.vertex_count > graphs_module._CHUNK
    assert graph_to_json(big) == reference_graph_json(big)
    assert graph_to_dot(big) == reference_graph_to_dot(big)
    layout = product_queue_layout(20, 10)
    assert graph_to_dot(big, layout) == reference_graph_to_dot(big, layout)


def test_product_identity_factor():
    h = make_hex_dual(3)
    k1 = plain_graph(1, [])
    p = cartesian_product(k1, h)
    assert p.vertex_count == h.vertex_count
    assert p.edges == h.edges


def test_product_of_two_edges_is_square():
    s1 = make_star(1)
    p = cartesian_product(s1, s1)
    assert p.vertex_count == 4
    assert len(p.edges) == 4
    assert all(len(p.adjacency[v]) == 2 for v in range(4))
    assert connected_components(p) == [frozenset(range(4))]


def test_product_edge_count_identity_random_pairs():
    rng = Random(90125)
    for _ in range(50):
        n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
        e1 = [
            (u, v)
            for u in range(n1)
            for v in range(u + 1, n1)
            if rng.random() < 0.5
        ]
        e2 = [
            (u, v)
            for u in range(n2)
            for v in range(u + 1, n2)
            if rng.random() < 0.5
        ]
        g, h = plain_graph(n1, e1), plain_graph(n2, e2)
        p = cartesian_product(g, h)
        assert p.vertex_count == n1 * n2
        assert len(p.edges) == n1 * len(h.edges) + n2 * len(g.edges)


def test_product_commutes_up_to_label_swap():
    rng = Random(777)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
        e1 = [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.6]
        e2 = [(u, v) for u in range(n2) for v in range(u + 1, n2) if rng.random() < 0.6]
        g, h = plain_graph(n1, e1), plain_graph(n2, e2)
        gh, hg = cartesian_product(g, h), cartesian_product(h, g)
        assert gh.vertex_count == hg.vertex_count <= 12
        swap = {}
        for vid, (lx, ly) in enumerate(gh.labels):
            swap[vid] = hg.labels.index((ly, lx))
        remapped = {
            tuple(sorted((swap[u], swap[v]))) for u, v in gh.edges
        }
        assert remapped == set(hg.edges)


def test_product_rejects_empty_factor():
    with pytest.raises(InvalidParameterError):
        cartesian_product(plain_graph(0, []), make_star(1))


# ---------------------------------------------------------------------------
# traversal helpers

def test_components_empty_restriction():
    assert connected_components(make_hex_dual(3), []) == []


def test_components_whole_grid():
    comps = connected_components(make_hex_dual(3))
    assert comps == [frozenset(range(9))]


def test_components_two_isolated_corners():
    n = 3
    ids = [hex_vertex_id(GridCoord(1, 1), n), hex_vertex_id(GridCoord(3, 3), n)]
    comps = connected_components(make_hex_dual(n), ids)
    assert comps == [frozenset({ids[0]}), frozenset({ids[1]})]


def test_components_rejects_unknown_vertices():
    with pytest.raises(InvalidParameterError):
        connected_components(make_hex_dual(2), [99])


def test_shortest_path_single_vertex():
    g = make_hex_dual(3)
    assert shortest_path(g, 4, 4) == [4]


def test_shortest_path_diagonal():
    n = 3
    g = make_hex_dual(n)
    s = hex_vertex_id(GridCoord(1, 1), n)
    t = hex_vertex_id(GridCoord(3, 3), n)
    path = shortest_path(g, s, t)
    assert path is not None and len(path) == 3
    assert path[0] == s and path[-1] == t
    for u, v in zip(path, path[1:]):
        assert (min(u, v), max(u, v)) in g.edges


def test_shortest_path_disconnected():
    n = 3
    g = make_hex_dual(n)
    restrict = [hex_vertex_id(GridCoord(1, 1), n), hex_vertex_id(GridCoord(3, 3), n)]
    assert shortest_path(g, restrict[0], restrict[1], restrict) is None


def test_shortest_path_rejects_outside_restriction():
    g = make_hex_dual(2)
    with pytest.raises(InvalidParameterError):
        shortest_path(g, 0, 3, [0, 1])


def test_shortest_path_rejects_endpoints_outside_the_graph():
    g = make_hex_dual(2)
    for s, t, restrict in ((-1, 0, [-1, 0]), (99, 0, [0, 99]), (0, 4, None)):
        with pytest.raises(InvalidParameterError, match="vertices 0..3"):
            shortest_path(g, s, t, restrict)


def test_shortest_path_matches_the_reference_bfs_on_random_restrictions():
    # the same path, tie-breaks included, or None on both sides when a
    # sparse restriction splits s from t
    rng = Random(2357)
    disconnected = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        g = make_hex_dual(n)
        keep = rng.uniform(0.2, 1.0)
        restrict = [v for v in range(n * n) if rng.random() < keep]
        s, t = rng.randrange(n * n), rng.randrange(n * n)
        restrict = None if rng.random() < 0.1 else sorted({*restrict, s, t})
        expected = reference_shortest_path(g, s, t, restrict)
        assert shortest_path(g, s, t, restrict) == expected
        disconnected += expected is None
    assert disconnected > 20


# ---------------------------------------------------------------------------
# JSON round trips

@pytest.mark.parametrize(
    "g",
    [
        make_hex_dual(3),
        make_star(4),
        make_star_hex_product(3, 2),
        complete_graph(4),
    ],
    ids=["hex", "star", "product", "plain"],
)
def test_json_round_trip(g):
    text = graph_to_json(g)
    again = graph_from_json(text)
    assert again == g
    assert graph_to_json(again) == text


@pytest.mark.parametrize("a", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_json_round_trip_of_every_small_product(a, n):
    g = make_star_hex_product(a, n)
    assert graph_from_json(graph_to_json(g)) == g


def test_json_doc_shape():
    doc = json.loads(graph_to_json(make_hex_dual(2)))
    assert doc["kind"] == "hex"
    assert doc["n"] == 2
    assert doc["vertices"][0] == {"id": 0, "label": [1, 1]}
    assert all(u < v for u, v in doc["edges"])


def test_json_product_labels():
    doc = json.loads(graph_to_json(make_star_hex_product(2, 2)))
    assert doc["kind"] == "product"
    assert doc["vertices"][0]["label"] == ["t", [1, 1]]
    assert doc["vertices"][4]["label"] == [1, [1, 1]]


def test_json_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        graph_from_json("{not json")
    with pytest.raises(InvalidParameterError):
        graph_from_json(json.dumps({"kind": "mystery", "vertices": [], "edges": []}))
    with pytest.raises(InvalidParameterError):
        graph_from_json(
            json.dumps(
                {
                    "kind": "plain",
                    "vertices": [{"id": 0, "label": 0}, {"id": 1, "label": 1}],
                    "edges": [[1, 0]],
                }
            )
        )


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(2, 7))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), min_size=1))
    return plain_graph(n, pairs)


@settings(deadline=None)
@given(plain_graphs())
def test_json_round_trip_of_random_plain_graphs(g):
    text = graph_to_json(g)
    assert graph_from_json(text) == g
    assert graph_to_json(graph_from_json(text)) == text


NOT_INTEGERS = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=3))


@settings(deadline=None)
@given(plain_graphs(), st.data())
def test_malformed_edge_lists_keep_their_messages(g, data):
    # one fault in one edge: an endpoint that is no JSON integer, an
    # edge not stored ascending, or a pair of the wrong length
    doc = json.loads(graph_to_json(g))
    edges = doc["edges"]
    i = data.draw(st.integers(0, len(edges) - 1))
    u, v = edges[i]
    fault = data.draw(st.sampled_from(("endpoint", "order", "arity")))
    if fault == "endpoint":
        bad = data.draw(NOT_INTEGERS)
        edges[i][data.draw(st.integers(0, 1))] = bad
        expected = f"malformed graph document: {bad!r} is not an integer"
    elif fault == "order":
        edges[i] = data.draw(st.sampled_from(([v, u], [u, u], [v, v])))
        expected = f"edge {edges[i]} not stored with u < v"
    elif data.draw(st.booleans()):
        edges[i] = [u]
        expected = "malformed graph document: not enough values to unpack (expected 2, got 1)"
    else:
        edges[i] = [u, v, v]
        expected = "malformed graph document: too many values to unpack (expected 2)"
    with pytest.raises(InvalidParameterError) as info:
        graph_from_json(json.dumps(doc))
    assert str(info.value) == expected


def test_graph_immutability_contract():
    g = make_hex_dual(2)
    assert isinstance(g.labels, tuple)
    assert isinstance(g.edges, tuple)
    assert isinstance(g.adjacency, tuple)
    assert make_hex_dual(2) is g  # cached and shareable
