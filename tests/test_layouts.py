import json
from itertools import combinations, permutations
from random import Random

import pytest

from linlay import (
    EdgeColoring,
    InvalidParameterError,
    Layout,
    LinearOrder,
    ResourceLimitError,
    crosses,
    identity_order,
    is_pairwise_crossing,
    layout_from_json,
    layout_to_json,
    make_hex_dual,
    make_star,
    make_star_hex_product,
    min_queue_colors_for_order,
    min_stack_colors_for_order,
    nests,
    plain_graph,
    product_block_order,
    product_queue_layout,
    verify_layout,
)
from linlay import layouts
from linlay.layouts import largest_crossing, spans

from oracles import (
    all_pairs_violations,
    brute_min_colors,
    complete_graph,
    dsatur_greedy_colors,
    gap_largest_crossing,
    layout_json_dict,
    nesting_depth_colors,
    oracle_crosses,
    oracle_nests,
    positions,
)


def order_of(seq):
    return LinearOrder.from_sequence(seq)


def test_from_sequence_positions_are_the_sequence_ints():
    # a loaded order holds one int object per vertex, not two
    seq = list(range(5000))
    Random(7).shuffle(seq)
    order = order_of(seq)
    assert order.position == tuple(sorted(range(5000), key=seq.__getitem__))
    held = set(map(id, order.sequence))
    assert all(id(p) in held for p in order.position)


# ---------------------------------------------------------------------------
# predicates

def test_crossing_pattern():
    o = order_of([0, 1, 2, 3])
    assert crosses(o, (0, 2), (1, 3))


def test_nesting_pattern():
    o = order_of([0, 1, 2, 3])
    assert not crosses(o, (0, 3), (1, 2))
    assert nests(o, (0, 3), (1, 2))
    assert not nests(o, (0, 2), (1, 3))


def test_shared_endpoints_neither_cross_nor_nest():
    o = order_of([0, 1, 2, 3])
    assert not crosses(o, (0, 1), (1, 2))
    assert not nests(o, (0, 2), (0, 3))


def test_predicates_reject_bad_input():
    o = order_of([0, 1, 2])
    with pytest.raises(InvalidParameterError):
        crosses(o, (0, 5), (1, 2))
    with pytest.raises(InvalidParameterError):
        nests(o, (0, 1), (1, 0))


def test_predicate_properties_random():
    rng = Random(1234)
    for _ in range(300):
        n = rng.randint(4, 9)
        seq = list(range(n))
        rng.shuffle(seq)
        o = order_of(seq)
        pos = positions(seq)
        pairs = list(combinations(range(n), 2))
        e = pairs[rng.randrange(len(pairs))]
        f = pairs[rng.randrange(len(pairs))]
        if e == f:
            continue
        c, d = crosses(o, e, f), nests(o, e, f)
        assert not (c and d)
        assert c == crosses(o, f, e)
        assert d == nests(o, f, e)
        assert c == oracle_crosses(pos, e, f)
        assert d == oracle_nests(pos, e, f)
        if set(e) & set(f):
            assert not c and not d


def test_is_pairwise_crossing_cases():
    o = order_of([0, 1, 2, 3, 4, 5])
    assert is_pairwise_crossing(o, [])
    assert is_pairwise_crossing(o, [(0, 3)])
    assert is_pairwise_crossing(o, [(0, 2), (1, 3)])
    assert not is_pairwise_crossing(o, [(0, 2), (1, 3), (2, 4)])  # shares position 2
    assert not is_pairwise_crossing(o, [(0, 3), (1, 2)])


@pytest.mark.parametrize("edges, message", [
    ([(-1, 1), (0, 2)], "vertex -1 outside"),  # -1 must not wrap to the last position
    ([(0, 2), (1, 4)], "vertex 4 outside"),
    ([(0, 2), (2, 0)], "two distinct edges"),
    ([(-1, 9)], "vertex -1 outside"),  # no pair to compare
    ([(0, 3), (1, 2), (-1, 9)], "vertex -1 outside"),  # after a pair that does not cross
    ([(1, 2), (0, 3), (2, 1)], "two distinct edges"),  # likewise
])
def test_is_pairwise_crossing_refuses_what_crosses_refuses(edges, message):
    o = order_of([0, 1, 2, 3])
    # the first and the last edge hold the fault
    with pytest.raises(InvalidParameterError, match=message):
        crosses(o, edges[0], edges[-1])
    with pytest.raises(InvalidParameterError, match=message):
        is_pairwise_crossing(o, edges)


def clique(span_list):
    return largest_crossing(span_list, layouts._overlapping_pairs(span_list, crossing=True))


def test_largest_crossing_matches_subset_scan():
    rng = Random(73)
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5][:9]
        seq = list(range(n))
        rng.shuffle(seq)
        pos = positions(seq)
        best = max(
            r for r in range(len(edges) + 1) for subset in combinations(edges, r)
            if all(oracle_crosses(pos, e, f) for e, f in combinations(subset, 2))
        )
        assert clique(spans(order_of(seq), edges)) == best


def test_largest_crossing_matches_the_gap_scan():
    # beyond the subset scan's reach: random orders of graphs with up to 64
    # edges, and block orders of small products
    rng = Random(29)
    cases = []
    for _ in range(200):
        n = rng.randint(2, 14)
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random()][:64]
        seq = list(range(n))
        rng.shuffle(seq)
        cases.append(spans(order_of(seq), edges))
    for a, n in ((1, 2), (1, 3), (2, 3), (3, 4), (5, 3), (2, 5)):
        cases.append(spans(product_block_order(a, n), make_star_hex_product(a, n).edges))
    assert max(map(clique, cases)) > 6
    for span_list in cases:
        assert clique(span_list) == gap_largest_crossing(span_list)


# ---------------------------------------------------------------------------
# verification

def test_star_single_color_valid_both_kinds():
    g = make_star(4)
    order = identity_order(5)
    coloring = EdgeColoring.from_colors({e: 0 for e in g.edges})
    for kind in ("stack", "queue"):
        report = verify_layout(g, Layout(kind, order, coloring))
        assert report.valid and report.violations == []


def test_product_queue_layout_verifies():
    g = make_star_hex_product(5, 3)
    layout = product_queue_layout(5, 3)
    report = verify_layout(g, layout)
    assert report.valid
    assert layout.coloring.k == 4


def test_one_color_k4_stack_violations_exhaustive():
    g = complete_graph(4)
    order = identity_order(4)
    layout = Layout("stack", order, EdgeColoring.from_colors({e: 0 for e in g.edges}))
    report = verify_layout(g, layout)
    assert not report.valid
    expected = [
        (e, f)
        for e, f in combinations(sorted(g.edges), 2)
        if crosses(order, e, f)
    ]
    assert report.violations == sorted(expected)
    assert report.violations == [((0, 2), (1, 3))]


def test_verify_rejects_partial_inputs():
    g = complete_graph(3)
    order = identity_order(3)
    with pytest.raises(InvalidParameterError):
        verify_layout(g, Layout("stack", order, EdgeColoring.from_colors({(0, 1): 0})))
    with pytest.raises(InvalidParameterError):
        verify_layout(
            g,
            Layout(
                "stack",
                order_of([0, 1]),
                EdgeColoring.from_colors({e: 0 for e in g.edges}),
            ),
        )
    with pytest.raises(InvalidParameterError):
        verify_layout(
            g,
            Layout("shelf", order, EdgeColoring.from_colors({e: 0 for e in g.edges})),
        )
    for per_order in (min_stack_colors_for_order, min_queue_colors_for_order):
        with pytest.raises(InvalidParameterError, match="order must cover"):
            per_order(g, order_of([0, 1]))


def test_verify_refuses_reversed_and_non_edge_keys():
    g = plain_graph(3, [(0, 1), (1, 2)])
    order = identity_order(3)
    for colors in ({(1, 0): 0, (1, 2): 0}, {(0, 1): 0, (1, 2): 0, (0, 2): 1}):
        with pytest.raises(InvalidParameterError):
            verify_layout(g, Layout("queue", order, EdgeColoring.from_colors(colors)))


def test_verify_fast_path_matches_pair_scan(monkeypatch):
    # a class's sweep must be exact both ways: one that misses a violation
    # changes the report, and one that flags a clean class lists no pairs
    list_pairs = layouts._overlapping_pairs

    def listed(span_list, crossing):
        partners = list_pairs(span_list, crossing)
        assert any(partners), "a clean colour class was listed"
        return partners

    monkeypatch.setattr(layouts, "_overlapping_pairs", listed)
    rng = Random(4321)
    for _ in range(150):
        n = rng.randint(3, 16)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        g = plain_graph(n, edges)
        seq = list(range(n))
        rng.shuffle(seq)
        order = order_of(seq)
        k = rng.randint(1, 3)
        coloring = EdgeColoring.from_colors({e: rng.randrange(k) for e in g.edges})
        for kind in ("stack", "queue"):
            layout = Layout(kind, order, coloring)
            report = verify_layout(g, layout)
            expected = all_pairs_violations(layout)
            assert report.violations == expected
            assert report.valid == (not expected)


# ---------------------------------------------------------------------------
# per-order minima

def test_stack_min_path_is_one():
    g = plain_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    k, coloring = min_stack_colors_for_order(g, identity_order(5))
    assert k == 1
    assert verify_layout(g, Layout("stack", identity_order(5), coloring)).valid


def test_stack_min_k4_any_order():
    g = complete_graph(4)
    for seq in permutations(range(4)):
        k, coloring = min_stack_colors_for_order(g, order_of(seq))
        assert k == brute_min_colors(g.edges, seq, "stack") == 2
        assert verify_layout(g, Layout("stack", order_of(seq), coloring)).valid


def test_stack_min_interleaved_cycle():
    g = plain_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k, _ = min_stack_colors_for_order(g, order_of([0, 2, 1, 3]))
    assert k == 2


def test_stack_min_improves_on_greedy_colouring():
    # DSATUR colours this order's conflict graph with 4 stacks; the search
    # finds 3, which its largest crossing set proves optimal
    edges = [(0, 2), (0, 4), (0, 7), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
             (2, 7), (3, 6), (4, 7), (5, 7), (6, 7)]
    seq = [5, 1, 3, 7, 0, 2, 4, 6]
    g = plain_graph(8, edges)
    k, coloring = min_stack_colors_for_order(g, order_of(seq))
    assert k == brute_min_colors(edges, seq, "stack") == 3
    assert verify_layout(g, Layout("stack", order_of(seq), coloring)).valid


def test_stack_min_pentagram_accepts_only_strictly_fewer_stacks_than_the_cutoff():
    # under the identity order the pentagram's crossing conflicts form a
    # 5-cycle: no three edges cross pairwise, yet two stacks do not suffice
    g = plain_graph(5, [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)])
    order = identity_order(5)
    assert clique(spans(order, g.edges)) == 2
    k, coloring = min_stack_colors_for_order(g, order)
    assert (k, coloring.colors) == (3, {(0, 2): 0, (0, 3): 0, (1, 3): 1, (1, 4): 1, (2, 4): 2})
    assert min_stack_colors_for_order(g, order, _cutoff=4)[0] == 3
    assert min_stack_colors_for_order(g, order, _cutoff=3) == (None, None)


def test_stack_min_search_depth_is_not_bounded_by_recursion():
    # the instance above followed by a 1,100-edge path that crosses
    # nothing: the search still has to beat DSATUR's 4 stacks, one level
    # per edge, deeper than Python's default recursion limit
    edges = [(0, 2), (0, 4), (0, 7), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
             (2, 7), (3, 6), (4, 7), (5, 7), (6, 7)]
    path = [(v, v + 1) for v in range(8, 1108)]
    seq = [5, 1, 3, 7, 0, 2, 4, 6, *range(8, 1109)]
    g = plain_graph(1109, edges + path)
    assert len(g.edges) == 1114
    k, coloring = min_stack_colors_for_order(g, order_of(seq), max_edges=len(g.edges))
    assert k == 3
    assert verify_layout(g, Layout("stack", order_of(seq), coloring)).valid


def test_stack_min_returns_the_greedy_colouring_when_it_is_optimal():
    # the search's first descent is DSATUR, and only a strictly better
    # colouring replaces it
    rng = Random(4242)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random()]
        seq = list(range(n))
        rng.shuffle(seq)
        greedy_k, greedy = dsatur_greedy_colors(edges, seq)
        if greedy_k != brute_min_colors(edges, seq, "stack"):
            continue
        k, coloring = min_stack_colors_for_order(plain_graph(n, edges), order_of(seq))
        assert (k, coloring.colors) == (greedy_k, greedy)
        checked += 1
    assert checked >= 250


def test_stack_min_respects_edge_limit():
    g = make_star_hex_product(9, 2)  # 86 edges
    with pytest.raises(ResourceLimitError):
        min_stack_colors_for_order(g, identity_order(g.vertex_count))


def test_queue_min_star_root_first():
    g = make_star(6)
    k, coloring = min_queue_colors_for_order(g, identity_order(7))
    assert k == 1
    assert verify_layout(g, Layout("queue", identity_order(7), coloring)).valid


def test_queue_min_two_nested_edges():
    g = plain_graph(4, [(0, 3), (1, 2)])
    k, _ = min_queue_colors_for_order(g, identity_order(4))
    assert k == 2


def test_queue_min_k4_best_order_is_two():
    g = complete_graph(4)
    best = min(
        min_queue_colors_for_order(g, order_of(seq))[0]
        for seq in permutations(range(4))
    )
    assert best == 2


@pytest.mark.parametrize("kind", ["stack", "queue"])
def test_minima_match_brute_force(kind):
    rng = Random(2024)
    fn = min_stack_colors_for_order if kind == "stack" else min_queue_colors_for_order
    for _ in range(60):
        n = rng.randint(3, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.55]
        g = plain_graph(n, edges)
        seq = list(range(n))
        rng.shuffle(seq)
        k, coloring = fn(g, order_of(seq))
        assert k == brute_min_colors(edges, seq, kind)
        if edges:
            layout = Layout(kind, order_of(seq), coloring)
            assert verify_layout(g, layout).valid


@pytest.mark.parametrize("kind", ["stack", "queue"])
def test_minima_reversal_invariant(kind):
    rng = Random(555)
    fn = min_stack_colors_for_order if kind == "stack" else min_queue_colors_for_order
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = plain_graph(n, edges)
        seq = list(range(n))
        rng.shuffle(seq)
        order = order_of(seq)
        assert fn(g, order)[0] == fn(g, LinearOrder.from_sequence(order.sequence[::-1]))[0]


def test_queue_min_exhaustive_small_graphs():
    # every labelled graph on 4 vertices, every order
    pairs = list(combinations(range(4), 2))
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        g = plain_graph(4, edges)
        for seq in permutations(range(4)):
            k, _ = min_queue_colors_for_order(g, order_of(seq))
            assert k == brute_min_colors(edges, seq, "queue")


def _queue_min_against_oracle(g, order):
    k, coloring = min_queue_colors_for_order(g, order)
    want_k, want_colors = nesting_depth_colors(g.edges, order.sequence)
    assert k == want_k
    assert coloring.colors == want_colors
    return k


@pytest.mark.parametrize(
    "g, seed",
    [
        (make_hex_dual(3), 11),
        (make_hex_dual(3), 12),
        (complete_graph(8), 13),
        (complete_graph(8), 14),
        (make_star_hex_product(3, 3), 15),
        (make_star_hex_product(3, 3), 16),
        (make_star_hex_product(5, 4), 17),
    ],
    ids=["H3-a", "H3-b", "K8-a", "K8-b", "S3xH3-a", "S3xH3-b", "S5xH4"],
)
def test_queue_min_matches_nesting_depth_oracle(g, seed):
    seq = list(range(g.vertex_count))
    Random(seed).shuffle(seq)
    _queue_min_against_oracle(g, order_of(seq))


def test_queue_min_block_order_matches_oracle():
    assert _queue_min_against_oracle(make_star_hex_product(5, 4), product_block_order(5, 4)) == 4


# ---------------------------------------------------------------------------
# JSON

def test_layout_json_round_trip():
    layout = product_queue_layout(3, 2)
    text = layout_to_json(layout)
    again = layout_from_json(text)
    assert again.kind == layout.kind
    assert again.order == layout.order
    assert again.coloring.colors == layout.coloring.colors
    assert layout_to_json(again) == text


def test_layout_json_equals_the_dict_form_in_any_key_order():
    rng = Random(31)
    _, stacks = min_stack_colors_for_order(complete_graph(6), identity_order(6))
    layouts = [
        product_queue_layout(3, 3),
        product_queue_layout(1, 1),
        Layout("stack", identity_order(6), stacks),
        Layout("queue", identity_order(0), EdgeColoring.from_colors({})),
    ]
    for layout in layouts:
        items = list(layout.coloring.colors.items())
        for _ in range(3):
            rng.shuffle(items)
            shuffled = Layout(layout.kind, layout.order, EdgeColoring.from_colors(dict(items)))
            expected = json.dumps(layout_json_dict(shuffled), separators=(",", ":"))
            assert layout_to_json(shuffled) == expected


def test_layout_json_shape_and_errors():
    layout = product_queue_layout(1, 1)
    doc = json.loads(layout_to_json(layout))
    assert doc["kind"] == "queue"
    assert set(doc) == {"kind", "order", "colors"}
    assert all("-" in key for key in doc["colors"])
    with pytest.raises(InvalidParameterError):
        layout_from_json('{"kind": "queue"}')
    with pytest.raises(InvalidParameterError):
        layout_from_json('{"kind": "spiral", "order": [0], "colors": {}}')
    with pytest.raises(InvalidParameterError):
        layout_from_json('{"kind": "queue", "order": [0, 1], "colors": {"0-1": -1}}')


@pytest.mark.parametrize("edge, vertex", [((-1, 1), -1), ((0, 3), 3), ((5, 7), 5)])
def test_layout_json_refuses_keys_outside_the_order(edge, vertex):
    # a negative id must not be written as the id that many places from the end
    layout = Layout("stack", identity_order(3), EdgeColoring({(0, 1): 0, edge: 0}, 1))
    with pytest.raises(InvalidParameterError, match=f"^vertex {vertex} outside the order"):
        layout_to_json(layout)
