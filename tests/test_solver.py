import json
from itertools import combinations, permutations
from math import factorial
from random import Random

import pytest

from linlay import (
    InvalidParameterError,
    LinearOrder,
    ResourceLimitError,
    make_hex_dual,
    make_star,
    make_star_hex_product,
    min_queue_colors_for_order,
    min_stack_colors_for_order,
    plain_graph,
    queue_number,
    stack_number,
    verify_layout,
)
from linlay.solve import density_floor

from make_atlas_table import TABLE, atlas_entry
from oracles import (
    brute_layout_number,
    brute_min_colors,
    complete_bipartite,
    complete_graph,
    cube_graph,
    nonisomorphic_graphs,
    orders_up_to_symmetry,
    random_tree,
    scan_layout_number,
    square_grid,
)


def test_trees_need_one_stack():
    rng = Random(12)
    for _ in range(10):
        tree = random_tree(rng, rng.randint(2, 8))
        result = stack_number(tree)
        assert result.k == 1
        assert result.exact


def test_stars_need_one_queue():
    for a in (1, 3, 6):
        result = queue_number(make_star(a))
        assert result.k == 1


@pytest.mark.parametrize("n,expected", [(4, 2), (5, 3)])
def test_stack_number_complete_graphs(n, expected):
    result = stack_number(complete_graph(n))
    assert result.k == expected
    assert verify_layout(complete_graph(n), result.layout).valid


def test_stack_number_k3_is_one():
    # every pair of triangle edges shares an endpoint, so nothing crosses
    assert stack_number(complete_graph(3)).k == 1
    assert brute_layout_number(3, list(combinations(range(3), 2)), "stack") == 1


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 2), (5, 2)])
def test_queue_number_complete_graphs(n, expected):
    result = queue_number(complete_graph(n))
    assert result.k == expected


def test_queue_number_h2_matches_brute_force():
    g = make_hex_dual(2)
    result = queue_number(g)
    assert result.k == brute_layout_number(4, sorted(g.edges), "queue")


def test_agreement_with_double_enumeration_small():
    for n, edges in nonisomorphic_graphs(4):
        g = plain_graph(n, edges)
        assert stack_number(g).k == brute_layout_number(n, edges, "stack")
        assert queue_number(g).k == brute_layout_number(n, edges, "queue")


def test_orders_up_to_symmetry_keep_the_brute_minimum():
    # the brute and scan oracles try one order per class under reversal
    # (and, for stacks, rotation); on up to five vertices every order agrees
    for n, edges in nonisomorphic_graphs(5):
        for kind in ("stack", "queue"):
            if edges:
                every = min(brute_min_colors(edges, seq, kind) for seq in permutations(range(n)))
                assert brute_layout_number(n, edges, kind) == every
    for n in range(2, 8):
        assert len(list(orders_up_to_symmetry(n, "stack"))) == max(1, factorial(n - 1) // 2)
        assert len(list(orders_up_to_symmetry(n, "queue"))) == factorial(n) // 2


def test_agreement_five_vertex_sample():
    rng = Random(55)
    graphs = [g for g in nonisomorphic_graphs(5) if g[0] == 5]
    rng.shuffle(graphs)
    for n, edges in graphs[:12]:
        g = plain_graph(n, edges)
        assert stack_number(g).k == brute_layout_number(n, edges, "stack")
        assert queue_number(g).k == brute_layout_number(n, edges, "queue")


def test_no_sampled_order_beats_result():
    rng = Random(321)
    for g in (complete_graph(5), make_hex_dual(2)):
        rs = stack_number(g)
        rq = queue_number(g)
        for _ in range(1000):
            seq = list(range(g.vertex_count))
            rng.shuffle(seq)
            order = LinearOrder.from_sequence(seq)
            k_s, _ = min_stack_colors_for_order(g, order)
            k_q, _ = min_queue_colors_for_order(g, order)
            assert k_s >= rs.k
            assert k_q >= rq.k


def test_subgraph_monotonicity():
    rng = Random(808)
    for _ in range(30):
        n = rng.randint(3, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        g = plain_graph(n, edges)
        sub_edges = [e for e in edges if rng.random() < 0.7]
        sub = plain_graph(n, sub_edges)
        assert stack_number(sub).k <= stack_number(g).k
        assert queue_number(sub).k <= queue_number(g).k


def test_results_are_deterministic():
    g = complete_graph(5)
    r1, r2 = stack_number(g), stack_number(g)
    assert r1.k == r2.k
    assert r1.layout.order == r2.layout.order
    assert r1.layout.coloring.colors == r2.layout.coloring.colors


def test_first_found_optimum_is_lexicographic():
    g = complete_graph(4)
    result = stack_number(g)
    # vertex 0 pinned first; scan is lexicographic over the rest, so no
    # earlier admissible order can achieve the optimum
    seen = []
    from itertools import permutations as perms

    for rest in perms(range(1, 4)):
        if rest[0] > rest[-1]:
            continue
        seq = (0,) + rest
        seen.append(seq)
        if brute_min_colors(g.edges, seq, "stack") == result.k:
            assert result.layout.order.sequence == seq
            break


def test_budget_vertex_gate():
    g = plain_graph(15, [(i, i + 1) for i in range(14)])
    with pytest.raises(ResourceLimitError):
        stack_number(g)
    with pytest.raises(ResourceLimitError):
        queue_number(g, max_vertices=10)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_edgeless_graphs_end_on_the_identity_order(n):
    g = plain_graph(n, [])
    for solver in (stack_number, queue_number):
        result = solver(g)
        assert (result.k, result.exact, result.lower_bound) == (0, True, 0)
        assert result.layout.order.sequence == tuple(range(n))
        assert result.layout.coloring.colors == {}


def test_budget_needs_at_least_one_order():
    # refused before the vertex gate, which this graph would also fail
    g = plain_graph(12, [])
    for solver in (stack_number, queue_number):
        for max_orders in (0, -1):
            with pytest.raises(InvalidParameterError, match="max_orders must be a positive"):
                solver(g, max_orders=max_orders)


def test_default_budget_is_nine_vertices_and_no_order_cap():
    for solver in (stack_number, queue_number):
        result = solver(plain_graph(9, [(v, v + 1) for v in range(8)]))
        assert (result.k, result.exact) == (1, True)
        with pytest.raises(ResourceLimitError):
            solver(plain_graph(10, [(v, v + 1) for v in range(9)]))
    # K_{3,3} never reaches its floor, so only an uncapped scan is exact
    result = stack_number(complete_bipartite(3, 3))
    assert (result.k, result.exact, result.orders_scanned) == (3, True, 60)


def test_budget_order_cap_returns_bounds():
    # K_{3,3} is nonplanar, so sn = 3 while its edge count allows one stack;
    # the scan cannot stop at the floor and runs through all 60 orders
    g = complete_bipartite(3, 3)
    assert density_floor("stack", 6, 9) == 1
    result = stack_number(g, max_orders=3)
    assert not result.exact
    assert result.lower_bound <= result.k
    assert verify_layout(g, result.layout).valid


def test_long_path_stops_at_the_floor():
    # the identity order meets the floor, so a raised vertex budget still
    # ends after one order
    g = plain_graph(1200, [(v, v + 1) for v in range(1199)])
    for solver in (stack_number, queue_number):
        result = solver(g, max_vertices=2000)
        assert (result.k, result.exact, result.orders_scanned) == (1, True, 1)
        assert verify_layout(g, result.layout).valid


def test_floor_stop_matches_full_scan():
    rng = Random(2026)
    graphs = [make_hex_dual(2), make_star_hex_product(1, 2), complete_bipartite(2, 3),
              square_grid(3), cube_graph()]
    # fewer of the larger graphs, whose full scans are slow
    for n, count in ((2, 12), (3, 20), (4, 32), (5, 32), (6, 32), (7, 16), (8, 6)):
        for i in range(count):
            density = (0.2, 0.4, 0.6, 0.8)[i % 4]
            graphs.append(plain_graph(n, [e for e in combinations(range(n), 2)
                                          if rng.random() < density]))
    assert len(graphs) >= 150
    for g in graphs:
        for solver, kind in ((stack_number, "stack"), (queue_number, "queue")):
            result = solver(g)
            assert result.exact
            got = (result.k, result.layout.order.sequence, result.layout.coloring.colors)
            assert got == scan_layout_number(g, kind), (kind, g.vertex_count, sorted(g.edges))


def test_solve_matches_the_atlas_table_on_every_tenth_graph():
    # tests/make_atlas_table.py wrote the table from networkx's graph atlas
    # and checked it against the oracles; a fixed stride of indices keeps
    # this test fast
    with open(TABLE) as f:
        table = json.load(f)
    assert [entry["index"] for entry in table] == list(range(1253))
    for entry in table[::10]:
        assert atlas_entry(entry["index"], entry["n"], entry["edges"]) == entry


def test_density_floor_is_a_lower_bound():
    for n, edges in nonisomorphic_graphs(5):
        for kind in ("stack", "queue"):
            assert density_floor(kind, n, len(edges)) <= brute_layout_number(n, edges, kind)
    for n in range(4, 11):
        m = n * (n - 1) // 2
        assert density_floor("stack", n, m) == (n + 1) // 2
        assert density_floor("queue", n, m) == n // 2


def test_reversal_symmetry_skip_is_sound():
    # queue enumeration sees each order or its mirror; both give equal k
    g = make_hex_dual(2)
    result = queue_number(g)
    full = min(
        min_queue_colors_for_order(g, LinearOrder.from_sequence(seq))[0]
        for seq in __import__("itertools").permutations(range(4))
    )
    assert result.k == full


def test_rotation_invariance_of_stack_minimum():
    # pinning vertex 0 in front is sound because crossings only depend on
    # the circular arrangement
    rng = Random(246)
    for _ in range(40):
        n = rng.randint(4, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        g = plain_graph(n, edges)
        seq = list(range(n))
        rng.shuffle(seq)
        base = min_stack_colors_for_order(g, LinearOrder.from_sequence(seq))[0]
        for shift in range(1, n):
            rotated = seq[shift:] + seq[:shift]
            k = min_stack_colors_for_order(g, LinearOrder.from_sequence(rotated))[0]
            assert k == base
