import pytest

from linlay import (
    InvalidParameterError,
    hex_queue_layout,
    make_hex_dual,
    make_star_hex_product,
    min_queue_colors_for_order,
    product_block_order,
    product_queue_layout,
    verify_layout,
)

from oracles import (
    comprehension_block_order,
    label_queue_colors,
    step_class_queue_coloring,
    weakly_nesting_pairs,
)


def test_single_cell_grid_layout():
    layout = hex_queue_layout(1)
    assert layout.coloring.colors == {}
    assert verify_layout(make_hex_dual(1), layout).valid


def test_three_grid_uses_three_queues():
    layout = hex_queue_layout(3)
    report = verify_layout(make_hex_dual(3), layout)
    assert report.valid and report.violations == []
    assert layout.coloring.k == 3
    assert len(layout.coloring.colors) == 16


@pytest.mark.parametrize("n", range(1, 9))
def test_hex_layout_valid_and_strict(n):
    g = make_hex_dual(n)
    layout = hex_queue_layout(n)
    assert verify_layout(g, layout).valid
    assert weakly_nesting_pairs(layout) == []
    if n >= 3:  # qn(H_n) = 2: the same order needs only 2 queues; the layout keeps 3
        assert layout.coloring.k == 3
        assert min_queue_colors_for_order(g, layout.order)[0] == 2


def test_step_colours_match_the_label_classes():
    for n in range(1, 8):
        assert hex_queue_layout(n).coloring.colors == label_queue_colors(make_hex_dual(n))
        for a in range(1, 5):
            colors = product_queue_layout(a, n).coloring.colors
            assert colors == label_queue_colors(make_star_hex_product(a, n))


def test_vertical_edges_have_span_n():
    n = 5
    layout = hex_queue_layout(n)
    for (u, v), c in layout.coloring.colors.items():
        if c == 1:  # vertical class
            assert v - u == n


def test_product_block_order_shape():
    a, n = 3, 2
    order = product_block_order(a, n)
    # hub first within each block of a+1 vertices
    for block in range(n * n):
        chunk = order.sequence[block * (a + 1) : (block + 1) * (a + 1)]
        assert chunk[0] == block  # hub copy has star id 0
        assert [v // (n * n) for v in chunk] == list(range(a + 1))


def test_product_five_three_reference_case():
    g = make_star_hex_product(5, 3)
    layout = product_queue_layout(5, 3)
    report = verify_layout(g, layout)
    assert report.valid and report.violations == []
    assert layout.coloring.k == 4
    assert g.vertex_count == 54 and len(g.edges) == 141


def test_product_single_edge():
    layout = product_queue_layout(1, 1)
    g = make_star_hex_product(1, 1)
    assert verify_layout(g, layout).valid
    assert layout.coloring.k == 1


def test_product_three_two_beats_no_better_bound():
    g = make_star_hex_product(3, 2)
    layout = product_queue_layout(3, 2)
    assert verify_layout(g, layout).valid
    k, _ = min_queue_colors_for_order(g, layout.order)
    assert k <= 4


@pytest.mark.parametrize("a", [1, 2, 4, 6, 8])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
def test_product_layout_valid_grid(a, n):
    g = make_star_hex_product(a, n)
    layout = product_queue_layout(a, n)
    assert verify_layout(g, layout).valid
    assert layout.coloring.k <= 4


def test_star_edges_share_hub_position():
    a, n = 4, 2
    layout = product_queue_layout(a, n)
    pos = layout.order.position
    cells = n * n
    for (u, v), c in layout.coloring.colors.items():
        if c == 0:
            hub, leaf = (u, v) if u < cells else (v, u)
            assert hub < cells  # hub copies are ids 0..n^2-1
            assert pos[leaf] - pos[hub] == leaf // cells


def test_same_class_product_edges_have_equal_spans():
    a, n = 3, 3
    layout = product_queue_layout(a, n)
    pos = layout.order.position
    spans = {}
    for (u, v), c in layout.coloring.colors.items():
        if c == 0:
            continue
        spans.setdefault(c, set()).add(abs(pos[u] - pos[v]))
    for c, widths in spans.items():
        assert len(widths) == 1


# n = 1 has no grid edges, and its step table {1: H, 1: V, 2: D} collides
@pytest.mark.parametrize(
    "a, n", [(a, n) for a in range(1, 5) for n in range(1, 6)] + [(20, 10), (1024, 4)]
)
def test_copy_by_copy_layout_equals_the_per_edge_classifier(a, n):
    layout = product_queue_layout(a, n)
    expected = step_class_queue_coloring(a, n)
    assert layout.coloring == expected  # the colours and k
    assert list(layout.coloring.colors) == list(expected.colors)  # in edge order
    order = comprehension_block_order(a, n)
    assert (layout.order.sequence, layout.order.position) == (order.sequence, order.position)
    assert product_block_order(a, n) == order


@pytest.mark.parametrize("n", range(1, 6))
def test_block_order_without_leaves_is_the_grid_order(n):
    order, expected = product_block_order(0, n), comprehension_block_order(0, n)
    assert (order.sequence, order.position) == (expected.sequence, expected.position)
    assert order.sequence == tuple(range(n * n))


def test_product_layout_refuses_sizes_as_the_product_does():
    for a, n, message in ((0, 3, "a must"), (3, 0, "n must"), (0, 0, "a must")):
        for build in (product_queue_layout, make_star_hex_product):
            with pytest.raises(InvalidParameterError, match=f"^{message} be a positive integer$"):
                build(a, n)


def test_product_layout_leaves_the_product_edges_unbuilt():
    make_star_hex_product.cache_clear()
    product_queue_layout(5, 3)
    assert "edges" not in vars(make_star_hex_product(5, 3))
