"""Explicit queue layouts for grids and star-times-grid products.

Row-major order gives the grid a 3-queue layout because each edge class
(horizontal, vertical, diagonal) has one fixed position span, and equal
spans can never nest.  Listing each grid block as hub first then leaves
extends this to 4 queues on the product: within-block star edges share
the hub, and product edges again fall into three equal-span classes.
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .graphs import (
    GridCoord,
    ProductVertex,
    make_hex_dual,
    make_star_hex_product,
)
from .layouts import QUEUE, EdgeColoring, Layout, LinearOrder, identity_order

STAR_CLASS = 0
HORIZONTAL_CLASS = 1
VERTICAL_CLASS = 2
DIAGONAL_CLASS = 3


def _hex_edge_class(p: GridCoord, q: GridCoord) -> int:
    if p.b == q.b:
        return HORIZONTAL_CLASS
    if p.a == q.a:
        return VERTICAL_CLASS
    return DIAGONAL_CLASS


def hex_queue_layout(n: int) -> Layout:
    """3-queue layout of the dual hex grid under row-major order."""
    g = make_hex_dual(n)
    colors = {
        (u, v): _hex_edge_class(g.labels[u], g.labels[v]) - 1 for u, v in g.edges
    }
    return Layout(QUEUE, identity_order(g.vertex_count), EdgeColoring.from_colors(colors))


def product_block_order(a: int, n: int) -> LinearOrder:
    """Grid blocks in row-major order; hub first then leaves inside each."""
    cells = n * n
    sequence = []
    for grid_id in range(cells):
        for star_id in range(a + 1):
            sequence.append(star_id * cells + grid_id)
    return LinearOrder.from_sequence(sequence)


def product_queue_layout(a: int, n: int) -> Layout:
    """4-queue layout of the star-times-grid product.

    Star copies get colour 0; product edges inherit the class of the grid
    edge they run over (horizontal 1, vertical 2, diagonal 3).
    """
    if a < 1 or n < 1:
        raise InvalidParameterError("a and n must be positive")
    g = make_star_hex_product(a, n)
    colors = {}
    for u, v in g.edges:
        lu: ProductVertex = g.labels[u]
        lv: ProductVertex = g.labels[v]
        if lu.grid_part == lv.grid_part:
            colors[(u, v)] = STAR_CLASS
        else:
            colors[(u, v)] = _hex_edge_class(lu.grid_part, lv.grid_part)
    return Layout(QUEUE, product_block_order(a, n), EdgeColoring.from_colors(colors))

