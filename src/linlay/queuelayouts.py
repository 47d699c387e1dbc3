"""Explicit queue layouts for grids and star-times-grid products.

Row-major order gives the grid a 3-queue layout because each edge class
(horizontal, vertical, diagonal) has one fixed position span, and equal
spans can never nest.  Listing each grid block as hub first then leaves
extends this to 4 queues on the product: within-block star edges share
the hub, and product edges again fall into three equal-span classes.

Three queues are not the grid's minimum: qn(H_n) = 2 for n >= 3.  One
queue holds at most 2n^2 - 3 edges on n^2 vertices, and in row-major
order a vertical edge (j, j+n) never lies strictly inside a diagonal
(i, i+n+1), nor a diagonal inside a vertical, so those two classes could
share one queue; the layout keeps the three classes apart.
"""

from __future__ import annotations

from .graphs import make_hex_dual, make_star_hex_product
from .layouts import QUEUE, EdgeColoring, Layout, LinearOrder, identity_order

STAR_CLASS = 0
HORIZONTAL_CLASS = 1
VERTICAL_CLASS = 2
DIAGONAL_CLASS = 3


def _step_classes(n: int) -> dict[int, int]:
    """Class of a grid edge (u, v), u < v, by its id step v - u."""
    return {1: HORIZONTAL_CLASS, n: VERTICAL_CLASS, n + 1: DIAGONAL_CLASS}


def hex_queue_layout(n: int) -> Layout:
    """3-queue layout of the dual hex grid under row-major order.  The same
    order needs only 2 queues, vertical and diagonal edges sharing one."""
    g = make_hex_dual(n)
    step = _step_classes(n)
    colors = {(u, v): step[v - u] - 1 for u, v in g.edges}
    return Layout(QUEUE, identity_order(g.vertex_count), EdgeColoring.from_colors(colors))


def product_block_order(a: int, n: int) -> LinearOrder:
    """Grid blocks in row-major order; hub first then leaves inside each."""
    cells = n * n
    return LinearOrder.from_sequence(
        [star_id * cells + grid_id for grid_id in range(cells) for star_id in range(a + 1)]
    )


def product_queue_layout(a: int, n: int) -> Layout:
    """4-queue layout of the star-times-grid product.

    Star copies get colour 0; product edges inherit the class of the grid
    edge they run over (horizontal 1, vertical 2, diagonal 3).  Both are
    read off the id step: a star edge joins copies of one cell, a whole
    number of n^2 grids apart, and a grid edge steps 1, n or n + 1 < n^2.
    """
    g = make_star_hex_product(a, n)
    cells, step = n * n, _step_classes(n)
    colors = {
        (u, v): STAR_CLASS if v - u >= cells else step[v - u] for u, v in g.edges
    }
    return Layout(QUEUE, product_block_order(a, n), EdgeColoring.from_colors(colors))
