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

from itertools import chain

from .graphs import make_hex_dual, make_star
from .layouts import QUEUE, EdgeColoring, Layout, LinearOrder, identity_order

STAR_CLASS = 0
HORIZONTAL_CLASS = 1
VERTICAL_CLASS = 2
DIAGONAL_CLASS = 3


def _grid_edge_classes(n: int) -> tuple[tuple, list[int]]:
    """The grid's edges (u, v), u < v, in ascending order, and the class
    of each by its id step v - u: 1 horizontal, n vertical, n + 1 diagonal."""
    step = {1: HORIZONTAL_CLASS, n: VERTICAL_CLASS, n + 1: DIAGONAL_CLASS}
    edges = make_hex_dual(n).edges
    return edges, [step[v - u] for u, v in edges]


def hex_queue_layout(n: int) -> Layout:
    """3-queue layout of the dual hex grid under row-major order.  The same
    order needs only 2 queues, vertical and diagonal edges sharing one."""
    edges, classes = _grid_edge_classes(n)
    colors = dict(zip(edges, [c - HORIZONTAL_CLASS for c in classes]))
    return Layout(QUEUE, identity_order(n * n), EdgeColoring.from_colors(colors))


def product_block_order(a: int, n: int) -> LinearOrder:
    """Grid blocks in row-major order; hub first then leaves inside each.
    Vertex x * n^2 + y, the copy of cell y in star part x, sits at
    y * (a + 1) + x, so both tuples are runs of ranges."""
    cells, copies = n * n, a + 1
    size = copies * cells
    sequence = tuple(chain.from_iterable(range(y, size, cells) for y in range(cells)))
    position = tuple(chain.from_iterable(range(x, size, copies) for x in range(copies)))
    return LinearOrder(sequence, position)


def product_queue_layout(a: int, n: int) -> Layout:
    """4-queue layout of the star-times-grid product.

    Star copies get colour 0; product edges inherit the class of the grid
    edge they run over (horizontal 1, vertical 2, diagonal 3).  The
    colouring is built copy by copy in edge order without the product
    graph: the hub copy holds the grid's edges and, from each cell y, the
    star edges (y, y + x * n^2) to its leaf copies; leaf copy x repeats the
    grid's edges shifted by x * n^2.  Every product edge is one of these.
    """
    make_star(a)  # refuses a < 1 before n is checked, as the product does
    edges, classes = _grid_edge_classes(n)
    cells = n * n
    size = (a + 1) * cells
    star = [(y, v) for y in range(cells) for v in range(y + cells, size, cells)]
    colors = dict.fromkeys(sorted(chain(edges, star)), STAR_CLASS)  # the hub copy
    colors.update(zip(edges, classes))
    for base in range(cells, size, cells):
        colors.update(zip([(base + u, base + v) for u, v in edges], classes))
    k = 1 + max(classes, default=STAR_CLASS)  # a star edge is always there
    return Layout(QUEUE, product_block_order(a, n), EdgeColoring(colors, k))
