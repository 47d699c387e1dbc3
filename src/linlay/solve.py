"""Exact stack and queue numbers of small graphs by order enumeration.

Crossing is invariant under rotating and reversing a vertex order, so the
stack solver fixes vertex 0 in front and drops mirrored orders; nesting
survives only reversal, so the queue solver halves the search space once.
Orders are scanned in lexicographic order and the best count is replaced
only by a strictly smaller one, so the layout returned is the first
optimal order with the colouring the per-order solver gives it.  The
budget is ``max_vertices`` and ``max_orders``; it allows at least one
order, and the first order scanned is the identity, so every scan ends
with a layout; an edgeless graph ends there with k = 0.

The scan stops as soon as the best count reaches the edge-density floor:
a k-stack graph on n >= 3 vertices has at most n + k(n - 3) edges (Bernhart
and Kainen), and a k-queue graph on n >= 2k vertices at most
2kn - k(2k + 1) (Heath and Rosenberg for k = 1, Dujmovic and Wood in
general).
"""

from __future__ import annotations

from itertools import islice, permutations
from typing import NamedTuple, Optional

from .errors import InternalInvariantError, InvalidParameterError, ResourceLimitError
from .graphs import Graph
from .layouts import (
    QUEUE,
    STACK,
    Layout,
    LinearOrder,
    min_queue_colors_for_order,
    min_stack_colors_for_order,
    verify_layout,
)


class SolveResult(NamedTuple):
    k: int
    layout: Layout
    exact: bool
    orders_scanned: int
    lower_bound: int


def density_floor(kind: str, n: int, m: int) -> int:
    """The fewest stacks or queues that m edges on n vertices allow."""
    if m == 0:
        return 0
    k = 1
    if kind == STACK:
        while n > 3 and n + k * (n - 3) < m:
            k += 1
    else:
        while 2 * k <= n and 2 * k * n - k * (2 * k + 1) < m:
            k += 1
    return k


def _orders(n: int, kind: str):
    """Vertex orders up to symmetry, in lexicographic order: stack orders
    pin vertex 0 first, and both kinds keep the first free vertex below the
    last."""
    head = (0,) if kind == STACK and n else ()
    for rest in permutations(range(len(head), n)):
        if len(rest) < 2 or rest[0] < rest[-1]:
            yield head + rest


def _solve(g: Graph, kind: str, max_vertices: int, max_orders: Optional[int]) -> SolveResult:
    if max_orders is not None and max_orders < 1:
        raise InvalidParameterError("max_orders must be a positive integer")
    floor = density_floor(kind, g.vertex_count, len(g.edges))
    if g.vertex_count > max_vertices:
        raise ResourceLimitError(
            f"{g.vertex_count} vertices exceed the budget of {max_vertices}",
            lower=floor,
            upper=len(g.edges),
        )
    best_k: Optional[int] = None
    best_layout: Optional[Layout] = None
    orders = _orders(g.vertex_count, kind)
    for scanned, seq in enumerate(islice(orders, max_orders), 1):
        order = LinearOrder.from_sequence(seq)
        if kind == STACK:
            k, coloring = min_stack_colors_for_order(
                g, order, max_edges=len(g.edges), _cutoff=best_k
            )
        else:
            k, coloring = min_queue_colors_for_order(g, order)
        if k is not None and (best_k is None or k < best_k):
            best_k = k
            best_layout = Layout(kind, order, coloring)
            if best_k <= floor:
                break
    exact = best_k <= floor or next(orders, None) is None

    if not verify_layout(g, best_layout).valid:
        raise InternalInvariantError("solver produced an invalid layout")
    return SolveResult(best_k, best_layout, exact, scanned, best_k if exact else floor)


def stack_number(g: Graph, *, max_vertices: int = 9,
                 max_orders: Optional[int] = None) -> SolveResult:
    """Exact sn(g) with an optimal layout (first found in lexicographic
    order scan), for at most max_vertices vertices and max_orders orders."""
    return _solve(g, STACK, max_vertices, max_orders)


def queue_number(g: Graph, *, max_vertices: int = 9,
                 max_orders: Optional[int] = None) -> SolveResult:
    """Exact qn(g) with an optimal layout, within the same budget."""
    return _solve(g, QUEUE, max_vertices, max_orders)
