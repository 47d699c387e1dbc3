"""Longest monotone subsequences (by layouts' patience piles) and leaf selection.

The selection step repeatedly thins a leaf family so that, at every grid
vertex, the surviving leaves' copies appear strictly monotonically in the
ambient vertex order.  Each thinning keeps at least the square root of
what it was given, so the final family has at least a^(1/2^(n^2-1))
members.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InternalInvariantError, InvalidParameterError
from .graphs import hex_coord
from .layouts import LinearOrder, patience_piles

INCREASING = "increasing"
DECREASING = "decreasing"


def _lis_indices(values: Sequence) -> list[int]:
    # strictly increasing; walking back, the nearest earlier value on the
    # pile below was that pile's tail when the later value was placed
    piles = patience_piles(values)
    want = max(piles, default=-1)
    chain = []
    for i in range(len(values) - 1, -1, -1):
        if piles[i] == want:
            chain.append(i)
            want -= 1
    chain.reverse()
    return chain


def longest_monotone_subsequence(seq: Sequence) -> tuple[str, list[int]]:
    """The longer of the longest strictly increasing and strictly decreasing
    subsequences, as (direction, index list); ties go to increasing.

    Runs in O(len log len); the result always has at least ceil(sqrt(len))
    elements, which is what the iterated selection below relies on.
    """
    values = list(seq)
    if len(set(values)) != len(values):
        raise InvalidParameterError("sequence elements must be pairwise distinct")
    if not values:
        return INCREASING, []
    inc = _lis_indices(values)
    dec = _lis_indices([-x for x in values])
    direction, picked = (INCREASING, inc) if len(inc) >= len(dec) else (DECREASING, dec)
    if len(picked) * len(picked) < len(values):
        raise InternalInvariantError("monotone subsequence shorter than sqrt of input")
    return direction, picked


class LeafFamily(NamedTuple):
    """Leaves u_1..u_b whose copies are consistently ordered at every grid
    vertex, with the per-vertex direction of that ordering."""

    leaves: tuple[int, ...]
    direction: dict


def consistent_leaf_family(order: LinearOrder, a: int, n: int) -> LeafFamily:
    """Thin the a leaves of the star-times-grid product down to a family
    ordered consistently at every grid vertex of the given order.

    Grid vertices are processed in row-major id order.  The family starts
    as all leaves sorted by the position of their copy at the first grid
    vertex, then keeps the longer monotone subsequence of copy positions
    at each further vertex; every step keeps at least the square root of
    the previous size.  The result is presented with its first leaf index
    below its last (reversing flips every recorded direction coherently).
    """
    if a < 1 or n < 1:
        raise InvalidParameterError("a and n must be positive")
    cells = n * n
    if len(order) != (a + 1) * cells:
        raise InvalidParameterError("order must cover the star-times-grid product")
    pos = order.position

    leaves = sorted(range(1, a + 1), key=lambda u: pos[u * cells])
    directions = [INCREASING]
    for grid_id in range(1, cells):
        values = [pos[u * cells + grid_id] for u in leaves]
        direction, picked = longest_monotone_subsequence(values)
        leaves = [leaves[i] for i in picked]
        directions.append(direction)

    if len(leaves) > 1 and leaves[0] > leaves[-1]:
        leaves.reverse()
        directions = [
            DECREASING if d == INCREASING else INCREASING for d in directions
        ]
    direction_by_coord = {
        hex_coord(grid_id, n): directions[grid_id] for grid_id in range(cells)
    }
    return LeafFamily(tuple(leaves), direction_by_coord)
