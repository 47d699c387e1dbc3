"""Monochromatic paths in two-coloured dual hexagonal grids.

Any red/blue colouring of the n x n grid admits a single-colour path on at
least n vertices.  The constructive argument walks a sequence of
monochromatic components from the [1,1] corner: each component's "far
boundary" (its neighbours inside the [n,n]-side of the remaining grid) is
connected and single-coloured, so it seeds the next component, alternating
colours until some component touches the right or top side.  That final
component stretches from the bottom to the top (or left to right), and a
shortest path across it cannot skip a row (or column), so it has at least
n vertices.

The monochromatic components are labelled once per colouring, and those
that touch form a tree: the neighbours of a component inside one piece of
its complement are connected (every bounded face is a triangle) and of the
other colour, so each piece meets the component through one component
only.  The row-major scan records each component's parent, the one earlier
component it touches.  The far side of a component is the subtree beyond it
on the parent chain from the component of [n,n] back to that of [1,1]; the
walk is that chain, cut at the first component that touches the right or
top side.  ``graphs.reach`` checks each far boundary and gives the path.
"""

from __future__ import annotations

from functools import cached_property
from random import Random
from typing import FrozenSet, NamedTuple, Optional

from .errors import InternalInvariantError, InvalidParameterError, json_int, load_json
from .graphs import GridCoord, climb, hex_coord, hex_neighbours, make_hex_dual, reach

RED = "R"
BLUE = "B"


class GridColoring:
    """Total red/blue assignment to the n x n grid; rows are indexed by b."""

    def __init__(self, n: int, rows: tuple):  # rows[b-1][a-1] in {"R", "B"}
        if n < 1:
            raise InvalidParameterError("n must be positive")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidParameterError("colouring must cover the full grid")
        if sum(r.count(RED) + r.count(BLUE) for r in rows) != n * n:
            raise InvalidParameterError("colours must be 'R' or 'B'")
        self.n, self.rows = n, rows

    def __eq__(self, other):
        return isinstance(other, GridColoring) and (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def color(self, coord: GridCoord) -> str:
        if not (0 < coord.a <= self.n and 0 < coord.b <= self.n):
            raise InvalidParameterError(f"{coord} lies outside the {self.n} x {self.n} grid")
        return self.rows[coord.b - 1][coord.a - 1]

    @cached_property
    def _shared_walk(self):
        """The component walk ``_walk(self)``, made once for both
        ``boundary_sequence`` and ``find_monochromatic_path``."""
        return _walk(self)

    @staticmethod
    def from_function(n: int, fn) -> "GridColoring":
        rows = tuple(
            tuple(fn(GridCoord(a, b)) for a in range(1, n + 1)) for b in range(1, n + 1)
        )
        return GridColoring(n, rows)


def random_coloring(n: int, rng: Random) -> GridColoring:
    return GridColoring.from_function(n, lambda c: RED if rng.getrandbits(1) else BLUE)


class BoundaryStep(NamedTuple):
    component: FrozenSet[GridCoord]
    color: str
    far_boundary: Optional[FrozenSet[GridCoord]]


def _label(nbrs, key) -> tuple[list[int], list[list[int]], list[Optional[int]]]:
    """Maximal connected pieces of equal-``key`` cells by one row-major scan:
    each cell's piece number, each piece's cells in breadth-first order and
    each piece's parent, the one earlier piece it touches (None for piece 0)."""
    label = [-1] * len(key)
    pieces, parent = [], []
    for s in range(len(key)):
        if label[s] < 0:
            here, piece, k = key[s], [s], len(pieces)
            label[s] = k
            met = set()
            for v in piece:  # grows while it is read
                for w in nbrs[v]:
                    p = label[w]
                    if p < 0:
                        if key[w] == here:
                            label[w] = k
                            piece.append(w)
                    elif p != k:
                        met.add(p)
            if len(met) != (k > 0):  # one earlier piece each, none for piece 0
                raise InternalInvariantError("monochromatic components do not form a tree")
            parent.append(met.pop() if met else None)
            pieces.append(piece)
    return label, pieces, parent


def _walk(coloring: GridColoring) -> list[tuple[list[int], Optional[frozenset]]]:
    """The component walk on row-major ids: (component, far boundary) per
    step, with no far boundary on the terminal step."""
    n = coloring.n
    nbrs = hex_neighbours(n)
    label, components, parent = _label(nbrs, [c for row in coloring.rows for c in row])
    # the tree path from the component of [1,1] to that of [n,n]
    route = climb(parent, label[-1])[::-1]
    walk = []
    for here, beyond in zip(route, route[1:]):
        component = components[here]
        if any(v % n == n - 1 or v >= n * n - n for v in component):  # right or top side
            break
        boundary = frozenset(w for v in component for w in nbrs[v] if label[w] == beyond)
        if not (any(w % n == 0 for w in boundary) and any(w < n for w in boundary)):
            raise InternalInvariantError("far boundary misses the left or bottom side")
        # all bounded faces are triangles, which forces the boundary connected
        if len(reach(next(iter(boundary)), nbrs, boundary)) != len(boundary):
            raise InternalInvariantError("far boundary split into several pieces")
        walk.append((component, boundary))
    walk.append((components[route[len(walk)]], None))
    return walk


def boundary_sequence(coloring: GridColoring) -> list[BoundaryStep]:
    """Alternating monochromatic components from [1,1] up to the first one
    that touches the right or top side; the terminal step has no far
    boundary recorded."""
    n, coords = coloring.n, make_hex_dual(coloring.n).labels

    def as_coords(ids) -> FrozenSet[GridCoord]:
        return frozenset(map(coords.__getitem__, ids))

    return [
        BoundaryStep(
            as_coords(component),
            coloring.rows[component[0] // n][component[0] % n],
            None if boundary is None else as_coords(boundary),
        )
        for component, boundary in coloring._shared_walk
    ]


def find_monochromatic_path(coloring: GridColoring) -> list[GridCoord]:
    """A path of at least n same-coloured vertices, for any colouring.

    Inside the terminal component the path runs bottom-to-top when that
    component touches the top side (preferred), else left-to-right; among
    candidate endpoints the lexicographically smallest coordinate wins.
    The path is read back by ``graphs.climb`` from the package's one
    breadth-first search, ``graphs.reach``, through the terminal
    component's cells in ascending neighbour order: the path that
    ``graphs.shortest_path`` gives on the grid restricted to that component.
    """
    n = coloring.n
    terminal = coloring._shared_walk[-1][0]
    # on one side of the grid, the smallest id is the smallest coordinate
    if any(v >= n * n - n for v in terminal):
        start = min(v for v in terminal if v < n)
        goal = min(v for v in terminal if v >= n * n - n)
    else:
        start = min(v for v in terminal if v % n == 0)
        goal = min(v for v in terminal if v % n == n - 1)
    parent = reach(start, hex_neighbours(n), set(terminal))
    ids = climb(parent, goal) if goal in parent else []
    if len(ids) < n:
        raise InternalInvariantError("terminal component failed to span the grid")
    return [hex_coord(v, n) for v in reversed(ids)]


# ---------------------------------------------------------------------------
# JSON form: {"n": 4, "rows": [["R","B",...], ...]} with rows indexed by b

def coloring_to_json_dict(coloring: GridColoring) -> dict:
    return {"n": coloring.n, "rows": [list(r) for r in coloring.rows]}


def coloring_from_json(text: str) -> GridColoring:
    doc = load_json(text)
    try:
        n, rows = json_int(doc["n"]), doc["rows"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed colouring document: {exc}") from exc
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise InvalidParameterError("colouring rows must be lists of 'R' and 'B'")
    return GridColoring(n, tuple(map(tuple, rows)))
