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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import FrozenSet, Iterable, Optional

from .errors import InternalInvariantError, InvalidParameterError, load_json
from .graphs import GridCoord, hex_coord, hex_vertex_id, make_hex_dual, shortest_path

RED = "R"
BLUE = "B"


@dataclass(frozen=True)
class GridColoring:
    """Total red/blue assignment to the n x n grid; rows are indexed by b."""

    n: int
    rows: tuple  # rows[b-1][a-1] in {"R", "B"}

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("n must be positive")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise InvalidParameterError("colouring must cover the full grid")
        if any(c not in (RED, BLUE) for r in self.rows for c in r):
            raise InvalidParameterError("colours must be 'R' or 'B'")

    def color(self, coord: GridCoord) -> str:
        return self.rows[coord.b - 1][coord.a - 1]

    @staticmethod
    def from_function(n: int, fn) -> "GridColoring":
        rows = tuple(
            tuple(fn(GridCoord(a, b)) for a in range(1, n + 1)) for b in range(1, n + 1)
        )
        return GridColoring(n, rows)


def random_coloring(n: int, rng: Random) -> GridColoring:
    rows = tuple(
        tuple(RED if rng.getrandbits(1) else BLUE for _ in range(n)) for _ in range(n)
    )
    return GridColoring(n, rows)


@dataclass(frozen=True)
class BoundaryStep:
    component: FrozenSet[GridCoord]
    color: str
    far_boundary: Optional[FrozenSet[GridCoord]]


def _side_ids(n: int):
    left = frozenset(hex_vertex_id(GridCoord(1, j), n) for j in range(1, n + 1))
    right = frozenset(hex_vertex_id(GridCoord(n, j), n) for j in range(1, n + 1))
    bottom = frozenset(hex_vertex_id(GridCoord(i, 1), n) for i in range(1, n + 1))
    top = frozenset(hex_vertex_id(GridCoord(i, n), n) for i in range(1, n + 1))
    return left, right, bottom, top


def _component_ids(adjacency, allowed: set[int], start: int) -> set[int]:
    comp = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w in allowed and w not in comp:
                comp.add(w)
                stack.append(w)
    return comp


def _far_boundary_ids(n: int, x_ids: set[int]) -> set[int]:
    grid = make_hex_dual(n)
    adjacency = grid.adjacency
    corner = n * n - 1
    if corner in x_ids:
        raise InvalidParameterError("the set must avoid the [n,n] corner")
    if not x_ids:
        raise InvalidParameterError("the set must be nonempty")
    if _component_ids(adjacency, set(x_ids), next(iter(x_ids))) != x_ids:
        raise InvalidParameterError("the set must induce a connected subgraph")
    complement = set(range(n * n)) - x_ids
    far_side = _component_ids(adjacency, complement, corner)
    boundary = {
        w for v in x_ids for w in adjacency[v] if w in far_side
    }
    # all bounded faces are triangles, which forces the boundary connected
    if boundary and _component_ids(adjacency, set(boundary), next(iter(boundary))) != boundary:
        raise InternalInvariantError("far boundary split into several pieces")
    return boundary


def far_boundary(n: int, x: Iterable[GridCoord]) -> FrozenSet[GridCoord]:
    """Neighbours of the connected set x inside the component of [n,n]
    left after removing x; always induces a connected subgraph."""
    x_ids = {hex_vertex_id(GridCoord(*c), n) for c in x}
    return frozenset(hex_coord(v, n) for v in _far_boundary_ids(n, x_ids))


def _color_ids(coloring: GridColoring) -> bytearray:
    n = coloring.n
    flags = bytearray(n * n)
    for b in range(n):
        row = coloring.rows[b]
        base = b * n
        for a in range(n):
            flags[base + a] = 1 if row[a] == RED else 0
    return flags


def boundary_sequence(coloring: GridColoring) -> list[BoundaryStep]:
    """Alternating monochromatic components from [1,1] up to the first one
    that touches the right or top side; the terminal step has no far
    boundary recorded."""
    n = coloring.n
    grid = make_hex_dual(n)
    adjacency = grid.adjacency
    left, right, bottom, top = _side_ids(n)
    far = right | top
    is_red = _color_ids(coloring)

    def as_coords(ids) -> FrozenSet[GridCoord]:
        return frozenset(hex_coord(v, n) for v in ids)

    steps: list[BoundaryStep] = []
    same_color = {v for v in range(n * n) if is_red[v] == is_red[0]}
    component = _component_ids(adjacency, same_color, 0)
    while True:
        color = RED if is_red[next(iter(component))] else BLUE
        if component & far:
            steps.append(BoundaryStep(as_coords(component), color, None))
            return steps
        boundary = _far_boundary_ids(n, component)
        if not (boundary & left and boundary & bottom):
            raise InternalInvariantError("far boundary misses the left or bottom side")
        steps.append(BoundaryStep(as_coords(component), color, as_coords(boundary)))
        if len(steps) > n * n:
            raise InternalInvariantError("component walk failed to terminate")
        seed = next(iter(boundary))
        if is_red[seed] == (color == RED):
            raise InternalInvariantError("far boundary kept the colour of its component")
        same_color = {v for v in range(n * n) if is_red[v] == is_red[seed]}
        component = _component_ids(adjacency, same_color, seed)
        if not boundary <= component:
            raise InternalInvariantError("far boundary split across components")


def find_monochromatic_path(coloring: GridColoring) -> list[GridCoord]:
    """A path of at least n same-coloured vertices, for any colouring.

    Inside the terminal component the path runs bottom-to-top when that
    component touches the top side (preferred), else left-to-right; among
    candidate endpoints the lexicographically smallest coordinate wins.
    """
    n = coloring.n
    if n == 1:
        return [GridCoord(1, 1)]
    steps = boundary_sequence(coloring)
    terminal = {hex_vertex_id(c, n) for c in steps[-1].component}
    grid = make_hex_dual(n)
    left, right, bottom, top = _side_ids(n)
    if terminal & top:
        sources, targets = terminal & bottom, terminal & top
    else:
        sources, targets = terminal & left, terminal & right
    start = min(sources, key=lambda v: hex_coord(v, n))
    goal = min(targets, key=lambda v: hex_coord(v, n))
    ids = shortest_path(grid, start, goal, restrict=terminal)
    if ids is None or len(ids) < n:
        raise InternalInvariantError("terminal component failed to span the grid")
    return [hex_coord(v, n) for v in ids]


# ---------------------------------------------------------------------------
# JSON form: {"n": 4, "rows": [["R","B",...], ...]} with rows indexed by b

def coloring_to_json_dict(coloring: GridColoring) -> dict:
    return {"n": coloring.n, "rows": [list(r) for r in coloring.rows]}


def coloring_to_json(coloring: GridColoring) -> str:
    return json.dumps(coloring_to_json_dict(coloring), separators=(",", ":"))


def coloring_from_json_dict(doc: dict) -> GridColoring:
    try:
        n = int(doc["n"])
        rows = tuple(tuple(str(c) for c in row) for row in doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed colouring document: {exc}") from exc
    return GridColoring(n, rows)


def coloring_from_json(text: str) -> GridColoring:
    return coloring_from_json_dict(load_json(text))
