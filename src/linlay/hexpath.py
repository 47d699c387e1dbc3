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
only.  The far side of a component is thus the subtree beyond it on the
tree path to the component of [n,n], and the walk is that path, cut at the
first component that touches the right or top side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import FrozenSet, Iterable, Optional

from .errors import InternalInvariantError, InvalidParameterError, json_int, load_json
from .graphs import (GridCoord, connected_components, hex_coord, hex_vertex_id, make_hex_dual,
                     plain_graph, shortest_path)

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
    return GridColoring.from_function(n, lambda c: RED if rng.getrandbits(1) else BLUE)


@dataclass(frozen=True)
class BoundaryStep:
    component: FrozenSet[GridCoord]
    color: str
    far_boundary: Optional[FrozenSet[GridCoord]]


def _side_ids(n: int):
    """Row-major ids of the left, right, bottom and top sides."""
    ids = range(n * n)
    return [frozenset(side) for side in (ids[::n], ids[n - 1::n], ids[:n], ids[-n:])]


def far_boundary(n: int, x: Iterable[GridCoord]) -> FrozenSet[GridCoord]:
    """Neighbours of the connected set x inside the component of [n,n]
    left after removing x; always induces a connected subgraph."""
    grid = make_hex_dual(n)
    try:
        cells = [GridCoord(*c) for c in x]
    except TypeError as exc:
        raise InvalidParameterError(f"every cell must be a coordinate pair: {exc}") from exc
    if not all(type(v) is int and 1 <= v <= n for cell in cells for v in cell):
        raise InvalidParameterError(f"every cell must be an integer pair inside the {n} x {n} grid")
    x_ids = {hex_vertex_id(c, n) for c in cells}
    corner = n * n - 1
    if corner in x_ids:
        raise InvalidParameterError("the set must avoid the [n,n] corner")
    if not x_ids:
        raise InvalidParameterError("the set must be nonempty")
    if len(connected_components(grid, x_ids)) != 1:
        raise InvalidParameterError("the set must induce a connected subgraph")
    rest = connected_components(grid, set(range(n * n)) - x_ids)
    far_side = next(piece for piece in rest if corner in piece)
    boundary = {w for v in x_ids for w in grid.adjacency[v] if w in far_side}
    # all bounded faces are triangles, which forces the boundary connected
    if len(connected_components(grid, boundary)) != 1:
        raise InternalInvariantError("far boundary split into several pieces")
    return frozenset(hex_coord(v, n) for v in boundary)


def _walk(coloring: GridColoring) -> list[tuple[frozenset[int], Optional[frozenset[int]]]]:
    """The component walk on vertex ids: (component, far boundary) per step,
    with no far boundary on the terminal step."""
    n = coloring.n
    grid = make_hex_dual(n)
    red = {v for v in range(n * n) if coloring.rows[v // n][v % n] == RED}
    blue = set(range(n * n)) - red
    components = connected_components(grid, red) + connected_components(grid, blue)
    label = {v: i for i, component in enumerate(components) for v in component}
    links = {(label[u], label[v]) for u, v in grid.edges if label[u] != label[v]}
    tree = plain_graph(len(components), links)
    if len(tree.edges) != len(components) - 1:
        raise InternalInvariantError("monochromatic components do not form a tree")
    left, right, bottom, top = _side_ids(n)
    far = right | top
    route = shortest_path(tree, label[0], label[n * n - 1])
    walk = []
    for here, beyond in zip(route, route[1:]):
        component = components[here]
        if component & far:
            break
        boundary = frozenset(
            w for v in component for w in grid.adjacency[v] if label[w] == beyond
        )
        if not (boundary & left and boundary & bottom):
            raise InternalInvariantError("far boundary misses the left or bottom side")
        # all bounded faces are triangles, which forces the boundary connected
        if len(connected_components(grid, boundary)) != 1:
            raise InternalInvariantError("far boundary split into several pieces")
        walk.append((component, boundary))
    walk.append((components[route[len(walk)]], None))
    return walk


def boundary_sequence(coloring: GridColoring) -> list[BoundaryStep]:
    """Alternating monochromatic components from [1,1] up to the first one
    that touches the right or top side; the terminal step has no far
    boundary recorded."""
    n = coloring.n

    def as_coords(ids) -> FrozenSet[GridCoord]:
        return frozenset(hex_coord(v, n) for v in ids)

    return [
        BoundaryStep(
            as_coords(component),
            coloring.color(hex_coord(next(iter(component)), n)),
            None if boundary is None else as_coords(boundary),
        )
        for component, boundary in _walk(coloring)
    ]


def find_monochromatic_path(coloring: GridColoring) -> list[GridCoord]:
    """A path of at least n same-coloured vertices, for any colouring.

    Inside the terminal component the path runs bottom-to-top when that
    component touches the top side (preferred), else left-to-right; among
    candidate endpoints the lexicographically smallest coordinate wins.
    """
    n = coloring.n
    terminal, _ = _walk(coloring)[-1]
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
        n = json_int(doc["n"])
        rows = tuple(tuple(str(c) for c in row) for row in doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed colouring document: {exc}") from exc
    return GridColoring(n, rows)


def coloring_from_json(text: str) -> GridColoring:
    return coloring_from_json_dict(load_json(text))
