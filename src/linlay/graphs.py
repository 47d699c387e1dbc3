"""Graph values and generators: dual hex grids, stars, Cartesian products.

Vertices are dense integer ids so that order/position queries are plain
array lookups; semantic labels (grid coordinates, star parts) ride along.
Graph values are never changed after construction.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional

from .errors import InvalidParameterError, json_int, load_json


class GridCoord(NamedTuple):
    """Coordinate [a, b] on the n x n grid, both components in 1..n."""

    a: int
    b: int


class ProductVertex(NamedTuple):
    """Vertex of a star-times-grid product: hub "t" or leaf index, plus a grid coordinate."""

    star_part: int | str
    grid_part: GridCoord


STAR_ROOT = "t"


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise InvalidParameterError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """A graph is its adjacency rows: row v lists v's neighbours ascending."""

    def __init__(self, kind: str, labels: tuple, adjacency: tuple,
                 hex_n: Optional[int] = None, star_a: Optional[int] = None):
        self.kind, self.labels, self.adjacency = kind, labels, adjacency
        self.hex_n, self.star_a = hex_n, star_a

    def _key(self) -> tuple:
        return self.kind, self.labels, self.adjacency, self.hex_n, self.star_a

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # the rows would swamp it
        return (f"Graph(kind={self.kind!r}, labels={self.labels!r}, "
                f"hex_n={self.hex_n!r}, star_a={self.star_a!r})")

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def edges(self) -> frozenset:
        """The edges (u, v), u < v, as a set, built from the rows on first use."""
        return frozenset((u, w) for u, row in enumerate(self.adjacency) for w in row if u < w)

    def edge_list(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in ascending order."""
        return [(u, w) for u, row in enumerate(self.adjacency) for w in row if u < w]

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _from_edges(kind, labels, pairs, hex_n=None, star_a=None) -> Graph:
    """The graph on ``labels`` whose edges are ``pairs``, each given in
    either orientation; a repeated pair counts once."""
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise InvalidParameterError("vertex labels must be injective")
    rows = [[] for _ in range(n)]
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u},{v}) outside vertex range")
        if u == v:
            raise InvalidParameterError(f"self-loop at vertex {u}")
        rows[u].append(v)
        rows[v].append(u)
    return Graph(kind, labels, tuple(tuple(sorted(set(row))) for row in rows), hex_n, star_a)


def plain_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Simple graph on ids 0..vertex_count-1 with plain integer labels."""
    if vertex_count < 0:
        raise InvalidParameterError("vertex_count must be nonnegative")
    return _from_edges("plain", range(vertex_count), edges)


def hex_vertex_id(coord: GridCoord, n: int) -> int:
    """Row-major id: [a, b] -> (b-1)*n + (a-1)."""
    return (coord.b - 1) * n + (coord.a - 1)


def hex_coord(vid: int, n: int) -> GridCoord:
    return GridCoord(vid % n + 1, vid // n + 1)


@lru_cache(maxsize=None)
def hex_neighbours(n: int) -> tuple[tuple[int, ...], ...]:
    """Ascending neighbour ids of each cell of the dual hex grid on {1..n}^2:
    v-n-1, v-n, v-1, v+1, v+n, v+n+1 in row-major ids, minus those past a side."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    cells = n * n
    table = [(v - n - 1, v - n, v - 1, v + 1, v + n, v + n + 1) for v in range(cells)]
    for v in {*range(n), *range(cells - n, cells), *range(0, cells, n), *range(n - 1, cells, n)}:
        left, right, down, up = v % n > 0, v % n < n - 1, v >= n, v < cells - n
        inside = (down and left, down, left, right, up, up and right)
        table[v] = tuple(w for w, keep in zip(table[v], inside) if keep)
    return tuple(table)


@lru_cache(maxsize=None)
def make_hex_dual(n: int) -> Graph:
    """Dual hexagonal grid on {1..n}^2.

    Edges join unit horizontal and vertical steps plus the (+1,+1)
    diagonal, for 3n^2 - 4n + 1 edges in total.
    """
    table = hex_neighbours(n)
    labels = tuple(hex_coord(v, n) for v in range(n * n))
    return Graph("hex", labels, table, hex_n=n)


@lru_cache(maxsize=None)
def make_star(a: int) -> Graph:
    """Star with one hub (id 0, label "t") and leaves 1..a."""
    if a < 1:
        raise InvalidParameterError("a must be a positive integer")
    labels = [STAR_ROOT] + list(range(1, a + 1))
    return _from_edges("star", labels, [(0, i) for i in range(1, a + 1)], star_a=a)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (x,y) ~ (x',y') iff one coordinate steps along an edge.

    Vertex ids are x * |V(h)| + y.  A star times a hex grid keeps
    structured ProductVertex labels; any other combination falls back to
    a plain graph labelled by (label_x, label_y) pairs.
    """
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise InvalidParameterError("both factors must be nonempty")
    nh = h.vertex_count
    edges = []
    for x in range(g.vertex_count):
        base = x * nh
        for u, v in h.edges:
            edges.append((base + u, base + v))
    for u, v in g.edges:
        for y in range(nh):
            edges.append((u * nh + y, v * nh + y))
    if g.kind == "star" and h.kind == "hex":
        labels = [
            ProductVertex(g.labels[x], h.labels[y])
            for x in range(g.vertex_count)
            for y in range(nh)
        ]
        return _from_edges("product", labels, edges, hex_n=h.hex_n, star_a=g.star_a)
    labels = [
        (g.labels[x], h.labels[y]) for x in range(g.vertex_count) for y in range(nh)
    ]
    return _from_edges("plain", labels, edges)


@lru_cache(maxsize=None)
def make_star_hex_product(a: int, n: int) -> Graph:
    """``cartesian_product(make_star(a), make_hex_dual(n))``, built straight
    from the ids x * n^2 + y, hub copy first: a hub-copy row is the cell's
    grid neighbours then its leaf copies, a leaf-copy row is the hub copy
    then the grid neighbours, so every row comes out ascending."""
    star, grid = make_star(a), make_hex_dual(n)
    cells, table = n * n, grid.adjacency
    size = (a + 1) * cells
    rows = [nbrs + tuple(range(y + cells, size, cells)) for y, nbrs in enumerate(table)]
    for base in range(cells, size, cells):
        rows += [(y, *[base + w for w in nbrs]) for y, nbrs in enumerate(table)]
    labels = tuple(ProductVertex(part, cell) for part in star.labels for cell in grid.labels)
    return Graph("product", labels, tuple(rows), hex_n=n, star_a=a)


def star_hex_product_has_edge(a: int, n: int, u: int, v: int) -> bool:
    """Whether uv is an edge of ``make_star_hex_product(a, n)``, without
    building it: a grid edge inside one star part, or a star edge from the
    hub's copy of a cell to a leaf's copy of the same cell."""
    cells = n * n
    if not 0 <= min(u, v) < max(u, v) < (a + 1) * cells:
        return False
    (x, y), (x2, y2) = divmod(min(u, v), cells), divmod(max(u, v), cells)
    if x == x2:
        return y2 in hex_neighbours(n)[y]
    return y == y2 and x == 0


def connected_components(g: Graph, restrict: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Partition of ``restrict`` (default all vertices) into maximal connected
    pieces of the induced subgraph, ordered by smallest member."""
    if restrict is None:
        allowed = set(range(g.vertex_count))
    else:
        allowed = set(restrict)
        bad = [v for v in allowed if not 0 <= v < g.vertex_count]
        if bad:
            raise InvalidParameterError(f"restrict contains unknown vertices {bad}")
    components = []
    seen = set()
    for start in sorted(allowed):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if w in allowed and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        components.append(frozenset(comp))
    return components


def shortest_path(
    g: Graph, s: int, t: int, restrict: Optional[Iterable[int]] = None
) -> Optional[list[int]]:
    """BFS shortest path from s to t inside the induced subgraph, or None."""
    allowed = set(range(g.vertex_count)) if restrict is None else set(restrict)
    if s not in allowed or t not in allowed:
        raise InvalidParameterError("endpoints must lie inside the restricted set")
    if s == t:
        return [s]
    prev = {s: None}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w in allowed and w not in prev:
                prev[w] = v
                if w == t:
                    path = [t]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
    return None


# ---------------------------------------------------------------------------
# JSON form: {"kind": ..., "n"/"a": ..., "vertices": [{"id", "label"}], "edges": [[u,v],...]}

def graph_to_json(g: Graph) -> str:
    """The JSON form, with no spaces, written in one pass over the ids and
    the ascending edges.  Hex, star and product labels are (named tuples
    of) ints and "t" and print as arrays; a plain graph's tuple labels,
    those of generic products, print as the vertex id."""
    if g.kind == "plain":
        texts = [str(label if isinstance(label, int) else i) for i, label in enumerate(g.labels)]
    else:
        memo = {}  # a product repeats each cell and star part many times

        def text(label) -> str:
            out = memo.get(label)
            if out is None:
                parts = isinstance(label, tuple)
                out = f"[{','.join(map(text, label))}]" if parts else json.dumps(label)
                memo[label] = out
            return out

        texts = map(text, g.labels)
    sizes = "".join(
        f',"{key}":{size}' for key, size in (("n", g.hex_n), ("a", g.star_a)) if size is not None
    )
    vertices = ",".join([f'{{"id":{i},"label":{t}}}' for i, t in enumerate(texts)])
    edges = ",".join([f"[{u},{v}]" for u, v in g.edge_list()])
    return f'{{"kind":{json.dumps(g.kind)}{sizes},"vertices":[{vertices}],"edges":[{edges}]}}'


def _label_from_json(kind, raw):
    if kind == "hex":
        a, b = raw
        return GridCoord(json_int(a), json_int(b))
    if kind == "product":
        part, (a, b) = raw
        part = STAR_ROOT if part == STAR_ROOT else json_int(part)
        return ProductVertex(part, GridCoord(json_int(a), json_int(b)))
    if kind == "star":
        return STAR_ROOT if raw == STAR_ROOT else json_int(raw)
    return json_int(raw)


def graph_from_json(text: str) -> Graph:
    doc = load_json(text)
    try:
        kind = doc["kind"]
        if kind not in ("plain", "hex", "star", "product"):
            raise InvalidParameterError(f"unknown graph kind {kind!r}")
        ids = [json_int(v["id"]) for v in doc["vertices"]]
        labels = [_label_from_json(kind, v["label"]) for v in doc["vertices"]]
        pairs, unordered = doc["edges"], None
        for u, v in pairs:  # one pass checks the types and finds the first u >= v
            if type(u) is not int or type(v) is not int:
                json_int(u), json_int(v)  # raises on the first non-integer
            if u >= v:
                unordered = unordered or [u, v]
        hex_n = json_int(doc["n"]) if kind in ("hex", "product") else None
        star_a = json_int(doc["a"]) if kind in ("star", "product") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed graph document: {exc}") from exc
    if ids != list(range(len(ids))):
        raise InvalidParameterError("vertex ids must be dense and sorted from 0")
    if unordered is not None:
        raise InvalidParameterError(f"edge {unordered} not stored with u < v")
    for name, size in (("n", hex_n), ("a", star_a)):
        if size is not None and size < 1:
            raise InvalidParameterError(f"{name!r} must be a positive integer")
    cells = 1 if hex_n is None else hex_n * hex_n
    copies = 1 if star_a is None else star_a + 1
    if kind != "plain" and cells * copies != len(ids):
        raise InvalidParameterError(f"{len(ids)} vertices do not fit a {kind} graph of that size")
    return _from_edges(kind, labels, pairs, hex_n=hex_n, star_a=star_a)
