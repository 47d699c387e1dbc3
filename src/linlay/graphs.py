"""Graph values and generators: dual hex grids, stars and their products.

Vertices are dense integer ids so that order/position queries are plain
array lookups; semantic labels (grid coordinates, star parts) ride along.
Graph values are never changed after construction.
"""

from __future__ import annotations

import json
import re
from functools import cached_property, lru_cache, partial
from itertools import chain, product, repeat
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
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v), u < v, in ascending order, read off the rows on first use."""
        return tuple([(u, w) for u, row in enumerate(self.adjacency) for w in row if u < w])

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
    table = list(zip(range(-n - 1, cells - n - 1), range(-n, cells - n), range(-1, cells - 1),
                     range(1, cells + 1), range(n, cells + n), range(n + 1, cells + n + 1)))
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
    labels = tuple([GridCoord(a, b) for b in range(1, n + 1) for a in range(1, n + 1)])
    return Graph("hex", labels, table, hex_n=n)


@lru_cache(maxsize=None)
def make_star(a: int) -> Graph:
    """Star with one hub (id 0, label "t") and leaves 1..a."""
    if a < 1:
        raise InvalidParameterError("a must be a positive integer")
    labels = [STAR_ROOT] + list(range(1, a + 1))
    return _from_edges("star", labels, [(0, i) for i in range(1, a + 1)], star_a=a)


@lru_cache(maxsize=None)
def make_star_hex_product(a: int, n: int) -> Graph:
    """The Cartesian product of ``make_star(a)`` and ``make_hex_dual(n)``,
    built straight from the ids x * n^2 + y, hub copy first: a hub-copy row
    is the cell's grid neighbours then its leaf copies, a leaf-copy row is
    the hub copy then the grid neighbours, so every row comes out ascending.
    The leaf-copy rows of cell y in all a copies are zipped at once from
    one range per grid neighbour, and the labels are made by tuple.__new__
    straight from the pairs of star and grid labels."""
    star, grid = make_star(a), make_hex_dual(n)
    cells, table = n * n, grid.adjacency
    size = (a + 1) * cells
    rows = [nbrs + tuple(range(y + cells, size, cells)) for y, nbrs in enumerate(table)]
    copies_of_cell = [zip(repeat(y, a), *[range(cells + w, size, cells) for w in nbrs])
                      for y, nbrs in enumerate(table)]
    rows += chain.from_iterable(zip(*copies_of_cell))  # copy by copy, cell by cell
    labels = tuple(map(partial(tuple.__new__, ProductVertex), product(star.labels, grid.labels)))
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


def reach(start, nbrs, inside) -> dict:
    """The breadth-first parent of each vertex reached from ``start``
    through members of ``inside`` (``start`` itself maps to None),
    scanning each vertex's neighbours in their listed order."""
    parent = {start: None}
    queue = [start]
    for v in queue:  # grows while it is read
        for w in nbrs[v]:
            if w in inside and w not in parent:
                parent[w] = v
                queue.append(w)
    return parent


def climb(parent: dict | list, v) -> list:
    """``v``, its parent in ``parent`` (a dict from ``reach``, or a list by
    vertex), that one's parent and so on up to the start, whose parent is None."""
    path = [v]
    while (v := parent[v]) is not None:
        path.append(v)
    return path


def shortest_path(
    g: Graph, s: int, t: int, restrict: Optional[Iterable[int]] = None
) -> Optional[list[int]]:
    """BFS shortest path from s to t inside the induced subgraph, or None."""
    if not (0 <= s < g.vertex_count and 0 <= t < g.vertex_count):
        raise InvalidParameterError(f"endpoints must be vertices 0..{g.vertex_count - 1}")
    inside = range(g.vertex_count) if restrict is None else set(restrict)
    if s not in inside or t not in inside:
        raise InvalidParameterError("endpoints must lie inside the restricted set")
    parent = reach(s, g.adjacency, inside)
    return climb(parent, t)[::-1] if t in parent else None


# ---------------------------------------------------------------------------
# JSON form: {"kind": ..., "n"/"a": ..., "vertices": [{"id", "label"}], "edges": [[u,v],...]}

# items (vertices, adjacency rows, violations) per run of a document written
# or read in pieces
_CHUNK = 2048


class PairTexts(dict):
    """The text of each value met so far, made once: a pair (a grid
    coordinate, an edge) as [a,b], as JSON and DOT both print it, and any
    other value (a star part) by ``other``."""

    def __init__(self, other=str):
        super().__init__()
        self.other = other

    def __missing__(self, key):
        text = self[key] = f"[{key[0]},{key[1]}]" if isinstance(key, tuple) else self.other(key)
        return text


def blocks(items):
    """(index of the first, run) for each run of at most _CHUNK items."""
    return ((lo, items[lo:lo + _CHUNK]) for lo in range(0, len(items), _CHUNK))


def _json_pieces(g: Graph):
    """graph_to_json's text, in order: the header, then the vertices and
    the edges (u, w), u < w, in pieces of at most _CHUNK vertices or
    adjacency rows.  A grid cell's label prints as [a,b], a star part as
    "t" or its index and a product vertex's as [part,[a,b]], each text made
    once; a plain graph's labels print as themselves if ints, else as the
    vertex id.  Each id is formatted once, and a product vertex is written
    by one f-string."""
    sizes = "".join(
        f',"{key}":{size}' for key, size in (("n", g.hex_n), ("a", g.star_a)) if size is not None
    )
    yield f'{{"kind":{json.dumps(g.kind)}{sizes},"vertices":['
    texts, ids = PairTexts(json.dumps), list(map(str, range(len(g.adjacency))))  # made once
    for lo, labels in blocks(g.labels):
        run = zip(ids[lo:lo + len(labels)], labels)
        if g.kind == "product":
            vertices = [f'{{"id":{i},"label":[{texts[part]},{texts[cell]}]}}'
                        for i, (part, cell) in run]
        elif g.kind == "plain":
            vertices = [f'{{"id":{i},"label":{x if isinstance(x, int) else i}}}' for i, x in run]
        else:
            vertices = [f'{{"id":{i},"label":{texts[x]}}}' for i, x in run]
        vertices = ",".join(vertices)
        yield f",{vertices}" if lo else vertices
    yield '],"edges":['
    sep = ""
    for lo, rows in blocks(g.adjacency):
        later = ",".join([f"[{ids[u]},{ids[w]}]" for u, row in enumerate(rows, lo)
                          for w in row if u < w])
        if later:
            yield sep + later
            sep = ","
    yield "]}"


def graph_to_json(g: Graph) -> str:
    """The JSON form, with no spaces, written in one pass over the ids and
    the ascending edges."""
    return "".join(_json_pieces(g))


# the header graph_to_json writes for a hex grid or a product
_CANONICAL_HEADER = re.compile(
    r'\{"kind":"(hex|product)","n":([1-9][0-9]{0,8})(?:,"a":([1-9][0-9]{0,8}))?,"vertices":\['
)
_MIN_VERTEX_BYTES = 20  # graph_to_json spends more on a hex or product vertex


def matches_pieces(text: str, pieces, pos: int = 0) -> bool:
    """Whether ``text`` from ``pos`` on is the pieces joined, each compared in
    place as it is made, then at most one newline."""
    for piece in pieces:
        if not text.startswith(piece, pos):
            return False
        pos += len(piece)
    return text[pos:] in ("", "\n")


def _canonical_graph(text: str) -> Optional[Graph]:
    """The hex grid or product whose graph_to_json text is ``text``, at most
    one newline after it, built from the header's sizes (unless the text
    could not hold that graph) and checked by ``matches_pieces`` against
    the writer's own pieces; else None."""
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return None
    kind, n, a = header.groups()
    n, copies = int(n), 1 if a is None else int(a) + 1
    if (kind == "product") != (a is not None) or len(text) < _MIN_VERTEX_BYTES * copies * n * n:
        return None
    g = make_hex_dual(n) if a is None else make_star_hex_product(copies - 1, n)
    return g if matches_pieces(text, _json_pieces(g)) else None


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
    """The graph a JSON document describes.  By the round trip, a document
    in graph_to_json's form is the graph its header's sizes build."""
    canonical = _canonical_graph(text)
    if canonical is not None:
        return canonical
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
