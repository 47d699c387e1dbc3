"""Linear orders, crossing/nesting predicates, and per-order optima.

A k-stack layout forbids two same-colour edges from crossing; a k-queue
layout forbids them from nesting.  Both are questions about edge spans,
the (left, right) positions of an edge's ends: ``spans`` computes them,
``spans_cross`` / ``spans_nest`` answer them for one pair, and one sorted
listing gives each span the spans that cross or nest it from inside.  For
a fixed order the queue minimum is the largest rainbow (chain of pairwise
nested edges), by ``patience_piles``; the stack minimum is the chromatic
number of the listed crossing-conflict graph, by one iterative DSATUR
branch and bound that starts with the greedy colouring and stops at the
largest crossing set, read off the same listing.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, combinations, islice
from operator import gt
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InvalidParameterError, ResourceLimitError, json_int, load_json
from .graphs import Graph, blocks, matches_pieces, normalize_edge

STACK = "stack"
QUEUE = "queue"

DEFAULT_STACK_EDGE_LIMIT = 64


class LinearOrder:
    """Vertices in ``sequence`` order, ``position[v]`` the index of v; equal by sequence."""

    __slots__ = ("sequence", "position")

    def __init__(self, sequence: tuple[int, ...], position: tuple[int, ...]):
        self.sequence, self.position = sequence, position

    def __eq__(self, other):
        return isinstance(other, LinearOrder) and self.sequence == other.sequence

    def __hash__(self) -> int:
        return hash(self.sequence)

    @staticmethod
    def from_sequence(seq: Sequence[int]) -> "LinearOrder":
        seq = tuple(map(json_int, seq))
        n = len(seq)
        position = [-1] * n
        for idx, v in enumerate(seq):
            if not 0 <= v < n or position[v] != -1:
                raise InvalidParameterError("sequence must be a permutation of 0..n-1")
            position[v] = idx
        # seq[position[i]] == i: the positions reuse the sequence's int objects
        return LinearOrder(seq, tuple(map(seq.__getitem__, map(position.__getitem__, position))))

    def __len__(self) -> int:
        return len(self.sequence)


def identity_order(n: int) -> LinearOrder:
    seq = tuple(range(n))
    return LinearOrder(seq, seq)


def spans(order: LinearOrder, edges: Iterable) -> list[tuple[int, int]]:
    """The (left, right) positions of each edge's ends under the order."""
    pos = order.position
    out = []
    for u, v in edges:
        a, b = pos[u], pos[v]
        out.append((a, b) if a < b else (b, a))
    return out


def patience_piles(values: Sequence) -> list[int]:
    """Pile of each value: one less than the length of the longest strictly
    increasing subsequence that ends there.  O(len log len)."""
    tails: list = []  # smallest tail value per pile
    piles = []
    for x in values:
        j = bisect_left(tails, x)
        if j == len(tails):
            tails.append(x)
        else:
            tails[j] = x
        piles.append(j)
    return piles


def spans_cross(s: tuple[int, int], t: tuple[int, int]) -> bool:
    """True iff the two spans strictly interleave."""
    a1, b1 = s
    a2, b2 = t
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def spans_nest(s: tuple[int, int], t: tuple[int, int]) -> bool:
    """True iff one span strictly contains the other."""
    a1, b1 = s
    a2, b2 = t
    return (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)


def _checked_spans(order: LinearOrder, edges) -> list[tuple[int, int]]:
    edges = list(edges)
    for v in chain.from_iterable(edges):
        if not 0 <= v < len(order):
            raise InvalidParameterError(f"vertex {v} outside the order's domain")
    if len({normalize_edge(*e) for e in edges}) < len(edges):
        raise InvalidParameterError("predicates need two distinct edges")
    return spans(order, edges)


def crosses(order: LinearOrder, e, f) -> bool:
    """True iff the endpoint positions strictly interleave."""
    return spans_cross(*_checked_spans(order, (e, f)))


def nests(order: LinearOrder, e, f) -> bool:
    """True iff one edge's positions strictly contain the other's."""
    return spans_nest(*_checked_spans(order, (e, f)))


def _overlapping_pairs(span_list: list, crossing: bool) -> list[list[int]]:
    """For each span, the indices of the spans that start strictly inside it
    and end beyond it (they cross), or inside it if not ``crossing`` (they
    nest), in (left, -right) order.  One sort, then bisection on the left
    ends; each pair is listed once, under the span that starts first."""
    by_left = sorted([(a, -b, b, i) for i, (a, b) in enumerate(span_list)])
    lefts = [a for a, _, _, _ in by_left]
    partners = []
    for a, b in span_list:
        inside = by_left[bisect_right(lefts, a):bisect_left(lefts, b)]
        partners.append([j for _, _, r, j in inside if r > b] if crossing else
                        [j for _, _, r, j in inside if r < b])
    return partners


def largest_crossing(span_list: Sequence[tuple[int, int]], crossings: list) -> int:
    """Size of the largest pairwise-crossing subset of the spans, from their
    ``_overlapping_pairs`` crossings: sorted by left end, such a set is its
    first span and spans crossing it from inside with strictly increasing
    right ends, a patience-pile run in the first span's list (equal left
    ends have descending right ends there, so they never chain).  The
    maximum clique of the circle graph the spans define (Gavril)."""
    best = min(1, len(span_list))
    for js in crossings:
        if len(js) >= best:  # the span and its partners could beat best
            best = max(best, 2 + max(patience_piles([span_list[j][1] for j in js])))
    return best


def is_pairwise_crossing(order: LinearOrder, edges: Iterable) -> bool:
    """Every unordered pair crosses; vacuously true below two edges.  An id
    outside the order or a repeated edge anywhere in ``edges`` raises
    InvalidParameterError first, as it does in ``crosses``."""
    return all(spans_cross(s, t) for s, t in combinations(_checked_spans(order, edges), 2))


class EdgeColoring(NamedTuple):
    colors: dict
    k: int

    @staticmethod
    def from_colors(colors: dict) -> "EdgeColoring":
        k = 1 + max(colors.values()) if colors else 0
        return EdgeColoring(dict(colors), k)


class Layout(NamedTuple):
    kind: str
    order: LinearOrder
    coloring: EdgeColoring


class VerifyReport(NamedTuple):
    valid: bool
    violations: list


def _has_crossing(span_list: list) -> bool:
    # in (left, -right) order the open right ends form a stack, nearest on
    # top; once those up to the left end close, a top end inside crosses
    ends: list[int] = []
    for a, b in sorted(span_list, key=lambda s: (s[0], -s[1])):
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and ends[-1] < b:
            return True
        ends.append(b)
    return False


def _has_nesting(span_list: list) -> bool:
    # in (left, right) order a span nests inside an earlier one iff some
    # right end is smaller than the one before it
    ends = [b for _, b in sorted(span_list)]
    return any(map(gt, ends, islice(ends, 1, None)))


def _sweep(kind: str, order: LinearOrder, edges: Sequence, classes: Iterable) -> VerifyReport:
    """The report on colour classes, lists of ascending edges taken from the
    ascending ``edges``; only a class that crosses (stack) or nests (queue)
    has its pairs listed, pair (i, j) of indices into ``edges`` as the
    integer i * m + j, so one integer sort puts the pairs in order."""
    m = len(edges)
    keys = []
    for members in classes:
        span_list = spans(order, members)
        if _has_crossing(span_list) if kind == STACK else _has_nesting(span_list):
            at = [bisect_left(edges, e) for e in members]
            partners = _overlapping_pairs(span_list, kind == STACK)
            keys += [x * m + y if x < y else y * m + x
                     for x, js in zip(at, partners) if js for y in map(at.__getitem__, js)]
    keys.sort()
    return VerifyReport(not keys, [(edges[k // m], edges[k % m]) for k in keys])


def verify_layout(g: Graph, layout: Layout) -> VerifyReport:
    """Check a layout: no same-colour pair crosses (stack) / nests (queue).

    All offending pairs are listed, not just the first.  The colouring must
    be keyed by exactly the graph's edges, each as (u, v) with u < v.
    """
    if layout.kind not in (STACK, QUEUE):
        raise InvalidParameterError(f"unknown layout kind {layout.kind!r}")
    order = layout.order
    if len(order) != g.vertex_count:
        raise InvalidParameterError("order must cover the graph's vertices exactly")
    colors = layout.coloring.colors
    edges = g.edges
    # distinct keys, as many as edges and every edge among them: the edge set
    if len(colors) != len(edges) or not all(e in colors for e in edges):
        raise InvalidParameterError("colouring must be total on the edge set")
    classes: dict[int, list] = {}
    for e in edges:
        classes.setdefault(colors[e], []).append(e)
    return _sweep(layout.kind, order, edges, classes.values())


# ---------------------------------------------------------------------------
# per-order minima

def _exact_coloring(adj, lower: int, best_k: int) -> Optional[list[int]]:
    """A fewest-colour colouring of a conflict graph that uses fewer than
    ``best_k`` colours, or None if there is none.

    DSATUR branch and bound: each step colours the uncoloured vertex with
    the most distinct neighbour colours (then the highest degree, then the
    lowest id) and tries its free colours in increasing order, so the first
    descent is the DSATUR greedy colouring.  Only strictly better colourings
    replace the best, and the search ends once the clique size ``lower`` is
    reached.  The choices are kept on an explicit stack of frames
    (vertex, colours used before it, neighbours its colour saturated).
    Vertices without conflicts come last under that order and take colour
    0 (free, as ``1 <= lower < best_k`` once there is a vertex) without
    changing the count, so they are coloured up front and not searched.
    """
    m = len(adj)
    colors = [-1 if adj[u] else 0 for u in range(m)]
    conflicting = [u for u in range(m) if adj[u]]
    saturation = [set() for _ in range(m)]
    best = None
    frames: list[tuple[int, int, list[int]]] = []
    used = 0
    while True:
        v = min((u for u in conflicting if colors[u] == -1), default=-1,
                key=lambda u: (-len(saturation[u]), -len(adj[u]), u))
        if v == -1:
            # strictly better: every colour assigned kept used below best_k
            best_k, best = used, list(colors)
            if best_k <= lower:
                return best
        else:
            frames.append((v, used, []))
        # give the top frame's vertex its next admissible colour, popping
        # the frames that have none left
        while frames:
            v, used, touched = frames[-1]
            c = colors[v] + 1
            if colors[v] != -1:
                for w in touched:
                    saturation[w].discard(colors[v])
                touched.clear()
                colors[v] = -1
            # colours 0..used (at most one new), none reaching best_k
            top = min(used + 1, best_k - 1) if used < best_k else 0
            while c < top and c in saturation[v]:
                c += 1
            if c < top:
                colors[v] = c
                for w in adj[v]:
                    if colors[w] == -1 and c not in saturation[w]:
                        saturation[w].add(c)
                        touched.append(w)
                used = max(used, c + 1)
                break
            frames.pop()
        else:
            return best


def min_stack_colors_for_order(
    g: Graph,
    order: LinearOrder,
    max_edges: int = DEFAULT_STACK_EDGE_LIMIT,
    _cutoff: Optional[int] = None,
):
    """Exact minimum number of stacks for a fixed order, with a witness.

    The crossing-conflict graph is coloured exactly; the instance size is
    gated by ``max_edges`` because the problem is NP-hard in general.  With
    a cutoff, only layouts with fewer than ``_cutoff`` stacks are of
    interest, and (None, None) signals that none exists.
    """
    if len(order) != g.vertex_count:
        raise InvalidParameterError("order must cover the graph's vertices")
    edges = g.edges
    if len(edges) > max_edges:
        raise ResourceLimitError(
            f"{len(edges)} edges exceed the stack-colouring limit of {max_edges}",
            lower=1 if edges else 0,
            upper=len(edges),
        )
    span_list = spans(order, edges)
    crossings = _overlapping_pairs(span_list, crossing=True)
    lower = largest_crossing(span_list, crossings)
    best_k = len(edges) + 1 if _cutoff is None else _cutoff
    if lower >= best_k:
        return None, None
    adj = [list(js) for js in crossings]  # the crossing-conflict graph
    for i, js in enumerate(crossings):
        for j in js:
            adj[j].append(i)
    colors = _exact_coloring(adj, lower, best_k)
    if colors is None:
        return None, None
    coloring = EdgeColoring.from_colors({e: colors[i] for i, e in enumerate(edges)})
    return coloring.k, coloring


def min_queue_colors_for_order(g: Graph, order: LinearOrder):
    """Exact minimum number of queues for a fixed order, with a witness.

    Equals the largest rainbow, a chain of pairwise nested edges (Heath and
    Rosenberg): colouring each edge by its rainbow pile makes every class
    nesting-free.  O(m log m).
    """
    if len(order) != g.vertex_count:
        raise InvalidParameterError("order must cover the graph's vertices")
    edges = g.edges
    span_list = spans(order, edges)
    # in (left, right) order, an edge's patience pile on negated right ends
    # is the longest rainbow strictly around it; equal left ends keep their
    # right ends ascending, so they never pile on one another
    by_span = sorted(range(len(edges)), key=span_list.__getitem__)
    piles = patience_piles([-span_list[i][1] for i in by_span])
    coloring = EdgeColoring.from_colors({edges[i]: p for i, p in zip(by_span, piles)})
    return coloring.k, coloring


# ---------------------------------------------------------------------------
# JSON form: {"kind": "stack"|"queue", "order": [...], "colors": {"u-v": c}}

def _key_pieces(ids, edges: Sequence, tones: Iterable[str]):
    """layout_to_json's text after the order: the "u-v":c key of each edge
    (u and v as ``ids`` writes them, c the next of ``tones``), in runs of
    at most _CHUNK keys, then the closing }}."""
    tones = iter(tones)
    for lo, run in blocks(edges):
        keys = ",".join([f'"{ids[u]}-{ids[v]}":{c}' for (u, v), c in zip(run, tones)])
        yield f",{keys}" if lo else keys
    yield "}}"


def layout_to_json(layout: Layout) -> str:
    """The JSON form, with no spaces and the colour keys in edge order.
    Colourings built in edge order make the sort one linear pass.  Each
    vertex id and each colour is formatted once; a key with a vertex outside
    the order's ids, a negative one included, raises InvalidParameterError."""
    colors = layout.coloring.colors
    ids = {v: str(v) for v in range(len(layout.order))}
    tones = {c: str(c) for c in set(colors.values())}
    edges = sorted(colors)
    try:
        keys = "".join(_key_pieces(ids, edges, [tones[colors[e]] for e in edges]))
    except KeyError as exc:
        raise InvalidParameterError(f"vertex {exc.args[0]} outside the order's domain") from None
    order = ",".join(map(ids.__getitem__, layout.order.sequence))
    return f'{{"kind":{json.dumps(layout.kind)},"order":[{order}],"colors":{{{keys}'


def layout_from_json(text: str) -> Layout:
    doc = load_json(text)
    try:
        kind = doc["kind"]
        if type(doc["order"]) is not list:
            raise InvalidParameterError("'order' must be a list")
        order = LinearOrder.from_sequence(doc["order"])
        colors = {}
        for key, c in doc["colors"].items():
            u, _, v = key.partition("-")
            if not (key.isascii() and u.isdigit() and v.isdigit()):
                raise InvalidParameterError(f"edge key {key!r} is not u-v in decimal digits")
            edge = normalize_edge(int(u), int(v))
            if edge in colors:
                raise InvalidParameterError(f"edge {edge} is coloured twice")
            colors[edge] = json_int(c)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidParameterError(f"malformed layout document: {exc}") from exc
    if kind not in (STACK, QUEUE):
        raise InvalidParameterError(f"unknown layout kind {kind!r}")
    if any(c < 0 for c in colors.values()):
        raise InvalidParameterError("colours must be nonnegative")
    return Layout(kind, order, EdgeColoring.from_colors(colors))


# layout_to_json's text up to the first colour key, and the end of a key
# with the colour after it
_CANONICAL_HEAD = re.compile(r'\{"kind":"(stack|queue)","order":(\[[0-9,]*\]),"colors":\{')
_COLOUR = re.compile(r'":(0|[1-9][0-9]*)(?=[,}])')


def _canonical_classes(g: Graph, text: str):
    """``_sweep``'s arguments for a document in layout_to_json's form whose
    colour keys are g's edges in ascending order; None for any other text.
    The colours after the header are read in one scan, and the text must
    match the writer's own key pieces written with them."""
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    try:
        order = LinearOrder.from_sequence(json.loads(head[2]))
    except ValueError:
        return None
    edges, tones = g.edges, _COLOUR.findall(text, head.end())
    if len(order) != g.vertex_count or len(tones) != len(edges) or not matches_pieces(
            text, _key_pieces(list(map(str, range(len(order)))), edges, tones), head.end()):
        return None
    classes: dict[str, list] = defaultdict(list)
    for e, c in zip(edges, tones):
        classes[c].append(e)
    return head[1], order, edges, classes.values()


def verify_layout_json(g: Graph, text: str) -> VerifyReport:
    """``verify_layout(g, layout_from_json(text))``.  A document in
    layout_to_json's form keyed by g's edges is read straight into colour
    classes; any other text takes that path, messages and all."""
    canonical = _canonical_classes(g, text)
    if canonical is None:
        return verify_layout(g, layout_from_json(text))
    return _sweep(*canonical)
