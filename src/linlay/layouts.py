"""Linear orders, crossing/nesting predicates, and per-order optima.

A k-stack layout forbids two same-colour edges from crossing; a k-queue
layout forbids them from nesting.  Both are questions about edge spans,
the (left, right) positions of an edge's ends: ``spans`` computes them and
``spans_cross`` / ``spans_nest`` answer them for one pair, and
``largest_crossing`` sizes the largest pairwise-crossing span set by
patience piles.  For a fixed order the queue minimum is the largest
rainbow (chain of pairwise nested edges), found by patience piles; the
stack minimum is an exact chromatic number of the crossing-conflict graph,
found by one iterative DSATUR branch and bound whose first descent is the
greedy colouring and which stops at the largest crossing set.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InvalidParameterError, ResourceLimitError, json_int, load_json
from .graphs import Graph, normalize_edge
from .monotone import patience_piles

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
        seq = tuple(seq)
        n = len(seq)
        position = [-1] * n
        for idx, v in enumerate(seq):
            if not 0 <= v < n or position[v] != -1:
                raise InvalidParameterError("sequence must be a permutation of 0..n-1")
            position[v] = idx
        return LinearOrder(seq, tuple(position))

    def __len__(self) -> int:
        return len(self.sequence)

    def reversed(self) -> "LinearOrder":
        return LinearOrder.from_sequence(tuple(reversed(self.sequence)))


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


def largest_crossing(span_list: Sequence[tuple[int, int]]) -> int:
    """Size of the largest pairwise-crossing subset of the spans.

    Sorted by left end, a pairwise-crossing set has every left end before
    every right end, and both ends strictly increasing; so it straddles
    the gap just after some left end g.  Per gap this is a longest chain:
    spans around the gap sorted by (left, -right), then a strictly
    increasing run of right ends.  Equals the maximum clique of the
    circle graph the spans define (Gavril).  O(n m log m).
    """
    by_left = sorted(span_list, key=lambda s: (s[0], -s[1]))
    best = 0
    for g in sorted({a for a, _ in span_list}):
        rights = [b for a, b in by_left if a <= g < b]
        if len(rights) > best:
            best = max(best, 1 + max(patience_piles(rights)))
    return best


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


def _edge_pair_spans(order: LinearOrder, e, f) -> list[tuple[int, int]]:
    n = len(order)
    for v in (*e, *f):
        if not 0 <= v < n:
            raise InvalidParameterError(f"vertex {v} outside the order's domain")
    if normalize_edge(*e) == normalize_edge(*f):
        raise InvalidParameterError("predicates need two distinct edges")
    return spans(order, (e, f))


def crosses(order: LinearOrder, e, f) -> bool:
    """True iff the endpoint positions strictly interleave."""
    return spans_cross(*_edge_pair_spans(order, e, f))


def nests(order: LinearOrder, e, f) -> bool:
    """True iff one edge's positions strictly contain the other's."""
    return spans_nest(*_edge_pair_spans(order, e, f))


def _overlapping_pairs(span_list: list, crossing: bool):
    """Index pairs (i, j), i < j, whose spans cross, or nest if not
    ``crossing``.  Each span is compared only with the spans whose left end
    lies strictly inside it, found by bisection: a right end beyond its own
    makes the pair cross, one inside it makes the pair nest."""
    by_left = sorted(range(len(span_list)), key=span_list.__getitem__)
    lefts = [span_list[i][0] for i in by_left]
    for i, (a, b) in enumerate(span_list):
        for j in by_left[bisect_right(lefts, a):bisect_left(lefts, b)]:
            if (span_list[j][1] > b) if crossing else (span_list[j][1] < b):
                yield (i, j) if i < j else (j, i)


def is_pairwise_crossing(order: LinearOrder, edges: Iterable) -> bool:
    """Every unordered pair crosses; vacuously true below two edges."""
    span_list = spans(order, edges)
    return all(
        spans_cross(s, span_list[j])
        for i, s in enumerate(span_list)
        for j in range(i + 1, len(span_list))
    )


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


def _class_has_crossing(spans: list[tuple[int, int]], n: int) -> bool:
    # stack discipline: open edges at their left end (longest first), each
    # right end must close the top of the stack
    opens = [[] for _ in range(n)]
    closes = [[] for _ in range(n)]
    for idx, (lo, hi) in enumerate(spans):
        opens[lo].append(idx)
        closes[hi].append(idx)
    stack: list[int] = []
    for p in range(n):
        need = set(closes[p])
        while need:
            if stack and stack[-1] in need:
                need.discard(stack.pop())
            else:
                return True
        for idx in sorted(opens[p], key=lambda i: -spans[i][1]):
            stack.append(idx)
    return False


def _class_has_nesting(spans: list[tuple[int, int]]) -> bool:
    # left ends ascending; containment needs a strictly smaller left end
    # with a strictly larger right end
    prev_max = -1
    group_lo, group_max = None, -1
    for lo, hi in sorted(spans):
        if lo != group_lo:
            prev_max = max(prev_max, group_max)
            group_lo, group_max = lo, -1
        if hi < prev_max:
            return True
        group_max = max(group_max, hi)
    return False


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
    if colors.keys() != g.edges:
        raise InvalidParameterError("colouring must be total on the edge set")

    classes: dict[int, list] = {}
    for e, c in colors.items():
        classes.setdefault(c, []).append(e)

    violations = []
    for c in sorted(classes):
        edges = sorted(classes[c])
        span_list = spans(order, edges)
        if layout.kind == STACK:
            bad = _class_has_crossing(span_list, len(order))
        else:
            bad = _class_has_nesting(span_list)
        if bad:
            violations.extend((edges[i], edges[j])
                              for i, j in _overlapping_pairs(span_list, layout.kind == STACK))
    violations.sort()
    return VerifyReport(not violations, violations)


# ---------------------------------------------------------------------------
# per-order minima

def _conflict_adjacency(span_list: list) -> list:
    adj = [set() for _ in span_list]
    for i, j in _overlapping_pairs(span_list, crossing=True):
        adj[i].add(j)
        adj[j].add(i)
    return adj


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
    if len(g.edges) > max_edges:
        raise ResourceLimitError(
            f"{len(g.edges)} edges exceed the stack-colouring limit of {max_edges}",
            lower=1 if g.edges else 0,
            upper=len(g.edges),
        )
    edges = g.edge_list()
    span_list = spans(order, edges)
    lower = largest_crossing(span_list)
    best_k = len(edges) + 1 if _cutoff is None else _cutoff
    if lower >= best_k:
        return None, None
    colors = _exact_coloring(_conflict_adjacency(span_list), lower, best_k)
    if colors is None:
        return None, None
    coloring = EdgeColoring.from_colors({e: colors[i] for i, e in enumerate(edges)})
    return coloring.k, coloring


def min_queue_colors_for_order(g: Graph, order: LinearOrder):
    """Exact minimum number of queues for a fixed order, with a witness.

    Equals the largest rainbow, a chain of pairwise nested edges (Heath and
    Rosenberg).  With spans sorted by (left, right), a rainbow is a
    strictly increasing subsequence of negated right ends, so an edge's
    patience pile is the length of the longest rainbow strictly around it;
    colouring by pile makes every class nesting-free.  O(m log m).
    """
    if len(order) != g.vertex_count:
        raise InvalidParameterError("order must cover the graph's vertices")
    edges = g.edge_list()
    span_list = spans(order, edges)
    by_span = sorted(range(len(edges)), key=span_list.__getitem__)
    piles = patience_piles([-span_list[i][1] for i in by_span])
    coloring = EdgeColoring.from_colors({edges[i]: p for i, p in zip(by_span, piles)})
    return coloring.k, coloring


# ---------------------------------------------------------------------------
# JSON form: {"kind": "stack"|"queue", "order": [...], "colors": {"u-v": c}}

def layout_to_json(layout: Layout) -> str:
    """The JSON form, with no spaces and the colour keys in edge order.
    Colourings built in edge order make the sort one linear pass."""
    colors = ",".join([f'"{u}-{v}":{c}' for (u, v), c in sorted(layout.coloring.colors.items())])
    order = json.dumps(layout.order.sequence, separators=(",", ":"))
    return f'{{"kind":{json.dumps(layout.kind)},"order":{order},"colors":{{{colors}}}}}'


def layout_from_json(text: str) -> Layout:
    doc = load_json(text)
    try:
        kind = doc["kind"]
        order = LinearOrder.from_sequence(json_int(v) for v in doc["order"])
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
