"""Separated/crossing classification of path pairs and the chain/antichain
dichotomy, plus Ramsey bound arithmetic.

Separation ("every vertex of one path precedes every vertex of the other")
is a strict partial order, so a family in which each pair is separated or
crossing either has a chain of c pairwise separated paths or, by layering
paths by longest-chain depth, an antichain of d pairwise crossing ones
once the family has (c-1)(d-1)+1 members.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import InvalidParameterError
from .layouts import LinearOrder, spans, spans_cross

SEPARATED_LT = "separated_lt"
SEPARATED_GT = "separated_gt"
CROSSING = "crossing"
NEITHER = "neither"


class PathFamily:
    """Disjoint paths (one per surviving leaf) inside a shared vertex order.

    ``paths[i]`` lists vertex ids along the grid path; consecutive entries
    are the path's edges.  ``leaves[i]`` is the leaf index behind path i,
    which breaks ties deterministically.  Positions are looked up once per
    path, on first use, for ``extents`` and ``edge_spans``.
    """

    def __init__(self, paths: tuple[tuple[int, ...], ...], order: LinearOrder,
                 leaves: tuple[int, ...]):
        self.paths, self.order, self.leaves = paths, order, leaves

    @cached_property
    def extents(self) -> tuple[tuple[int, int], ...]:
        """The (first, last) position of each path's vertices."""
        pos = self.order.position
        return tuple(
            (min(pos[v] for v in p), max(pos[v] for v in p)) for p in self.paths
        )

    @cached_property
    def edge_spans(self) -> tuple[list[tuple[int, int]], ...]:
        """Spans of each path's edges, in path order."""
        return tuple(spans(self.order, zip(p, p[1:])) for p in self.paths)


def classify_pair(fam: PathFamily, i: int, j: int) -> str:
    """One of separated_lt / separated_gt / crossing / neither.

    ``neither`` is never raised as an error: it flags inputs that violate
    the consistent-ordering premise the dichotomy rests on.
    """
    if i == j or not (0 <= i < len(fam.paths) and 0 <= j < len(fam.paths)):
        raise InvalidParameterError("need two distinct valid path indices")
    (lo_i, hi_i), (lo_j, hi_j) = fam.extents[i], fam.extents[j]
    if hi_i < lo_j:
        return SEPARATED_LT
    if hi_j < lo_i:
        return SEPARATED_GT
    spans_j = fam.edge_spans[j]
    for s in fam.edge_spans[i]:
        for t in spans_j:
            if spans_cross(s, t):
                return CROSSING
    return NEITHER


class Selection(NamedTuple):
    kind: str  # "separated" | "crossing"
    indices: tuple[int, ...]


class InsufficientScale(NamedTuple):
    """The dichotomy's third outcome: a family of b paths whose longest
    chain and largest antichain fall short of c and d."""

    family_size_b: int
    longest_chain: int
    largest_antichain: int
    required_c: int
    required_d: int


def largest_group(groups: dict) -> object:
    """The key of the largest group, ties to the smallest key."""
    return min(groups, key=lambda k: (-len(groups[k]), k))


def chain_or_antichain(fam: PathFamily, c: int, d: int) -> Selection | InsufficientScale:
    """A chain of >= c pairwise separated paths, else an antichain of >= d
    pairwise crossing ones from longest-chain layering, else the sizes
    that were achievable as InsufficientScale.

    Separation is an interval order on path extents, so a path's chain
    depth is one more than the deepest path starting after it ends: one
    sort by start, a suffix maximum and a bisection give every depth in
    O(b log b).  Chains are separated by construction.  Of an antichain,
    the d members with the smallest leaves (those a witness uses) are
    checked to cross pairwise; a pair that does not breaks the premise and
    raises InvalidParameterError.

    A Selection is guaranteed when the family has (c-1)(d-1)+1 members and
    no pair classifies as neither.
    """
    if c < 1 or d < 1:
        raise InvalidParameterError("c and d must be positive")
    b = len(fam.paths)
    if b == 0:
        return InsufficientScale(0, 0, 0, c, d)
    extents = fam.extents
    by_start = sorted(range(b), key=lambda i: extents[i][0])
    starts = [extents[i][0] for i in by_start]
    depth = [1] * b
    deepest = [0] * (b + 1)  # deepest[r]: largest depth among by_start[r:]
    for rank in range(b - 1, -1, -1):
        i = by_start[rank]
        depth[i] = 1 + deepest[bisect_right(starts, extents[i][1])]
        deepest[rank] = max(depth[i], deepest[rank + 1])
    longest = deepest[0]
    layers: dict[int, list[int]] = {}
    for i in range(b):
        layers.setdefault(depth[i], []).append(i)

    def by_leaf(i: int) -> tuple[int, int]:
        return fam.leaves[i], i

    if longest >= c:
        # greedy front-first choice yields the lexicographically smallest
        # longest chain by leaf index
        chain = [min(layers[longest], key=by_leaf)]
        for level in range(longest - 1, 0, -1):
            end = extents[chain[-1]][1]
            chain.append(min((j for j in layers[level] if end < extents[j][0]), key=by_leaf))
        return Selection("separated", tuple(chain))

    antichain = layers[largest_group(layers)]
    if len(antichain) < d:
        return InsufficientScale(b, longest, len(antichain), c, d)
    for i, j in combinations(sorted(antichain, key=by_leaf)[:d], 2):
        if classify_pair(fam, i, j) != CROSSING:
            raise InvalidParameterError(f"paths {i} and {j} are neither separated nor crossing")
    return Selection("crossing", tuple(antichain))


def ramsey_upper_bound(r: int, s: int) -> int:
    """binomial(r+s-2, r-1), a classical upper bound on R(r, s)."""
    if r < 1 or s < 1:
        raise InvalidParameterError("r and s must be positive")
    return comb(r + s - 2, r - 1)
