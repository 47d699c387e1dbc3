"""Separated/crossing classification of path pairs and the chain/antichain
dichotomy, plus Ramsey bound arithmetic and an exhaustive clique finder.

Separation ("every vertex of one path precedes every vertex of the other")
is a strict partial order, so a family in which each pair is separated or
crossing either has a chain of c pairwise separated paths or, by layering
paths by longest-chain depth, an antichain of d pairwise crossing ones
once the family has (c-1)(d-1)+1 members.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Mapping, Optional

from .errors import (
    FamilyTooSmallError,
    InvalidParameterError,
    PreconditionViolationError,
)
from .layouts import LinearOrder, spans, spans_cross

SEPARATED_LT = "separated_lt"
SEPARATED_GT = "separated_gt"
CROSSING = "crossing"
NEITHER = "neither"

RED = "red"
BLUE = "blue"


@dataclass(frozen=True)
class PathFamily:
    """Disjoint paths (one per surviving leaf) inside a shared vertex order.

    ``paths[i]`` lists vertex ids along the grid path; consecutive entries
    are the path's edges.  ``leaves`` carries the leaf index behind each
    path when known (used for deterministic tie-breaking).  Positions are
    looked up once per path, on first use, for ``span`` and ``edge_spans``.
    """

    paths: tuple[tuple[int, ...], ...]
    order: LinearOrder
    leaves: Optional[tuple[int, ...]] = None

    def leaf_of(self, i: int) -> int:
        return self.leaves[i] if self.leaves is not None else i

    @cached_property
    def _extents(self) -> tuple[tuple[int, int], ...]:
        pos = self.order.position
        return tuple(
            (min(pos[v] for v in p), max(pos[v] for v in p)) for p in self.paths
        )

    @cached_property
    def edge_spans(self) -> tuple[list[tuple[int, int]], ...]:
        """Spans of each path's edges, in path order."""
        return tuple(spans(self.order, zip(p, p[1:])) for p in self.paths)

    def span(self, i: int) -> tuple[int, int]:
        return self._extents[i]


def classify_pair(fam: PathFamily, i: int, j: int) -> str:
    """One of separated_lt / separated_gt / crossing / neither.

    ``neither`` is never raised as an error: it flags inputs that violate
    the consistent-ordering premise the dichotomy rests on.
    """
    if i == j or not (0 <= i < len(fam.paths) and 0 <= j < len(fam.paths)):
        raise InvalidParameterError("need two distinct valid path indices")
    lo_i, hi_i = fam.span(i)
    lo_j, hi_j = fam.span(j)
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


@dataclass(frozen=True)
class Selection:
    kind: str  # "separated" | "crossing"
    indices: tuple[int, ...]


def _classification_matrix(fam: PathFamily):
    b = len(fam.paths)
    matrix = [[None] * b for _ in range(b)]
    for i in range(b):
        for j in range(i + 1, b):
            cls = classify_pair(fam, i, j)
            if cls == NEITHER:
                raise PreconditionViolationError(
                    f"paths {i} and {j} are neither separated nor crossing"
                )
            matrix[i][j] = cls
            matrix[j][i] = (
                SEPARATED_GT
                if cls == SEPARATED_LT
                else SEPARATED_LT
                if cls == SEPARATED_GT
                else CROSSING
            )
    return matrix


def chain_or_antichain(fam: PathFamily, c: int, d: int) -> Selection:
    """A chain of >= c pairwise separated paths, else an antichain of >= d
    pairwise crossing ones from longest-chain layering.

    Guaranteed to succeed when the family has (c-1)(d-1)+1 members and no
    pair classifies as neither; otherwise FamilyTooSmallError reports the
    sizes that were achievable.
    """
    if c < 1 or d < 1:
        raise InvalidParameterError("c and d must be positive")
    b = len(fam.paths)
    if b == 0:
        raise FamilyTooSmallError(0, 0, c, d)
    matrix = _classification_matrix(fam)

    # longest chain starting at each path, processed right to left
    by_start = sorted(range(b), key=lambda i: fam.span(i)[0])
    depth = [1] * b
    for i in reversed(by_start):
        for j in range(b):
            if matrix[i][j] == SEPARATED_LT and depth[j] + 1 > depth[i]:
                depth[i] = depth[j] + 1
    longest = max(depth) if depth else 0

    if longest >= c:
        # greedy front-first choice yields the lexicographically smallest
        # longest chain by leaf index
        chain = [
            min(
                (i for i in range(b) if depth[i] == longest),
                key=lambda i: (fam.leaf_of(i), i),
            )
        ]
        while depth[chain[-1]] > 1:
            cur = chain[-1]
            chain.append(
                min(
                    (
                        j
                        for j in range(b)
                        if matrix[cur][j] == SEPARATED_LT and depth[j] == depth[cur] - 1
                    ),
                    key=lambda j: (fam.leaf_of(j), j),
                )
            )
        return Selection("separated", tuple(chain))

    layers: dict[int, list[int]] = {}
    for i in range(b):
        layers.setdefault(depth[i], []).append(i)
    best_depth = max(layers, key=lambda dep: (len(layers[dep]), -dep))
    antichain = sorted(layers[best_depth])
    if len(antichain) >= d:
        return Selection("crossing", tuple(antichain))
    raise FamilyTooSmallError(longest, len(antichain), c, d)


def ramsey_upper_bound(r: int, s: int) -> int:
    """binomial(r+s-2, r-1), a classical upper bound on R(r, s)."""
    if r < 1 or s < 1:
        raise InvalidParameterError("r and s must be positive")
    return comb(r + s - 2, r - 1)


def find_monochromatic_clique(
    pair_colors: Mapping, r: int, s: int
) -> Optional[tuple[str, tuple[int, ...]]]:
    """Exhaustive search for a red r-clique or blue s-clique in a
    2-coloured complete graph given as {(u, v): "red"|"blue"} with u < v.

    Returns None when neither exists, which is legal below the Ramsey
    threshold.  Red is searched first; vertices are tried in ascending
    order, so the result is deterministic.
    """
    if r < 1 or s < 1:
        raise InvalidParameterError("r and s must be positive")
    vertices = sorted({v for e in pair_colors for v in e})
    b = (max(vertices) + 1) if vertices else 0
    expected = b * (b - 1) // 2
    if vertices != list(range(b)) or len(pair_colors) != expected:
        raise InvalidParameterError("pair colouring must cover a complete graph on 0..b-1")
    neighbours = {RED: [set() for _ in range(b)], BLUE: [set() for _ in range(b)]}
    for (u, v), col in pair_colors.items():
        if col not in (RED, BLUE):
            raise InvalidParameterError(f"unknown colour {col!r}")
        neighbours[col][u].add(v)
        neighbours[col][v].add(u)

    def search(colour: str, size: int) -> Optional[tuple[int, ...]]:
        if size == 1:
            return (0,) if b else None
        adj = neighbours[colour]

        def extend(clique: list[int], cands: set[int]) -> Optional[tuple[int, ...]]:
            if len(clique) == size:
                return tuple(clique)
            if len(clique) + len(cands) < size:
                return None
            for v in sorted(cands):
                found = extend(clique + [v], {w for w in cands if w > v and w in adj[v]})
                if found:
                    return found
            return None

        return extend([], set(range(b)))

    hit = search(RED, r)
    if hit:
        return RED, hit
    hit = search(BLUE, s)
    if hit:
        return BLUE, hit
    return None
