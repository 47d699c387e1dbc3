"""Crossing-witness extraction for arbitrary orders of star-times-grid
products, plus the scale arithmetic for the full lower-bound guarantee.

Given any vertex order, the pipeline distils a consistently-ordered leaf
family, colours each grid vertex by the family's direction there, finds a
single-direction grid path, and classifies the per-leaf copies of that
path as pairwise separated or crossing.  A long separated chain yields a
fan of star edges against the hub copies (Case I); a large crossing set
is narrowed, one pigeonhole at a time, to a bundle between two fixed hub
copies (Case II).  Either way the result is a set of pairwise crossing
edges, and any stack layout over the given order must spend one colour
per edge of it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .errors import InternalInvariantError, InvalidParameterError, ResourceLimitError
from .graphs import hex_vertex_id, normalize_edge, star_hex_product_has_edge
from .hexpath import BLUE, RED, GridColoring, find_monochromatic_path
from .layouts import LinearOrder, is_pairwise_crossing, spans_cross
from .monotone import INCREASING, consistent_leaf_family
from .poset import (
    SEPARATED_GT,
    SEPARATED_LT,
    InsufficientScale,
    PathFamily,
    chain_or_antichain,
    classify_pair,
    ramsey_upper_bound,
)

CASE_SEPARATED_1 = "separated_I_sub1"
CASE_SEPARATED_2 = "separated_I_sub2"
CASE_CROSSING = "crossing_II"

_CASE_CODES = {CASE_SEPARATED_1: "I.1", CASE_SEPARATED_2: "I.2", CASE_CROSSING: "II"}


class ScaleParameters(NamedTuple):
    """Parameters that force a witness of size s on every order."""

    s: int
    n: int
    m: int
    c: int
    d: int
    b_bound: int
    a_exponent: int
    a_digits: int


# m = 2 ** (4s^2 - 1) has 4,192 decimal digits at s = 59 and 4,335 at
# s = 60, more than the 4,300 that Python converts to text by default
MAX_S = 59


def required_parameters(s: int) -> ScaleParameters:
    """Grid size, selection exponent, dichotomy targets and the (never
    materialised) leaf count that guarantee s pairwise crossing edges."""
    if s < 1:
        raise InvalidParameterError("s must be positive")
    if s > MAX_S:
        raise ResourceLimitError(f"s = {s} exceeds the limit of {MAX_S}")
    from decimal import Decimal, localcontext  # only `params` needs it
    n = 2 * s
    m = 2 ** (n * n - 1)
    c = 2 * s
    d = 4 * n * n * s + 1
    b_bound = ramsey_upper_bound(c, d)
    with localcontext() as ctx:
        ctx.prec = len(str(m)) + 30
        digits = int(
            (Decimal(m) * Decimal(b_bound).log10()).to_integral_value(rounding="ROUND_FLOOR")
        ) + 1
    return ScaleParameters(s, n, m, c, d, b_bound, m, digits)


class WitnessReport(NamedTuple):
    case: str
    edges: tuple
    family_size_b: int
    chain_or_antichain_size: int
    lower_bound: int
    trace: Optional[dict] = None


def case_separated(
    fam: PathFamily, chain_indices: Sequence[int], hub_vertices: Sequence[int]
) -> tuple[str, tuple]:
    """Fan of pairwise crossing star edges from a separated chain.

    ``hub_vertices`` are the hub copies aligned with the grid path (entry
    j sits at the same grid vertex as every path's j-th vertex).  With the
    hubs relabelled t_1..t_n by position, either the lower half of the
    chain precedes t_(ceil n/2) and each R_i sends an edge to
    t_(ceil n/2 + i - 1), or the upper half follows it and pairs with
    t_1, t_2, ... instead.
    """
    order = fam.order
    pos = order.position
    chain = list(chain_indices)
    c = len(chain)
    n = len(hub_vertices)
    chain.sort(key=lambda i: fam.extents[i][0])
    hubs = sorted(range(n), key=lambda j: pos[hub_vertices[j]])  # grid slot by rank
    half = c // 2
    mid_hub = hubs[(n + 1) // 2 - 1]
    mid_hub_pos = pos[hub_vertices[mid_hub]]

    def star_edge(path_index: int, grid_slot: int) -> tuple[int, int]:
        return normalize_edge(hub_vertices[grid_slot], fam.paths[path_index][grid_slot])

    if half == 0 or fam.extents[chain[half - 1]][1] < mid_hub_pos:
        count = min(half, (n + 1) // 2)
        edges = tuple(
            star_edge(chain[i], hubs[(n + 1) // 2 + i - 1]) for i in range(count)
        )
        label = CASE_SEPARATED_1
    elif mid_hub_pos < fam.extents[chain[half]][0]:
        count = min(c - half, (n + 1) // 2)
        edges = tuple(star_edge(chain[half + i], hubs[i]) for i in range(count))
        label = CASE_SEPARATED_2
    else:
        raise InternalInvariantError("chain admits neither separated subcase")
    if not is_pairwise_crossing(order, edges):
        raise InternalInvariantError("separated-case edges failed to pairwise cross")
    return label, edges


def case_crossing(fam: PathFamily, crossing_indices: Sequence[int]) -> tuple[str, tuple]:
    """Pairwise crossing bundle distilled from pairwise crossing paths.

    Among edges of the other paths that cross an edge of the lowest-leaf
    path, keep the biggest group crossing one fixed edge e, then the
    biggest subgroup whose inside endpoints share a grid slot, then the
    biggest subgroup whose outside endpoints share a grid slot and a side
    of e.  Consistent leaf ordering at both slots makes the survivors
    pairwise cross.
    """
    order = fam.order
    pos = order.position
    members = sorted(crossing_indices, key=lambda i: (fam.leaves[i], i))
    if len(members) < 2:
        raise InvalidParameterError("need at least two crossing paths")
    base_spans = fam.edge_spans[members[0]]

    # one entry per (crossed base edge) -> edges of other paths crossing it,
    # tagged with the grid slot of each endpoint
    groups: dict[int, list] = {idx: [] for idx in range(len(base_spans))}
    for i in members[1:]:
        path = fam.paths[i]
        for slot, t in enumerate(fam.edge_spans[i]):
            for idx, s in enumerate(base_spans):
                if spans_cross(s, t):
                    groups[idx].append((i, slot, path[slot], path[slot + 1]))
    best_idx = max(
        range(len(base_spans)), key=lambda idx: (len(groups[idx]), [-x for x in base_spans[idx]])
    )
    chosen = groups[best_idx]
    lo, hi = base_spans[best_idx]
    if not chosen:
        raise InternalInvariantError("no edge of the other paths crosses the base path")

    # pigeonhole 1: inside endpoints in one grid slot
    by_inside: dict[int, list] = {}
    for item in chosen:
        i, slot, u, v = item
        inside_slot = slot if lo < pos[u] < hi else slot + 1
        by_inside.setdefault(inside_slot, []).append(item)
    inside_slot = max(by_inside, key=lambda k: (len(by_inside[k]), -k))
    narrowed = by_inside[inside_slot]

    # pigeonhole 2: outside endpoints in one grid slot, on one side of e
    by_outside: dict[tuple[int, int], list] = {}
    for item in narrowed:
        i, slot, u, v = item
        outside, outside_slot = (v, slot + 1) if slot == inside_slot else (u, slot)
        side = 0 if pos[outside] > hi else 1  # after e preferred
        by_outside.setdefault((outside_slot, side), []).append(item)
    key = max(by_outside, key=lambda k: (len(by_outside[k]), -k[1], -k[0]))
    survivors = by_outside[key]

    edges = tuple(sorted({normalize_edge(u, v) for _, _, u, v in survivors}))
    if not is_pairwise_crossing(order, edges):
        raise InternalInvariantError("crossing-case edges failed to pairwise cross")
    return CASE_CROSSING, edges


def extract_crossing_witness(
    a: int,
    n: int,
    order: LinearOrder,
    c: int,
    d: int,
    trace: bool = False,
) -> WitnessReport | InsufficientScale:
    """Run the full pipeline for one order of the (a, n) product.

    Returns a WitnessReport whose edges pairwise cross under ``order``, or
    an InsufficientScale outcome when the surviving family is too small
    for the requested chain/antichain targets.
    """
    if c < 1 or d < 1:
        raise InvalidParameterError("c and d must be positive")
    family = consistent_leaf_family(order, a, n)
    cells = n * n
    coloring = GridColoring.from_function(
        n, lambda coord: RED if family.direction[coord] == INCREASING else BLUE
    )
    grid_path = find_monochromatic_path(coloring)[:n]
    slots = [hex_vertex_id(coord, n) for coord in grid_path]

    leaves = family.leaves
    paths = tuple(tuple(u * cells + s for s in slots) for u in leaves)
    hub_vertices = tuple(slots)  # hub has star id 0
    fam = PathFamily(paths=paths, order=order, leaves=leaves)

    pos = order.position
    slot_direction = []
    for j in range(len(slots)):
        ranks = [pos[p[j]] for p in paths]
        if all(ranks[i] < ranks[i + 1] for i in range(len(ranks) - 1)):
            slot_direction.append(1)
        elif all(ranks[i] > ranks[i + 1] for i in range(len(ranks) - 1)):
            slot_direction.append(-1)
        else:
            raise InternalInvariantError("grid path lost the monotone leaf ordering")
    if len(paths) > 1 and len(set(slot_direction)) > 1:
        raise InternalInvariantError("grid path vertices disagree on leaf direction")

    selection = chain_or_antichain(fam, c, d)
    if isinstance(selection, InsufficientScale):
        return selection

    if selection.kind == "separated":
        picked = list(selection.indices)[:c]
        label, edges = case_separated(fam, picked, hub_vertices)
    else:
        picked = sorted(selection.indices, key=lambda i: (leaves[i], i))[:d]
        if len(picked) < 2:
            # d = 1 asks for nothing: zero edges witness the trivial bound
            label, edges = CASE_CROSSING, ()
        else:
            label, edges = case_crossing(fam, picked)

    for e in edges:
        if not star_hex_product_has_edge(a, n, *e):
            raise InternalInvariantError(f"witness edge {e} missing from the product graph")

    trace_doc = None
    if trace:
        # pair (j, i) is pair (i, j) with the separated sides swapped
        mirror = {SEPARATED_LT: SEPARATED_GT, SEPARATED_GT: SEPARATED_LT}
        matrix = [[None] * len(paths) for _ in paths]
        for i, j in combinations(range(len(paths)), 2):
            kind = classify_pair(fam, i, j)
            matrix[i][j], matrix[j][i] = kind, mirror.get(kind, kind)
        trace_doc = {
            "leaves": list(leaves),
            "directions": [
                [[coord.a, coord.b], family.direction[coord]]
                for coord in sorted(family.direction)
            ],
            "grid_path": [[coord.a, coord.b] for coord in grid_path],
            "selection": {"kind": selection.kind, "indices": list(selection.indices)},
            "classification": matrix,
        }
    return WitnessReport(
        case=label,
        edges=tuple(sorted(edges)),
        family_size_b=len(leaves),
        chain_or_antichain_size=len(selection.indices),
        lower_bound=len(edges),
        trace=trace_doc,
    )


# ---------------------------------------------------------------------------
# JSON forms

def witness_to_json_dict(report: WitnessReport) -> dict:
    doc = {
        "case": _CASE_CODES[report.case],
        "edges": [list(e) for e in report.edges],
        "b": report.family_size_b,
        "selected": report.chain_or_antichain_size,
        "lower_bound": report.lower_bound,
    }
    if report.trace is not None:
        doc["trace"] = report.trace
    return doc


def insufficient_to_json_dict(outcome: InsufficientScale) -> dict:
    return {
        "outcome": "insufficient-scale",
        "b": outcome.family_size_b,
        "longest_chain": outcome.longest_chain,
        "largest_antichain": outcome.largest_antichain,
        "required_c": outcome.required_c,
        "required_d": outcome.required_d,
    }


def parameters_to_json_dict(params: ScaleParameters) -> dict:
    return {
        "s": params.s,
        "n": params.n,
        "m": params.m,
        "c": params.c,
        "d": params.d,
        "b_bound": params.b_bound,
        "a_bound": {
            "base": params.b_bound,
            "exponent": params.a_exponent,
            "digits": params.a_digits,
        },
    }
