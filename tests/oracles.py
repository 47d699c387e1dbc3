"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive: positions are recomputed from raw
sequences, predicates are inlined, and minima come from exhaustive
enumeration or plain backtracking, so the oracles share no machinery with
the library paths they check.  The two exceptions, ``scan_layout_number``
and ``all_pairs_chain_or_antichain``, say why in their docstrings.
"""

import json
from collections import deque
from itertools import combinations, permutations

from linlay import (
    EdgeColoring,
    Graph,
    GridCoord,
    InsufficientScale,
    InvalidParameterError,
    LinearOrder,
    ProductVertex,
    Selection,
    classify_pair,
    hex_coord,
    make_hex_dual,
    make_star_hex_product,
    min_queue_colors_for_order,
    min_stack_colors_for_order,
    plain_graph,
)
from linlay.poset import NEITHER, SEPARATED_GT, SEPARATED_LT
from linlay.render import PALETTE


def complete_graph(n):
    return plain_graph(n, combinations(range(n), 2))


def complete_bipartite(a, b):
    return plain_graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def square_grid(n):
    """The n x n grid without diagonals, ids row-major."""
    edges = [(v, v + 1) for v in range(n * n) if v % n < n - 1]
    return plain_graph(n * n, edges + [(v, v + n) for v in range(n * n - n)])


def cube_graph():
    """The 3-cube: faces 0-1-2-3 and 7-6-5-4, with i ~ 7 - i between them,
    so the identity order nests four edges."""
    faces = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    return plain_graph(8, faces + [(i, 7 - i) for i in range(4)])


def cartesian_product(g, h):
    """Cartesian product: (x,y) ~ (x',y') iff one coordinate steps along an edge.

    Vertex ids are x * |V(h)| + y.  A star times a hex grid keeps
    structured ProductVertex labels; any other combination is a plain
    graph labelled by (label_x, label_y) pairs.
    """
    if g.vertex_count == 0 or h.vertex_count == 0:
        raise InvalidParameterError("both factors must be nonempty")
    nh = h.vertex_count
    edges = [(x * nh + u, x * nh + v) for x in range(g.vertex_count) for u, v in h.edges]
    edges += [(u * nh + y, v * nh + y) for u, v in g.edges for y in range(nh)]
    rows = [set() for _ in range(g.vertex_count * nh)]
    for u, v in edges:
        rows[u].add(v)
        rows[v].add(u)
    adjacency = tuple(tuple(sorted(row)) for row in rows)
    pairs = [(g.labels[x], h.labels[y]) for x in range(g.vertex_count) for y in range(nh)]
    if g.kind == "star" and h.kind == "hex":
        labels = tuple(ProductVertex(*pair) for pair in pairs)
        return Graph("product", labels, adjacency, hex_n=h.hex_n, star_a=g.star_a)
    return Graph("plain", tuple(pairs), adjacency)


def connected_components(g, restrict=None):
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


def reference_shortest_path(g, s, t, restrict=None):
    """BFS shortest path from s to t inside the induced subgraph, or None:
    a deque search that stops at t, scanning each row in ascending order."""
    allowed = set(range(g.vertex_count)) if restrict is None else set(restrict)
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


def far_boundary(n, x):
    """Neighbours of the connected cell set ``x`` that lie in the component
    of [n,n] among the other cells of the n x n grid, as grid coordinates.
    The walk's lemma says they induce a connected subgraph; this checks it."""
    g = make_hex_dual(n)
    where = {cell: v for v, cell in enumerate(g.labels)}
    ids = {where[GridCoord(*c)] for c in x}
    corner = n * n - 1
    assert ids and corner not in ids and len(connected_components(g, ids)) == 1
    rest = [v for v in range(n * n) if v not in ids]
    far = next(c for c in connected_components(g, rest) if corner in c)
    boundary = {w for v in ids for w in g.adjacency[v] if w in far}
    assert len(connected_components(g, boundary)) == 1
    return frozenset(g.labels[v] for v in boundary)


def positions(seq):
    pos = [0] * len(seq)
    for i, v in enumerate(seq):
        pos[v] = i
    return pos


def oracle_crosses(pos, e, f):
    a1, b1 = sorted((pos[e[0]], pos[e[1]]))
    a2, b2 = sorted((pos[f[0]], pos[f[1]]))
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def oracle_nests(pos, e, f):
    a1, b1 = sorted((pos[e[0]], pos[e[1]]))
    a2, b2 = sorted((pos[f[0]], pos[f[1]]))
    return (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)


def all_pairs_violations(layout):
    """Every same-colour pair of edges whose spans cross (stack) or nest
    (queue), found by comparing all pairs, as sorted pairs of sorted edges."""
    pos = positions(layout.order.sequence)
    pred = oracle_crosses if layout.kind == "stack" else oracle_nests
    colors = layout.coloring.colors
    return sorted(
        (e, f)
        for e, f in combinations(sorted(colors), 2)
        if colors[e] == colors[f] and pred(pos, e, f)
    )


def label_queue_colors(g):
    """The constructed queue colouring of a hex grid or star-times-grid
    product, read from vertex labels: an edge inside one grid cell is a
    star edge (0); a grid edge is horizontal (1) if it keeps b, vertical
    (2) if it keeps a, else diagonal (3).  Hex grids have no star edges,
    so their classes start at 0."""

    def direction(p, q):
        return 1 if p.b == q.b else 2 if p.a == q.a else 3

    if g.kind == "hex":
        return {(u, v): direction(g.labels[u], g.labels[v]) - 1 for u, v in g.edges}
    colors = {}
    for u, v in g.edges:
        p, q = g.labels[u].grid_part, g.labels[v].grid_part
        colors[(u, v)] = 0 if p == q else direction(p, q)
    return colors


def step_class_queue_coloring(a, n):
    """product_queue_layout's colouring with every edge of the built product
    classified on its own by its id step: a star edge joins copies of one
    cell, a whole number of n^2 grids apart (0); a grid edge steps 1, n or
    n + 1 < n^2 (horizontal 1, vertical 2, diagonal 3)."""
    g = make_star_hex_product(a, n)
    cells, step = n * n, {1: 1, n: 2, n + 1: 3}
    colors = {(u, v): 0 if v - u >= cells else step[v - u] for u, v in g.edges}
    return EdgeColoring.from_colors(colors)


def comprehension_block_order(a, n):
    """product_block_order with the copies of each grid cell, hub first,
    listed by one comprehension and checked as a permutation by
    LinearOrder.from_sequence."""
    cells = n * n
    return LinearOrder.from_sequence(
        [star_id * cells + grid_id for grid_id in range(cells) for star_id in range(a + 1)]
    )


def graph_json_dict(g):
    """The JSON document of a graph built as nested dicts and lists: hex and
    product labels as coordinate arrays, int and "t" labels as themselves,
    any other label (generic products) as the vertex id."""

    def label(i, x):
        if isinstance(x, GridCoord):
            return [x.a, x.b]
        if isinstance(x, ProductVertex):
            return [x.star_part, [x.grid_part.a, x.grid_part.b]]
        return x if isinstance(x, (int, str)) else i

    doc = {"kind": g.kind}
    if g.hex_n is not None:
        doc["n"] = g.hex_n
    if g.star_a is not None:
        doc["a"] = g.star_a
    doc["vertices"] = [{"id": i, "label": label(i, x)} for i, x in enumerate(g.labels)]
    doc["edges"] = [list(e) for e in sorted(g.edges)]
    return doc


def reference_graph_json(g):
    """graph_to_json's text, written one piece per vertex and per row: the
    labels by a memo over whole labels that recurses into tuples, each
    vertex and each row's edges formatted and joined on their own."""
    if g.kind == "plain":
        texts = [str(label if isinstance(label, int) else i) for i, label in enumerate(g.labels)]
    else:
        memo = {}

        def text(label):
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
    pieces = [f'{{"kind":{json.dumps(g.kind)}{sizes},"vertices":[']
    for i, t in enumerate(texts):
        pieces.append(f'{"," if i else ""}{{"id":{i},"label":{t}}}')
    pieces.append('],"edges":[')
    sep = ""
    for u, row in enumerate(g.adjacency):
        later = ",".join([f"[{u},{w}]" for w in row if u < w])
        if later:
            pieces.append(sep + later)
            sep = ","
    pieces.append("]}")
    return "".join(pieces)


def reference_graph_to_dot(g, layout=None):
    """graph_to_dot's text, one line per vertex and per edge, each label
    formatted by its type."""
    def label_text(label):
        if isinstance(label, GridCoord):
            return f"[{label.a},{label.b}]"
        if isinstance(label, ProductVertex):
            return f"({label.star_part},[{label.grid_part.a},{label.grid_part.b}])"
        return str(label)

    lines = ["graph G {"]
    for i, label in enumerate(g.labels):
        lines.append(f'  {i} [label="{label_text(label)}"];')
    colors = layout.coloring.colors if layout is not None else {}
    for u, v in sorted(g.edges):
        if (u, v) in colors:
            lines.append(f'  {u} -- {v} [color="{PALETTE[colors[(u, v)] % len(PALETTE)]}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def layout_json_dict(layout):
    """The JSON document of a layout built as a dict, colour keys "u-v" in
    sorted edge order."""
    colors = layout.coloring.colors
    return {
        "kind": layout.kind,
        "order": list(layout.order.sequence),
        "colors": {f"{u}-{v}": colors[(u, v)] for u, v in sorted(colors)},
    }


def nesting_depth_colors(edges, seq):
    """Queue colouring of a fixed order by nesting depth, in O(m^2): an
    edge's colour is the length of the longest chain of edges strictly
    nested around it.  Returns (k, {edge: colour})."""
    pos = positions(seq)
    edges = sorted(edges)
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in edges]
    m = len(edges)
    by_span = sorted(range(m), key=lambda i: (spans[i][0] - spans[i][1], spans[i]))
    depth = [1] * m
    done = []
    for i in by_span:
        a2, b2 = spans[i]
        best = 0
        for j in done:
            a1, b1 = spans[j]
            if a1 < a2 and b2 < b1 and depth[j] > best:
                best = depth[j]
        depth[i] = best + 1
        done.append(i)
    return max(depth, default=0), {e: depth[i] - 1 for i, e in enumerate(edges)}


def weakly_nesting_pairs(layout):
    """Same-colour pairs whose spans nest even weakly (shared endpoints
    allowed, identical spans excepted)."""
    pos = positions(layout.order.sequence)
    classes = {}
    for e, c in layout.coloring.colors.items():
        classes.setdefault(c, []).append(e)
    offenders = []
    for c, edges in sorted(classes.items()):
        for e, f in combinations(sorted(edges), 2):
            a1, b1 = sorted((pos[e[0]], pos[e[1]]))
            a2, b2 = sorted((pos[f[0]], pos[f[1]]))
            if (a1, b1) == (a2, b2):
                continue
            if (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2):
                offenders.append((e, f))
    return offenders


def brute_min_colors(edges, seq, kind):
    """Minimum colours for a fixed order by backtracking over edges."""
    pos = positions(seq)
    pred = oracle_crosses if kind == "stack" else oracle_nests
    edges = sorted(edges)
    m = len(edges)
    if m == 0:
        return 0
    conflict = [
        [pred(pos, edges[i], edges[j]) for j in range(m)] for i in range(m)
    ]
    best = [m]
    colors = [-1] * m

    def backtrack(i, used):
        if used >= best[0]:
            return
        if i == m:
            best[0] = used
            return
        for c in range(used):
            if all(not conflict[i][j] or colors[j] != c for j in range(i)):
                colors[i] = c
                backtrack(i + 1, used)
                colors[i] = -1
        colors[i] = used
        backtrack(i + 1, used + 1)
        colors[i] = -1

    backtrack(0, 0)
    return best[0]


def dsatur_greedy_colors(edges, seq):
    """Greedy stack colouring of a fixed order by DSATUR on its crossing
    conflicts: repeatedly colour the edge with the most distinct colours
    among its conflicts (then the most conflicts, then the earliest in
    sorted order) with the smallest colour they leave free.
    Returns (k, {edge: colour})."""
    pos = positions(seq)
    edges = sorted(edges)
    m = len(edges)
    conflicts = [
        [j for j in range(m) if j != i and oracle_crosses(pos, edges[i], edges[j])]
        for i in range(m)
    ]
    colors = {}
    while len(colors) < m:
        def key(i):
            return (-len({colors[j] for j in conflicts[i] if j in colors}),
                    -len(conflicts[i]), i)

        i = min((i for i in range(m) if i not in colors), key=key)
        taken = {colors[j] for j in conflicts[i] if j in colors}
        colors[i] = min(c for c in range(m + 1) if c not in taken)
    return max(colors.values(), default=-1) + 1, {edges[i]: c for i, c in colors.items()}


def orders_up_to_symmetry(n, kind):
    """One vertex order of 0..n-1 (n >= 2) for each class under reversal
    and, for stacks, rotation, neither of which changes which edges cross
    or nest: stack orders put vertex 0 first and keep rest[0] < rest[-1],
    queue orders keep perm[0] < perm[-1]."""
    if kind == "stack":
        return ((0, *rest) for rest in permutations(range(1, n)) if n <= 2 or rest[0] < rest[-1])
    return (perm for perm in permutations(range(n)) if perm[0] < perm[-1])


def brute_layout_number(n_vertices, edges, kind):
    """Minimum over every vertex order, up to symmetry, of the per-order
    brute minimum."""
    if not edges:
        return 0
    best = None
    for seq in orders_up_to_symmetry(n_vertices, kind):
        k = brute_min_colors(edges, seq, kind)
        best = k if best is None else min(best, k)
        if best == 1:
            break
    return best


def scan_layout_number(g, kind):
    """Exact stack or queue number by evaluating ``orders_up_to_symmetry``
    in lexicographic order, keeping the first strictly better one.

    Unlike the rest of this module it calls the library's per-order minima
    (the stack one with the best count so far as its cutoff), and it stops
    only at k = 1, so that it checks the solver's early stop at the density
    floor, including which optimal order and colouring it returns.  Returns
    (k, order sequence, colour dict).
    """
    n = g.vertex_count
    if not g.edges:
        return 0, tuple(range(n)), {}
    best_k = best = None
    for seq in orders_up_to_symmetry(n, kind):
        order = LinearOrder.from_sequence(seq)
        if kind == "stack":
            k, coloring = min_stack_colors_for_order(
                g, order, max_edges=len(g.edges), _cutoff=best_k
            )
        else:
            k, coloring = min_queue_colors_for_order(g, order)
        if k is not None and (best_k is None or k < best_k):
            best_k, best = k, (k, seq, coloring.colors)
            if k == 1:  # no graph with an edge needs fewer
                break
    return best


def dp_longest_monotone(values):
    """O(len^2) DP for the longest strictly monotone subsequence length,
    returned as (increasing_len, decreasing_len)."""
    n = len(values)
    inc = [1] * n
    dec = [1] * n
    for i in range(n):
        for j in range(i):
            if values[j] < values[i] and inc[j] + 1 > inc[i]:
                inc[i] = inc[j] + 1
            if values[j] > values[i] and dec[j] + 1 > dec[i]:
                dec[i] = dec[j] + 1
    return (max(inc) if n else 0, max(dec) if n else 0)


def longest_monochromatic_path(coloring):
    """Exhaustive longest single-colour path length, with pruning by the
    number of still-reachable vertices."""
    n = coloring.n
    g = make_hex_dual(n)
    best = 0
    for target in ("R", "B"):
        keep = [v for v in range(n * n) if coloring.color(hex_coord(v, n)) == target]
        keepset = set(keep)
        adj = [[w for w in g.adjacency[v] if w in keepset] for v in range(n * n)]
        for comp in connected_components(g, keep):
            members = set(comp)

            def reachable(v, blocked):
                seen = {v}
                stack = [v]
                while stack:
                    x = stack.pop()
                    for w in adj[x]:
                        if w in members and w not in blocked and w not in seen:
                            seen.add(w)
                            stack.append(w)
                return len(seen)

            def dfs(v, visited, length):
                nonlocal best
                if length > best:
                    best = length
                if length + reachable(v, visited) - 1 <= best:
                    return
                for w in adj[v]:
                    if w in members and w not in visited:
                        visited.add(w)
                        dfs(w, visited, length + 1)
                        visited.discard(w)

            for v in sorted(members):
                dfs(v, {v}, 1)
    return best


def component_links(nbrs, label):
    """The pairs (p, q), p < q, of pieces with touching cells, by one pass
    over every cell and its neighbours after the labelling."""
    return {(label[v], label[w]) for v in range(len(label)) for w in nbrs[v]
            if label[v] < label[w]}


def random_tree(rng, n):
    """Uniform labelled tree on n vertices from a random parent array."""
    if n == 1:
        return plain_graph(1, [])
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[i], order[rng.randrange(i)]))
    return plain_graph(n, edges)


def canonical_form(n, edges):
    """Smallest adjacency bitmask over all relabellings (graphs <= 7)."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edgeset = {tuple(sorted(e)) for e in edges}
    best = None
    for perm in permutations(range(n)):
        mask = 0
        for u, v in edgeset:
            mask |= 1 << index[tuple(sorted((perm[u], perm[v])))]
        if best is None or mask < best:
            best = mask
    return best


def nonisomorphic_graphs(max_vertices):
    """All connected-or-not graphs on 1..max_vertices vertices up to
    isomorphism, as (n, edge list) pairs."""
    found = []
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            canon = canonical_form(n, edges)
            if canon not in seen:
                seen.add(canon)
                found.append((n, edges))
    return found


def all_pairs_chain_or_antichain(fam, c, d):
    """The chain/antichain dichotomy from the full pair classification:
    every pair must be separated or crossing, and each path's depth is one
    more than the deepest path separated after it, over all b^2 pairs.

    It classifies pairs with the library's ``classify_pair``, which the
    classification tests check on their own, so that it checks only how
    ``chain_or_antichain`` finds depths, chains and layers: the same
    Selection, or the same InsufficientScale.
    """
    b = len(fam.paths)
    if b == 0:
        return InsufficientScale(0, 0, 0, c, d)
    after = [[False] * b for _ in range(b)]
    for i, j in combinations(range(b), 2):
        cls = classify_pair(fam, i, j)
        if cls == NEITHER:
            raise InvalidParameterError(f"paths {i} and {j} are neither")
        after[i][j] = cls == SEPARATED_LT
        after[j][i] = cls == SEPARATED_GT
    depth = [1] * b
    for i in reversed(sorted(range(b), key=lambda i: fam.extents[i][0])):
        for j in range(b):
            if after[i][j] and depth[j] + 1 > depth[i]:
                depth[i] = depth[j] + 1
    longest = max(depth)
    leaf = lambda i: (fam.leaves[i], i)
    if longest >= c:
        chain = [min((i for i in range(b) if depth[i] == longest), key=leaf)]
        while depth[chain[-1]] > 1:
            cur = chain[-1]
            chain.append(min((j for j in range(b) if after[cur][j] and depth[j] == depth[cur] - 1),
                             key=leaf))
        return Selection("separated", tuple(chain))
    layers = {}
    for i in range(b):
        layers.setdefault(depth[i], []).append(i)
    best = max(layers, key=lambda dep: (len(layers[dep]), -dep))
    if len(layers[best]) >= d:
        return Selection("crossing", tuple(sorted(layers[best])))
    return InsufficientScale(b, longest, len(layers[best]), c, d)


def find_monochromatic_clique(pair_colors, r, s):
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
    neighbours = {"red": [set() for _ in range(b)], "blue": [set() for _ in range(b)]}
    for (u, v), col in pair_colors.items():
        if col not in ("red", "blue"):
            raise InvalidParameterError(f"unknown colour {col!r}")
        neighbours[col][u].add(v)
        neighbours[col][v].add(u)

    def search(colour, size):
        if size == 1:
            return (0,) if b else None
        adj = neighbours[colour]

        def extend(clique, cands):
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

    hit = search("red", r)
    if hit:
        return "red", hit
    hit = search("blue", s)
    if hit:
        return "blue", hit
    return None
