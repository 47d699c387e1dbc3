"""Output checks for benchmark jobs, independent of linlay's own code.

Each checker reads the job's input files and its stdout and raises
CheckFailed when the output is wrong.  Layout validity, violation counts
and queue minima are recomputed here with sweeps over edge spans, so a
wrong answer from linlay cannot be confirmed by linlay itself.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left


class CheckFailed(Exception):
    """A job's output is wrong; the message says how."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load(workdir: str, name: str):
    with open(os.path.join(workdir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _positions(order: list) -> list:
    pos = [-1] * len(order)
    for i, v in enumerate(order):
        _require(0 <= v < len(order) and pos[v] == -1, "order is not a permutation")
        pos[v] = i
    return pos


def _span(pos, u: int, v: int) -> tuple:
    a, b = pos[u], pos[v]
    return (a, b) if a < b else (b, a)


def crosses(s, t) -> bool:
    return s[0] < t[0] < s[1] < t[1] or t[0] < s[0] < t[1] < s[1]


def nests(s, t) -> bool:
    return (s[0] < t[0] and t[1] < s[1]) or (t[0] < s[0] and s[1] < t[1])


def count_conflicts(kind: str, spans: list, size: int) -> int:
    """Same-class pairs that cross (stack) or strictly nest (queue), counted
    with a Fenwick tree over right ends while sweeping left ends."""
    tree = [0] * (size + 1)

    def add(i):
        i += 1
        while i <= size:
            tree[i] += 1
            i += i & -i

    def prefix(i):  # inserted right ends <= i
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    ordered = sorted(spans)
    inserted = 0
    count = 0
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            lo, hi = ordered[j]
            # earlier spans all start strictly before lo
            if kind == "stack":
                count += prefix(hi - 1) - prefix(lo)
            else:
                count += inserted - prefix(hi)
            j += 1
        for lo, hi in ordered[i:j]:
            add(hi)
            inserted += 1
        i = j
    return count


def max_rainbow(spans: list) -> int:
    """Largest set of pairwise strictly nested spans: the exact queue
    minimum of a fixed order (Heath and Rosenberg, 1992)."""
    # left ends ascending; equal left ends by right end ascending, so that a
    # strictly decreasing run of right ends never takes two of them
    rights = [-hi for lo, hi in sorted(spans, key=lambda s: (s[0], s[1]))]
    tails: list = []
    for x in rights:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def _graph(workdir: str, name: str):
    doc = _load(workdir, name)
    return len(doc["vertices"]), {tuple(e) for e in doc["edges"]}


def _layout_classes(layout: dict, vertex_count: int, edges: set):
    """Validate a layout document against a graph; return positions and
    the spans of each colour class."""
    pos = _positions(layout["order"])
    _require(len(pos) == vertex_count, "order does not cover the graph")
    classes: dict = {}
    seen = set()
    for key, color in layout["colors"].items():
        u, v = (int(x) for x in key.split("-"))
        e = (min(u, v), max(u, v))
        _require(e in edges and e not in seen, f"colour given for unknown or repeated edge {key}")
        seen.add(e)
        _require(isinstance(color, int) and color >= 0, f"bad colour {color!r}")
        classes.setdefault(color, []).append(_span(pos, *e))
    _require(len(seen) == len(edges), "colouring is not total on the edges")
    return pos, classes


def _conflicts(kind: str, classes: dict, size: int) -> int:
    return sum(count_conflicts(kind, spans, size) for spans in classes.values())


def _lines(stdout: bytes) -> list:
    return stdout.decode("utf-8").splitlines()


def check_solve(params, workdir, stdout, code):
    _require(code == 0, f"exit code {code}")
    lines = _lines(stdout)
    _require(len(lines) == 2, "expected k and a layout")
    k = int(lines[0])
    layout = json.loads(lines[1])
    _require(layout["kind"] == params["kind"], "layout kind differs from --kind")
    vertex_count, edges = _graph(workdir, params["graph"])
    pos, classes = _layout_classes(layout, vertex_count, edges)
    _require(sorted(classes) == list(range(k)), f"layout does not use exactly colours 0..{k - 1}")
    _require(_conflicts(params["kind"], classes, len(pos)) == 0, "printed layout is invalid")
    if params["known_k"] is not None:
        _require(k == params["known_k"], f"k = {k}, known value {params['known_k']}")


def check_qmin(params, workdir, stdout, code):
    _require(code == 0, f"exit code {code}")
    lines = _lines(stdout)
    _require(len(lines) == 2, "expected k and a layout")
    k = int(lines[0])
    layout = json.loads(lines[1])
    _require(layout["order"] == _load(workdir, params["order"]), "layout changed the order")
    vertex_count, edges = _graph(workdir, params["graph"])
    pos, classes = _layout_classes(layout, vertex_count, edges)
    _require(sorted(classes) == list(range(k)), f"layout does not use exactly colours 0..{k - 1}")
    _require(_conflicts("queue", classes, len(pos)) == 0, "printed layout is invalid")
    rainbow = max_rainbow([_span(pos, *e) for e in edges])
    _require(k == rainbow, f"k = {k} but the largest rainbow has {rainbow} edges")
    if params["known_k"] is not None:
        _require(k == params["known_k"], f"k = {k}, known value {params['known_k']}")


def check_verify(params, workdir, stdout, code):
    vertex_count, edges = _graph(workdir, params["graph"])
    layout = _load(workdir, params["layout"])
    kind = layout["kind"]
    pos, classes = _layout_classes(layout, vertex_count, edges)
    expected = _conflicts(kind, classes, len(pos))
    doc = json.loads(stdout)
    _require(code == (0 if expected == 0 else 1), f"exit code {code} with {expected} violations")
    _require(doc["valid"] == (expected == 0), "validity flag is wrong")
    listed = doc["violations"]
    _require(len(listed) == expected, f"{len(listed)} violations listed, {expected} exist")
    color = {}
    for key, c in layout["colors"].items():
        u, v = (int(x) for x in key.split("-"))
        color[(min(u, v), max(u, v))] = c
    predicate = crosses if kind == "stack" else nests
    pairs = set()
    for e, f in listed:
        e, f = tuple(e), tuple(f)
        _require(e in color and f in color and e != f, f"listed pair {e} {f} is not two edges")
        _require(color[e] == color[f], f"listed pair {e} {f} has two colours")
        _require(predicate(_span(pos, *e), _span(pos, *f)), f"listed pair {e} {f} does not conflict")
        pairs.add((min(e, f), max(e, f)))
    _require(len(pairs) == len(listed), "a violation is listed twice")


def product_edges(a: int, n: int) -> set:
    """Edges of S_a x H_n with vertex id = star_id * n^2 + grid_id."""
    cells = n * n
    grid = []
    for b in range(n):
        for x in range(n):
            i = b * n + x
            if x + 1 < n:
                grid.append((i, i + 1))
            if b + 1 < n:
                grid.append((i, i + n))
            if x + 1 < n and b + 1 < n:
                grid.append((i, i + n + 1))
    edges = {(s * cells + u, s * cells + v) for s in range(a + 1) for u, v in grid}
    edges.update((y, leaf * cells + y) for leaf in range(1, a + 1) for y in range(cells))
    return edges


def _product_label(vid: int, n: int) -> list:
    star, grid = divmod(vid, n * n)
    return ["t" if star == 0 else star, [grid % n + 1, grid // n + 1]]


def check_gen(params, workdir, stdout, code):
    _require(code == 0, f"exit code {code}")
    a, n = params["a"], params["n"]
    expected = product_edges(a, n)
    count = (a + 1) * n * n
    if params["format"] == "json":
        doc = json.loads(stdout)
        _require(doc["kind"] == "product" and doc["a"] == a and doc["n"] == n, "wrong header")
        _require(
            doc["vertices"] == [{"id": i, "label": _product_label(i, n)} for i in range(count)],
            "vertex list is wrong",
        )
        _require(doc["edges"] == [list(e) for e in sorted(expected)], "edge list is wrong")
        return
    lines = _lines(stdout)
    _require(lines[0] == "graph G {" and lines[-1] == "}", "not a DOT graph")
    ids = [int(line.split()[0]) for line in lines[1 : 1 + count]]
    _require(ids == list(range(count)), "vertex lines are wrong")
    found = []
    for line in lines[1 + count : -1]:
        u, dash, v = line.rstrip(";").split()[:3]
        _require(dash == "--", f"bad edge line {line!r}")
        found.append((int(u), int(v)))
    _require(len(found) == len(expected) and set(found) == expected, "edge lines are wrong")


def _hex_adjacent(p, q) -> bool:
    da, db = p[0] - q[0], p[1] - q[1]
    return abs(da) + abs(db) == 1 or (da == db and abs(da) == 1)


def check_hexpath(params, workdir, stdout, code):
    _require(code == 0, f"exit code {code}")
    coloring = _load(workdir, params["coloring"])
    n, rows = coloring["n"], coloring["rows"]

    def color(cell):
        a, b = cell
        _require(1 <= a <= n and 1 <= b <= n, f"cell {cell} outside the grid")
        return rows[b - 1][a - 1]

    doc = json.loads(stdout)
    path = [tuple(cell) for cell in doc["path"]]
    _require(doc["n"] == n, "wrong n")
    _require(len(path) >= n, f"path has {len(path)} vertices, fewer than n = {n}")
    _require(len(set(path)) == len(path), "path repeats a vertex")
    _require(all(color(cell) == doc["color"] for cell in path), "path is not one colour")
    _require(all(_hex_adjacent(p, q) for p, q in zip(path, path[1:])), "path leaves the grid edges")
    if params["trace"]:
        steps = doc["steps"]
        _require(steps and steps[-1]["far_boundary"] is None, "last step must end the walk")
        for step, following in zip(steps, steps[1:]):
            _require(step["far_boundary"] is not None, "inner step lacks a far boundary")
            _require(step["color"] != following["color"], "step colours do not alternate")
        for step in steps:
            _require(all(color(c) == step["color"] for c in step["component"]),
                     "component is not one colour")
        _require(set(path) <= {tuple(c) for c in steps[-1]["component"]},
                 "path leaves the last component")
        if params["steps"] is not None:
            _require(len(steps) == params["steps"], f"{len(steps)} steps, expected {params['steps']}")


def check_witness(params, workdir, stdout, code):
    a, n, c, d = params["a"], params["n"], params["c"], params["d"]
    doc = json.loads(stdout)
    _require(1 <= doc["b"] <= a, f"family size {doc['b']} outside 1..{a}")
    if params["block"]:
        _require(doc["b"] == a, f"block order kept {doc['b']} of {a} leaves")
    if code == 4:
        _require(doc["outcome"] == "insufficient-scale", "exit 4 without insufficient-scale")
        _require(doc["required_c"] == c and doc["required_d"] == d, "wrong targets echoed")
        _require(doc["longest_chain"] < c and doc["largest_antichain"] < d,
                 "reported insufficient although a target was reached")
        return
    _require(code == 0, f"exit code {code}")
    pos = _positions(_load(workdir, params["order"]))
    cells = n * n
    edges = [tuple(e) for e in doc["edges"]]
    _require(doc["lower_bound"] == len(edges) >= 1, "lower bound differs from the edge count")
    for u, v in edges:
        (su, gu), (sv, gv) = divmod(u, cells), divmod(v, cells)
        same_copy = su == sv and _hex_adjacent((gu % n, gu // n), (gv % n, gv // n))
        star_edge = gu == gv and min(su, sv) == 0 and max(su, sv) >= 1
        _require(u < v <= (a + 1) * cells - 1 and (same_copy or star_edge),
                 f"witness edge {(u, v)} is not in the product")
    spans = [_span(pos, u, v) for u, v in edges]
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            _require(crosses(spans[i], spans[j]), f"witness edges {edges[i]} {edges[j]} do not cross")
    if params["edges"] is not None:
        _require(doc["case"] == "II" and len(edges) == params["edges"],
                 f"case {doc['case']} with {len(edges)} edges")


CHECKERS = {
    "solve": check_solve,
    "qmin": check_qmin,
    "verify": check_verify,
    "gen": check_gen,
    "hexpath": check_hexpath,
    "witness": check_witness,
}


def check(job, workdir: str, stdout: bytes, code: int) -> None:
    """Raise CheckFailed unless the job's exit code and stdout are right."""
    try:
        CHECKERS[job.check](job.params, workdir, stdout, code)
    except CheckFailed:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from exc
