import itertools
import json
from random import Random

import pytest

import linlay.hexpath
from linlay import (
    GridColoring,
    GridCoord,
    InternalInvariantError,
    InvalidParameterError,
    boundary_sequence,
    coloring_from_json,
    find_monochromatic_path,
    hex_coord,
    make_hex_dual,
    plain_graph,
    random_coloring,
)
from linlay.graphs import hex_neighbours
from linlay.hexpath import coloring_to_json_dict

from oracles import (
    component_links,
    far_boundary,
    longest_monochromatic_path,
    reference_shortest_path,
)


def coords(pairs):
    return frozenset(GridCoord(a, b) for a, b in pairs)


def solid(n, color):
    return GridColoring.from_function(n, lambda c: color)


def shells(n):
    return GridColoring.from_function(n, lambda c: "RB"[max(c.a, c.b) % 2])


def stripes(n):
    return GridColoring.from_function(n, lambda c: "RB"[(c.a + c.b) // 2 % 2])


def check_path(coloring, path):
    n = coloring.n
    g = make_hex_dual(n)
    assert len(path) >= n
    assert len(set(path)) == len(path)
    tones = {coloring.color(c) for c in path}
    assert len(tones) == 1
    for p, q in zip(path, path[1:]):
        u = (p.b - 1) * n + (p.a - 1)
        v = (q.b - 1) * n + (q.a - 1)
        assert (min(u, v), max(u, v)) in g.edges


# ---------------------------------------------------------------------------
# far boundary

def test_far_boundary_of_origin_in_h2():
    assert far_boundary(2, [(1, 1)]) == coords([(1, 2), (2, 1), (2, 2)])


def test_far_boundary_of_everything_else():
    n = 4
    x = [(a, b) for a in range(1, 5) for b in range(1, 5) if (a, b) != (4, 4)]
    assert far_boundary(n, x) == coords([(4, 4)])


def test_far_boundary_large_region_with_pocket():
    # a region whose lower-left pocket is cut off from the far corner, so
    # the pocket's neighbours do not count
    x = [
        (1, 3), (2, 3), (2, 4), (2, 5), (3, 3),
        (4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3),
    ]
    expected = coords(
        [
            (1, 4), (1, 5), (2, 6), (3, 6), (3, 5), (3, 4), (4, 5),
            (5, 5), (5, 4), (6, 4), (6, 3), (6, 2), (5, 1),
        ]
    )
    assert far_boundary(6, x) == expected


def test_far_boundary_connected_property():
    rng = Random(11)
    g = make_hex_dual(5)
    for _ in range(60):
        # grow a random connected region avoiding [5,5]
        start = rng.randrange(24)
        region = {start}
        frontier = [start]
        for _ in range(rng.randint(0, 12)):
            base = rng.choice(frontier)
            options = [w for w in g.adjacency[base] if w != 24 and w not in region]
            if not options:
                continue
            w = rng.choice(options)
            region.add(w)
            frontier.append(w)
        cs = [GridCoord(v % 5 + 1, v // 5 + 1) for v in region]
        boundary = far_boundary(5, cs)  # asserts that it is connected
        assert boundary


# ---------------------------------------------------------------------------
# boundary sequence

def test_all_red_single_step():
    steps = boundary_sequence(solid(4, "R"))
    assert len(steps) == 1
    assert steps[0].color == "R"
    assert steps[0].component == coords(
        [(a, b) for a in range(1, 5) for b in range(1, 5)]
    )
    assert steps[0].far_boundary is None


def test_three_region_walk():
    # red corner block, blue hook around it, red band beyond; the third
    # component reaches the top side
    y1 = {(1, 1), (1, 2), (2, 1), (2, 2)}
    y3 = {
        (1, 5), (2, 6), (3, 6), (4, 6), (3, 5), (3, 4),
        (4, 4), (5, 4), (4, 3), (5, 3), (4, 2), (4, 1),
    }
    y2 = {(3, 1), (3, 2), (3, 3), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5)}
    red = y1 | y3
    coloring = GridColoring.from_function(
        6, lambda c: "R" if (c.a, c.b) in red else "B"
    )
    steps = boundary_sequence(coloring)
    assert [s.color for s in steps] == ["R", "B", "R"]
    assert steps[0].component == coords(y1)
    assert steps[1].component == coords(y2)
    assert steps[2].component == coords(y3)
    assert steps[2].far_boundary is None
    path = find_monochromatic_path(coloring)
    check_path(coloring, path)
    assert {coloring.color(c) for c in path} == {"R"}
    assert set(path) <= coords(y3)
    assert path[0].b == 1 and path[-1].b == 6  # bottom-to-top extraction


def test_parity_coloring_walk():
    coloring = GridColoring.from_function(
        4, lambda c: "R" if (c.a + c.b) % 2 == 0 else "B"
    )
    steps = boundary_sequence(coloring)
    tones = [s.color for s in steps]
    assert all(x != y for x, y in zip(tones, tones[1:]))
    for step in steps[:-1]:
        assert step.far_boundary is not None
        assert step.far_boundary <= coords(
            [(a, b) for a in range(1, 5) for b in range(1, 5)]
        )
    assert steps[-1].far_boundary is None


def test_boundary_alternation_random():
    rng = Random(5150)
    for _ in range(200):
        n = rng.randint(2, 7)
        coloring = random_coloring(n, rng)
        steps = boundary_sequence(coloring)
        tones = [s.color for s in steps]
        assert all(x != y for x, y in zip(tones, tones[1:]))
        assert GridCoord(1, 1) in steps[0].component
        far = {GridCoord(n, j) for j in range(1, n + 1)} | {
            GridCoord(i, n) for i in range(1, n + 1)
        }
        assert steps[-1].component & far
        for step in steps[:-1]:
            assert not step.component & far


def assert_walk_follows_definition(coloring):
    steps = boundary_sequence(coloring)
    for step in steps[:-1]:
        assert step.far_boundary == far_boundary(coloring.n, step.component)
    return steps


def test_walk_matches_far_boundary_definition_random():
    rng = Random(2718)
    for n, tenths, _ in itertools.product(range(2, 17), range(1, 10), range(3)):
        cells = {(a, b): rng.random() < tenths / 10 for a in range(1, n + 1)
                 for b in range(1, n + 1)}
        coloring = GridColoring.from_function(n, lambda c: "R" if cells[c] else "B")
        assert_walk_follows_definition(coloring)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_walk_matches_far_boundary_definition_structured(n):
    assert len(assert_walk_follows_definition(shells(n))) == n
    assert len(assert_walk_follows_definition(stripes(n))) == (n + 1) // 2


def test_shells_walk_takes_n_steps_at_64():
    steps = boundary_sequence(shells(64))
    assert len(steps) == 64
    assert [len(s.component) for s in steps] == [2 * k - 1 for k in range(1, 65)]
    check_path(shells(64), find_monochromatic_path(shells(64)))


def test_path_and_trace_share_one_walk(monkeypatch):
    calls = []
    walk = linlay.hexpath._walk
    monkeypatch.setattr(linlay.hexpath, "_walk", lambda c: calls.append(c) or walk(c))
    coloring = shells(9)
    steps = boundary_sequence(coloring)
    path = find_monochromatic_path(coloring)
    assert len(calls) == 1
    assert len(steps) == 9
    check_path(coloring, path)


def test_label_links_match_the_all_cells_pass():
    rng = Random(6174)
    colorings = [random_coloring(n, rng) for n in range(1, 13) for _ in range(20)]
    colorings += [pattern(n) for pattern in (shells, stripes) for n in range(1, 13)]
    for coloring in colorings:
        nbrs = hex_neighbours(coloring.n)
        label, pieces, links = linlay.hexpath._label(nbrs, [c for row in coloring.rows for c in row])
        assert links == component_links(nbrs, label)
        assert len(links) == len(pieces) - 1  # the touching pieces form a tree


def test_component_cycle_raises(monkeypatch):
    # without the diagonals the 2 x 2 grid is a 4-cycle, and a checkerboard
    # splits it into four singleton components joined in a cycle
    square = plain_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    monkeypatch.setattr(linlay.hexpath, "hex_neighbours", lambda n: square.adjacency)
    with pytest.raises(InternalInvariantError, match="tree"):
        boundary_sequence(GridColoring(2, (("R", "B"), ("B", "R"))))


def test_split_far_boundary_raises(monkeypatch):
    # on the 3 x 3 square grid the far boundary of the red 2 x 2 corner is
    # the cells right of it and those above it, which share no side
    square = plain_graph(9, [(v, v + 1) for v in range(9) if v % 3 < 2]
                         + [(v, v + 3) for v in range(6)])
    monkeypatch.setattr(linlay.hexpath, "hex_neighbours", lambda n: square.adjacency)
    coloring = GridColoring(3, (("R", "R", "B"), ("R", "R", "B"), ("B", "B", "B")))
    with pytest.raises(InternalInvariantError, match="far boundary split into several pieces"):
        boundary_sequence(coloring)


# ---------------------------------------------------------------------------
# path extraction

def test_neighbour_table_matches_the_hex_graph():
    steps = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
    for n in range(1, 13):
        table = hex_neighbours(n)
        assert table == make_hex_dual(n).adjacency
        assert sum(map(len, table)) == 2 * (3 * n * n - 4 * n + 1)
        for v, row in enumerate(table):
            expected = [w for w in range(n * n) if (w % n - v % n, w // n - v // n) in steps]
            assert list(row) == expected


def test_path_is_the_graph_bfs_path_across_the_terminal_component():
    # the path BFS runs on the neighbour table; an independent deque BFS
    # on the graph must give the same path, tie-breaks included
    rng = Random(1729)
    for _ in range(300):
        n = rng.randint(1, 40)
        red = rng.uniform(0.1, 0.9)
        cells = [rng.random() < red for _ in range(n * n)]
        coloring = GridColoring.from_function(
            n, lambda c: "R" if cells[(c.b - 1) * n + c.a - 1] else "B")
        terminal = {(c.b - 1) * n + c.a - 1 for c in boundary_sequence(coloring)[-1].component}
        if any(v >= n * n - n for v in terminal):
            start = min(v for v in terminal if v < n)
            goal = min(v for v in terminal if v >= n * n - n)
        else:
            start = min(v for v in terminal if v % n == 0)
            goal = min(v for v in terminal if v % n == n - 1)
        expected = reference_shortest_path(make_hex_dual(n), start, goal, restrict=terminal)
        assert find_monochromatic_path(coloring) == [hex_coord(v, n) for v in expected]


def test_single_vertex_grid():
    assert find_monochromatic_path(solid(1, "B")) == [GridCoord(1, 1)]


def test_all_blue_three_grid():
    path = find_monochromatic_path(solid(3, "B"))
    check_path(solid(3, "B"), path)
    assert len(path) == 3


def test_random_colorings_give_valid_paths():
    for n in range(2, 9):
        rng = Random(4000 + n)
        for _ in range(400):
            coloring = random_coloring(n, rng)
            path = find_monochromatic_path(coloring)
            check_path(coloring, path)


def test_path_lengths_against_exhaustive_search():
    for n in (2, 3, 4):
        rng = Random(8800 + n)
        for _ in range(250):
            coloring = random_coloring(n, rng)
            path = find_monochromatic_path(coloring)
            check_path(coloring, path)
            assert len(path) <= longest_monochromatic_path(coloring)


def test_deterministic_output():
    rng1, rng2 = Random(99), Random(99)
    c1, c2 = random_coloring(6, rng1), random_coloring(6, rng2)
    assert c1 == c2
    assert find_monochromatic_path(c1) == find_monochromatic_path(c2)


def test_color_refuses_coordinates_outside_the_grid():
    # [0, 0] used to read [n, n] through index -1, and [n + 1, 1] an IndexError
    coloring = GridColoring(3, (("R", "B", "B"), ("B", "B", "B"), ("B", "B", "B")))
    assert coloring.color(GridCoord(1, 1)) == "R"
    assert coloring.color(GridCoord(3, 3)) == "B"
    for a, b in [(0, 0), (4, 1), (1, 4), (0, 2), (2, 0), (-1, -1)]:
        with pytest.raises(InvalidParameterError, match="outside the 3 x 3 grid"):
            coloring.color(GridCoord(a, b))


# ---------------------------------------------------------------------------
# JSON

def test_coloring_json_round_trip():
    coloring = random_coloring(4, Random(1))
    text = json.dumps(coloring_to_json_dict(coloring), separators=(",", ":"))
    again = coloring_from_json(text)
    assert again == coloring
    doc = json.loads(text)
    assert doc["n"] == 4
    assert len(doc["rows"]) == 4


def test_coloring_json_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        coloring_from_json("{")
    with pytest.raises(InvalidParameterError):
        coloring_from_json('{"n": 2, "rows": [["R"]]}')
    with pytest.raises(InvalidParameterError):
        coloring_from_json('{"n": 1, "rows": [["purple"]]}')
    # a row written as a string, and rows written as an object keyed by the rows
    with pytest.raises(InvalidParameterError, match="lists"):
        coloring_from_json('{"n":2,"rows":["RB","BR"]}')
    with pytest.raises(InvalidParameterError, match="lists"):
        coloring_from_json('{"n":2,"rows":{"RB":1,"BR":0}}')
