from itertools import combinations
from random import Random

import pytest

import linlay.poset
from linlay import (
    INCREASING,
    GridColoring,
    InsufficientScale,
    InvalidParameterError,
    LinearOrder,
    PathFamily,
    chain_or_antichain,
    classify_pair,
    consistent_leaf_family,
    find_monochromatic_path,
    hex_vertex_id,
    product_block_order,
    ramsey_upper_bound,
)

from oracles import all_pairs_chain_or_antichain, find_monochromatic_clique


def family_from_positions(position_rows, leaves=None):
    """Build a PathFamily from explicit positions: row i lists the
    positions of path i's vertices along its grid path."""
    b = len(position_rows)
    q = len(position_rows[0])
    total = b * q
    seq = [None] * total
    vid = 0
    paths = []
    for row in position_rows:
        path = []
        for p in row:
            seq[p] = vid
            path.append(vid)
            vid += 1
        paths.append(tuple(path))
    assert None not in seq, "positions must tile 0..total-1"
    order = LinearOrder.from_sequence(seq)
    return PathFamily(tuple(paths), order, tuple(leaves) if leaves else tuple(range(b)))


def uniform_random_family(rng, b, q):
    """Random order that keeps the leaf ordering identical at every slot,
    which is exactly the precondition of the dichotomy."""
    total = b * q
    slots = [[] for _ in range(q)]
    spots = list(range(total))
    rng.shuffle(spots)
    for j in range(q):
        chunk = sorted(spots[j * b : (j + 1) * b])
        slots[j] = chunk
    seq = [None] * total
    paths = [[None] * q for _ in range(b)]
    vid = 0
    for i in range(b):
        for j in range(q):
            pos = slots[j][i]
            seq[pos] = vid
            paths[i][j] = vid
            vid += 1
    order = LinearOrder.from_sequence(seq)
    return PathFamily(tuple(tuple(p) for p in paths), order, tuple(range(b)))


# ---------------------------------------------------------------------------
# classification

def test_separated_pair():
    fam = family_from_positions([[0, 1, 2], [3, 4, 5]])
    assert classify_pair(fam, 0, 1) == "separated_lt"
    assert classify_pair(fam, 1, 0) == "separated_gt"


def test_crossing_pair():
    # copies interleave slot by slot, the classic twist pattern
    fam = family_from_positions([[0, 2], [1, 3]])
    assert classify_pair(fam, 0, 1) == "crossing"


def test_neither_pair_flags_broken_premise():
    # path 0's edge nests inside path 1's edge; only possible when the
    # two slots order the leaves oppositely
    fam = family_from_positions([[1, 2], [0, 3]])
    assert classify_pair(fam, 0, 1) == "neither"
    pos = fam.order.position
    # slot 0: path 1 before path 0; slot 1: path 1 after path 0
    assert pos[fam.paths[1][0]] < pos[fam.paths[0][0]]
    assert pos[fam.paths[1][1]] > pos[fam.paths[0][1]]


def test_classify_rejects_bad_indices():
    fam = family_from_positions([[0, 1], [2, 3]])
    with pytest.raises(InvalidParameterError):
        classify_pair(fam, 0, 0)
    with pytest.raises(InvalidParameterError):
        classify_pair(fam, 0, 9)


def test_separated_lt_transitive_on_random_families():
    rng = Random(100)
    for _ in range(30):
        fam = uniform_random_family(rng, rng.randint(3, 7), rng.randint(2, 4))
        b = len(fam.paths)
        cls = {(i, j): classify_pair(fam, i, j) for i in range(b) for j in range(b) if i != j}
        assert all(v != "neither" for v in cls.values())
        for i, j, k in combinations(range(b), 3):
            for x, y, z in ((i, j, k), (i, k, j), (j, i, k)):
                if cls[(x, y)] == "separated_lt" and cls[(y, z)] == "separated_lt":
                    assert cls[(x, z)] == "separated_lt"


# ---------------------------------------------------------------------------
# chain / antichain

def test_fully_separated_family_returns_whole_chain():
    rows = [[0, 1], [2, 3], [4, 5]]
    fam = family_from_positions(rows)
    sel = chain_or_antichain(fam, 3, 2)
    assert sel.kind == "separated"
    assert sel.indices == (0, 1, 2)


def test_fully_crossing_family_returns_whole_antichain():
    fam = family_from_positions([[0, 3], [1, 4], [2, 5]])
    sel = chain_or_antichain(fam, 4, 3)
    assert sel.kind == "crossing"
    assert sel.indices == (0, 1, 2)


def test_mixed_family_pigeonhole():
    # 5 paths at the c = d = 3 threshold: chains (0 < 2), (0 < 3), (1 < 3)
    # and crossings everywhere else, so layering must yield an antichain
    rows = [
        [0, 3],
        [1, 5],
        [4, 8],
        [6, 9],
        [2, 7],
    ]
    fam = family_from_positions(rows)
    cls = {(i, j): classify_pair(fam, i, j) for i in range(5) for j in range(5) if i != j}
    assert all(v != "neither" for v in cls.values())
    sel = chain_or_antichain(fam, 3, 3)
    assert sel.kind == "crossing"
    assert len(sel.indices) >= 3
    for i, j in combinations(sel.indices, 2):
        assert cls[(i, j)] == "crossing"


def test_chain_or_antichain_never_fails_at_threshold():
    rng = Random(860)
    for _ in range(120):
        c = rng.randint(2, 5)
        d = rng.randint(2, 5)
        b = (c - 1) * (d - 1) + 1
        fam = uniform_random_family(rng, b, rng.randint(2, 4))
        sel = chain_or_antichain(fam, c, d)
        cls = lambda i, j: classify_pair(fam, i, j)
        if sel.kind == "separated":
            assert len(sel.indices) >= c
            for i, j in combinations(sel.indices, 2):
                assert cls(i, j).startswith("separated")
        else:
            assert len(sel.indices) >= d
            for i, j in combinations(sel.indices, 2):
                assert cls(i, j) == "crossing"


def test_family_too_small_reports_sizes():
    fam = family_from_positions([[0, 1], [2, 3]])
    outcome = chain_or_antichain(fam, 5, 5)
    assert isinstance(outcome, InsufficientScale)
    assert outcome.longest_chain == 2
    assert outcome.required_c == 5
    empty = PathFamily((), LinearOrder.from_sequence(()), ())
    assert chain_or_antichain(empty, 3, 4) == InsufficientScale(0, 0, 0, 3, 4)
    for c, d in ((0, 1), (1, 0)):
        with pytest.raises(InvalidParameterError, match="c and d must be positive"):
            chain_or_antichain(fam, c, d)


def test_neither_pair_raises_precondition_violation():
    fam = family_from_positions([[1, 2], [0, 3]])
    with pytest.raises(InvalidParameterError) as err:
        chain_or_antichain(fam, 2, 2)
    assert "0" in str(err.value) and "1" in str(err.value)


def test_chain_tie_break_prefers_small_leaves():
    # two interleaved chains of equal length; smallest leaf tuple wins
    # paths: A1=[0,2] < A2=[3,6], B1=[1,4] < B2=[5,7], A crossing B slotwise
    rows = [[0, 2], [3, 6], [1, 4], [5, 7]]
    fam = family_from_positions(rows, leaves=[9, 8, 2, 1])
    sel = chain_or_antichain(fam, 2, 99)
    assert sel.kind == "separated"
    leaf_tuple = tuple(fam.leaves[i] for i in sel.indices)
    assert leaf_tuple == (2, 1)


# ---------------------------------------------------------------------------
# agreement with the all-pairs dichotomy, and no all-pairs work

def witness_family(a, n, order):
    """The path family that extract_crossing_witness classifies for order."""
    leaves = consistent_leaf_family(order, a, n)
    coloring = GridColoring.from_function(
        n, lambda c: "R" if leaves.direction[c] == INCREASING else "B"
    )
    slots = [hex_vertex_id(c, n) for c in find_monochromatic_path(coloring)[:n]]
    paths = tuple(tuple(u * n * n + s for s in slots) for u in leaves.leaves)
    return PathFamily(paths, order, leaves.leaves)


def test_matches_all_pairs_dichotomy_on_random_families():
    rng = Random(6006)
    for trial in range(600):
        c, d = rng.randint(1, 7), rng.randint(1, 7)
        threshold = (c - 1) * (d - 1) + 1
        b = threshold if trial % 3 else rng.randint(1, threshold)
        fam = uniform_random_family(rng, b, rng.randint(1, 5))
        if trial % 2:  # leaves out of index order exercise the tie-breaks
            fam = PathFamily(fam.paths, fam.order, tuple(rng.sample(range(1, 4 * b), b)))
        expected = all_pairs_chain_or_antichain(fam, c, d)
        assert chain_or_antichain(fam, c, d) == expected


@pytest.mark.parametrize("a", [16, 64, 256])
def test_matches_all_pairs_dichotomy_on_witness_families(a):
    rng = Random(a)
    cases = [(4, product_block_order(a, 4))]
    for n in (2, 3, 4):
        seq = list(range((a + 1) * n * n))
        rng.shuffle(seq)
        cases.append((n, LinearOrder.from_sequence(seq)))
    for n, order in cases:
        fam = witness_family(a, n, order)
        b = len(fam.paths)
        for c, d in ((1, 1), (2, 8), (3, 3), (b, 2), (b + 1, b), (b + 1, b + 1)):
            expected = all_pairs_chain_or_antichain(fam, c, d)
            assert chain_or_antichain(fam, c, d) == expected


def test_block_family_classifies_only_the_printed_antichain(monkeypatch):
    fam = witness_family(1024, 4, product_block_order(1024, 4))
    calls = []

    def counted(*args):
        calls.append(args)
        return classify_pair(*args)

    monkeypatch.setattr(linlay.poset, "classify_pair", counted)
    d = 8
    selection = chain_or_antichain(fam, 2, d)
    assert selection.kind == "crossing" and len(selection.indices) == 1024
    assert 0 < len(calls) <= d * (d - 1) // 2


# ---------------------------------------------------------------------------
# Ramsey arithmetic and the clique oracle

def test_ramsey_upper_bound_values():
    assert ramsey_upper_bound(2, 2) == 2
    assert ramsey_upper_bound(3, 3) == 6
    assert ramsey_upper_bound(4, 129) == 366145
    assert ramsey_upper_bound(2, 17) == 17


def test_ramsey_upper_bound_symmetry():
    for r in range(1, 8):
        for s in range(1, 8):
            assert ramsey_upper_bound(r, s) == ramsey_upper_bound(s, r)


def test_ramsey_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        ramsey_upper_bound(0, 3)


def all_red(b):
    return {(u, v): "red" for u, v in combinations(range(b), 2)}


def test_clique_finder_all_red_triangle():
    found = find_monochromatic_clique(all_red(3), 3, 3)
    assert found == ("red", (0, 1, 2))


def test_clique_finder_pentagon_has_no_mono_triangle():
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    colors = {
        (u, v): ("red" if (u, v) in cycle else "blue")
        for u, v in combinations(range(5), 2)
    }
    assert find_monochromatic_clique(colors, 3, 3) is None


def test_clique_finder_k6_sample():
    rng = Random(66)
    pairs = list(combinations(range(6), 2))
    for _ in range(500):
        colors = {p: ("red" if rng.getrandbits(1) else "blue") for p in pairs}
        found = find_monochromatic_clique(colors, 3, 3)
        assert found is not None
        tone, clique = found
        assert len(clique) == 3
        for u, v in combinations(clique, 2):
            assert colors[(u, v)] == tone


def test_clique_finder_validates_input():
    with pytest.raises(InvalidParameterError):
        find_monochromatic_clique({(0, 1): "red", (0, 2): "red"}, 2, 2)
    with pytest.raises(InvalidParameterError):
        find_monochromatic_clique({(0, 1): "green"}, 2, 2)
