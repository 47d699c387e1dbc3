import sys
from itertools import chain, combinations
from random import Random

import pytest

import linlay.graphs
import linlay.witness
from linlay import (
    GridCoord,
    InsufficientScale,
    InternalInvariantError,
    InvalidParameterError,
    LinearOrder,
    PathFamily,
    WitnessReport,
    case_crossing,
    case_separated,
    extract_crossing_witness,
    identity_order,
    is_pairwise_crossing,
    make_star_hex_product,
    min_stack_colors_for_order,
    product_block_order,
    required_parameters,
)
from linlay.witness import (
    insufficient_to_json_dict,
    parameters_to_json_dict,
    witness_to_json_dict,
)


# ---------------------------------------------------------------------------
# scale arithmetic

def test_parameters_s1():
    p = required_parameters(1)
    assert (p.n, p.m, p.c, p.d) == (2, 8, 2, 17)
    assert (p.b_bound, p.m) == (17, 8)
    assert p.a_digits == len(str(17 ** 8)) == 10


def test_parameters_s2():
    p = required_parameters(2)
    assert (p.n, p.m) == (4, 32768)
    assert p.b_bound == 366145
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 200000))
    assert p.a_digits == len(str(p.b_bound ** p.m))


def test_parameters_s3_formula_only():
    p = required_parameters(3)
    assert p.n == 6
    assert p.m == 2 ** 35
    assert p.c == 6 and p.d == 4 * 36 * 3 + 1


def test_parameters_case_sizes_meet_target():
    # both branches of the extraction deliver at least s edges at scale
    for s in (1, 2, 3):
        p = required_parameters(s)
        assert min(p.c // 2, (p.n + 1) // 2) == s
        assert (p.d - 1) // (4 * p.n * p.n) == s


def test_parameters_reject_nonpositive():
    with pytest.raises(InvalidParameterError):
        required_parameters(0)


def test_parameters_json_shape():
    doc = parameters_to_json_dict(required_parameters(2))
    assert doc["b_bound"] == 366145
    assert doc["a_bound"]["digits"] == 182310


# ---------------------------------------------------------------------------
# synthetic case studies
#
# X = S_b x P_q with vertex ids (star_part u, slot j) -> u*q + j, hub u = 0.

def synthetic_family(b, q, position_of):
    total = (b + 1) * q
    seq = [None] * total
    for u in range(b + 1):
        for j in range(q):
            seq[position_of(u, j)] = u * q + j
    assert None not in seq
    order = LinearOrder.from_sequence(seq)
    paths = tuple(tuple(u * q + j for j in range(q)) for u in range(1, b + 1))
    hubs = tuple(j for j in range(q))
    return PathFamily(paths, order, tuple(range(1, b + 1))), hubs


def test_case_separated_subcase_one_fan():
    # all paths strictly before every hub copy: the first-half fan fires
    c, q = 4, 4
    fam, hubs = synthetic_family(
        c, q, lambda u, j: (u - 1) * q + j if u else c * q + j
    )
    label, edges = case_separated(fam, (0, 1, 2, 3), hubs)
    assert label == "separated_I_sub1"
    assert len(edges) == min(c // 2, (q + 1) // 2) == 2
    assert is_pairwise_crossing(fam.order, edges)


def test_case_separated_subcase_two_fan():
    # all hub copies before every path: the mirrored fan fires
    c, q = 4, 4
    fam, hubs = synthetic_family(
        c, q, lambda u, j: q + (u - 1) * q + j if u else j
    )
    label, edges = case_separated(fam, (0, 1, 2, 3), hubs)
    assert label == "separated_I_sub2"
    assert len(edges) == min((c + 1) // 2, (q + 1) // 2) == 2
    assert is_pairwise_crossing(fam.order, edges)


def test_case_separated_single_path_degenerate():
    fam, hubs = synthetic_family(1, 2, lambda u, j: u * 2 + j)
    label, edges = case_separated(fam, (0,), hubs)
    assert label == "separated_I_sub1"
    assert edges == ()


def test_case_crossing_block_twist():
    # block order: position(u, j) = j*(b+1) + u; every pair of paths crosses
    b, q = 5, 2
    fam, hubs = synthetic_family(b, q, lambda u, j: j * (b + 1) + u)
    for i, j in combinations(range(b), 2):
        from linlay import classify_pair

        assert classify_pair(fam, i, j) == "crossing"
    label, edges = case_crossing(fam, tuple(range(b)))
    assert label == "crossing_II"
    assert len(edges) == b - 1  # every other path lands in the same bundle
    assert is_pairwise_crossing(fam.order, edges)


def test_case_crossing_two_paths():
    fam, hubs = synthetic_family(2, 3, lambda u, j: j * 3 + u)
    label, edges = case_crossing(fam, (0, 1))
    assert label == "crossing_II"
    assert len(edges) == 1


def test_case_crossing_needs_two_paths():
    fam, hubs = synthetic_family(2, 2, lambda u, j: j * 3 + u)
    with pytest.raises(InvalidParameterError):
        case_crossing(fam, (0,))


@pytest.mark.parametrize("b, seq, edge", [
    # only the base edge (3, 4) is crossed, by (6, 7) with its inside end in
    # slot 1 and by (10, 11) with its inside end in slot 2
    (3, [4, 0, 1, 5, 7, 8, 11, 3, 6, 9, 2, 10], (6, 7)),
    # (6, 7) alone crosses the base edge at span (1, 3), and (7, 8) alone the
    # one at span (1, 5)
    (2, [8, 4, 6, 5, 7, 3, 0, 1, 2], (6, 7)),
    # both edges cross the base edge (4, 5) with their inside ends in slot 1;
    # their outside ends lie before it, in slots 0 and 2
    (2, [6, 8, 4, 3, 7, 5, 0, 1, 2], (6, 7)),
], ids=["inside-slot", "base-edge-right-end", "outside-slot"])
def test_case_crossing_tie_goes_to_the_smaller_key(b, seq, edge):
    fam, _ = synthetic_family(b, 3, lambda u, j: seq.index(u * 3 + j))
    assert case_crossing(fam, tuple(range(b))) == ("crossing_II", (edge,))


def test_case_crossing_edgeless_paths_raise_the_invariant_error():
    fam, _ = synthetic_family(2, 1, lambda u, j: u)
    with pytest.raises(InternalInvariantError, match="no edge of the other paths crosses"):
        case_crossing(fam, (0, 1))


# ---------------------------------------------------------------------------
# full pipeline

def test_leaf_major_pipeline_end_to_end():
    a, n = 4, 2
    order = identity_order((a + 1) * n * n)
    report = extract_crossing_witness(a, n, order, 2, 2)
    assert isinstance(report, WitnessReport)
    assert report.case == "separated_I_sub2"
    assert report.family_size_b == 4
    assert report.edges == ((0, 8),)
    assert report.lower_bound == 1
    assert is_pairwise_crossing(order, report.edges)


def test_reversed_block_pipeline():
    a, n = 9, 2
    size = (a + 1) * n * n
    order = LinearOrder.from_sequence(tuple(reversed(range(size))))
    report = extract_crossing_witness(a, n, order, 2, 2, trace=True)
    assert isinstance(report, WitnessReport)
    directions = {tuple(coord): d for coord, d in report.trace["directions"]}
    assert set(directions.values()) == {"decreasing"}
    assert is_pairwise_crossing(order, report.edges)


def test_block_order_pipeline_hits_crossing_case():
    a, n = 6, 2
    order = product_block_order(a, n)
    report = extract_crossing_witness(a, n, order, a + 1, 3)
    assert isinstance(report, WitnessReport)
    assert report.case == "crossing_II"
    assert report.lower_bound >= 1
    assert is_pairwise_crossing(order, report.edges)


def test_target_of_one_crossing_path_gives_empty_witness():
    # d = 1 asks for a single pairwise-crossing path; the bound
    # ceil((d-1)/4n^2) = 0 is met by an empty edge set
    a, n = 6, 2
    order = product_block_order(a, n)  # every pair of leaf paths crosses
    report = extract_crossing_witness(a, n, order, a + 1, 1)
    assert isinstance(report, WitnessReport)
    assert report.case == "crossing_II"
    assert report.edges == ()
    assert report.lower_bound == 0


def test_insufficient_scale_reported_not_raised():
    a, n = 2, 2
    order = identity_order((a + 1) * n * n)
    outcome = extract_crossing_witness(a, n, order, 5, 50)
    assert isinstance(outcome, InsufficientScale)
    assert outcome.family_size_b == 2
    assert outcome.longest_chain == 2
    assert outcome.required_c == 5 and outcome.required_d == 50
    doc = insufficient_to_json_dict(outcome)
    assert doc["outcome"] == "insufficient-scale"


def test_random_orders_sound_against_exact_minimum():
    a, n = 4, 2
    g = make_star_hex_product(a, n)
    rng = Random(2718)
    produced = 0
    for _ in range(50):
        seq = list(range(g.vertex_count))
        rng.shuffle(seq)
        order = LinearOrder.from_sequence(seq)
        outcome = extract_crossing_witness(a, n, order, 2, 2)
        if isinstance(outcome, InsufficientScale):
            continue
        produced += 1
        assert is_pairwise_crossing(order, outcome.edges)
        for e in outcome.edges:
            assert e in g.edges
        k, _ = min_stack_colors_for_order(g, order)
        assert k >= outcome.lower_bound
    assert produced > 0


def test_case_size_guarantees_small_corpus():
    rng = Random(31415)
    for a, n, c, d in ((4, 2, 2, 2), (9, 2, 3, 3), (8, 3, 2, 4)):
        size = (a + 1) * n * n
        for _ in range(40):
            seq = list(range(size))
            rng.shuffle(seq)
            order = LinearOrder.from_sequence(seq)
            outcome = extract_crossing_witness(a, n, order, c, d)
            if isinstance(outcome, InsufficientScale):
                continue
            if outcome.case.startswith("separated"):
                assert outcome.lower_bound >= min(c // 2, (n + 1) // 2)
            else:
                assert outcome.lower_bound >= -(-(d - 1) // (4 * n * n))


def test_witness_json_codes():
    order = identity_order(5 * 4)
    report = extract_crossing_witness(4, 2, order, 2, 2)
    doc = witness_to_json_dict(report)
    assert doc["case"] == "I.2"
    assert doc["edges"] == [[0, 8]]
    assert doc["b"] == 4
    assert doc["lower_bound"] == 1


def test_trace_artifacts_present():
    order = identity_order(5 * 4)
    report = extract_crossing_witness(4, 2, order, 2, 2, trace=True)
    assert set(report.trace) == {
        "leaves",
        "directions",
        "grid_path",
        "selection",
        "classification",
    }
    assert report.trace["selection"]["kind"] == "separated"
    matrix = report.trace["classification"]
    assert all(matrix[i][i] is None for i in range(len(matrix)))


def grouped_order(a, n, seed):
    """The hub copies, then seeded groups of leaves: group after group, and
    inside a group cell by cell, so leaves of two groups are separated and
    leaves of one group cross."""
    rng = Random(seed)
    cells = n * n
    cuts = sorted(rng.sample(range(2, a + 1), rng.randint(1, 3)))
    groups = [range(lo, hi) for lo, hi in zip([1] + cuts, cuts + [a + 1])]
    seq = list(range(cells)) + [u * cells + y for g in groups for y in range(cells) for u in g]
    return LinearOrder.from_sequence(seq)


@pytest.mark.parametrize("a, n, seed", [(6, 2, 1), (9, 3, 2), (12, 3, 3)])
def test_trace_classifies_each_unordered_pair_once(monkeypatch, a, n, seed):
    classify, families = linlay.witness.classify_pair, []

    def counting(fam, i, j):
        families.append(fam)
        return classify(fam, i, j)

    monkeypatch.setattr(linlay.witness, "classify_pair", counting)
    report = extract_crossing_witness(a, n, grouped_order(a, n, seed), 2, 2, trace=True)
    b = report.family_size_b
    assert b == a and len(families) == b * (b - 1) // 2
    fam = families[0]
    assert report.trace["classification"] == [
        [None if i == j else classify(fam, i, j) for j in range(b)] for i in range(b)
    ]
    kinds = {kind for row in report.trace["classification"] for kind in row}
    assert kinds == {None, "separated_lt", "separated_gt", "crossing"}


def test_pipeline_checks_edges_without_building_the_product(monkeypatch):
    def refuse(a, n):
        raise AssertionError("the product graph was built")

    monkeypatch.setattr(linlay.graphs, "make_star_hex_product", refuse)
    # also catches a copy of the name imported into the witness module
    monkeypatch.setattr(linlay.witness, "make_star_hex_product", refuse, raising=False)
    report = extract_crossing_witness(1024, 4, product_block_order(1024, 4), 2, 8)
    assert report.case == "crossing_II" and len(report.edges) == 7
    rng = Random(77)
    for a, n, c, d in ((4, 2, 2, 2), (8, 3, 2, 4)):
        seq = list(range((a + 1) * n * n))
        rng.shuffle(seq)
        extract_crossing_witness(a, n, LinearOrder.from_sequence(seq), c, d)


def test_pipeline_rejects_bad_arguments():
    with pytest.raises(InvalidParameterError):
        extract_crossing_witness(0, 2, identity_order(4), 1, 1)
    with pytest.raises(InvalidParameterError):
        extract_crossing_witness(2, 2, identity_order(7), 1, 1)
    for c, d in ((0, 1), (1, 0)):
        with pytest.raises(InvalidParameterError, match="c and d must be positive"):
            extract_crossing_witness(2, 2, identity_order(12), c, d)


# ---------------------------------------------------------------------------
# certificate checks, each made to fire by a faulty step before it

def test_leaf_order_check_fires_on_a_path_through_both_directions(monkeypatch):
    # S_3 x H_2: the hub, then the leaves ascending at cells 0, 2 and 3 and
    # descending at cell 1
    a, n = 3, 2
    cells = [[u * n * n + y for u in range(1, a + 1)] for y in range(n * n)]
    cells[1].reverse()
    order = LinearOrder.from_sequence([*range(n * n), *chain.from_iterable(cells)])
    assert isinstance(extract_crossing_witness(a, n, order, 2, 2), WitnessReport)
    # a path that leaves the one-colour class: cell 0, then cell 1
    monkeypatch.setattr(linlay.witness, "find_monochromatic_path",
                        lambda coloring: [GridCoord(1, 1), GridCoord(2, 1)])
    with pytest.raises(InternalInvariantError, match="grid path lost the monotone leaf ordering"):
        extract_crossing_witness(a, n, order, 2, 2)


def test_separated_case_check_fires_on_edges_that_do_not_cross(monkeypatch):
    fam, hubs = synthetic_family(4, 4, lambda u, j: (u - 1) * 4 + j if u else 16 + j)
    monkeypatch.setattr(linlay.witness, "is_pairwise_crossing", lambda order, edges: False)
    with pytest.raises(InternalInvariantError, match="separated-case edges failed"):
        case_separated(fam, (0, 1, 2, 3), hubs)


def test_crossing_case_check_fires_on_edges_that_do_not_cross(monkeypatch):
    fam, _ = synthetic_family(5, 2, lambda u, j: j * 6 + u)
    monkeypatch.setattr(linlay.witness, "is_pairwise_crossing", lambda order, edges: False)
    with pytest.raises(InternalInvariantError, match="crossing-case edges failed"):
        case_crossing(fam, tuple(range(5)))


def test_edge_membership_check_fires_on_an_edge_outside_the_product(monkeypatch):
    monkeypatch.setattr(linlay.witness, "star_hex_product_has_edge", lambda a, n, u, v: False)
    with pytest.raises(InternalInvariantError, match=r"witness edge \(0, 8\) missing"):
        extract_crossing_witness(4, 2, identity_order(20), 2, 2)
