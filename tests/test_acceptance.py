"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Criterion 4 requires the stack number of K_n to be 1
for n <= 3 and ceil(n/2) from n = 4 on (Bernhart and Kainen, "The book
thickness of a graph", J. Combin. Theory B, 1979), and its queue number to
be floor(n/2) for every n (Heath and Rosenberg, SIAM J. Comput. 1992).
K_3 needs one stack because any two triangle edges share an endpoint, so
no two of them can cross; the double-enumeration oracle confirms it.
"""

import json
import subprocess
import sys
from itertools import combinations, permutations
from random import Random

import pytest

from linlay import (
    InsufficientScale,
    LinearOrder,
    chain_or_antichain,
    classify_pair,
    extract_crossing_witness,
    find_monochromatic_path,
    identity_order,
    is_pairwise_crossing,
    longest_monotone_subsequence,
    make_hex_dual,
    make_star,
    make_star_hex_product,
    min_stack_colors_for_order,
    product_queue_layout,
    queue_number,
    ramsey_upper_bound,
    random_coloring,
    stack_number,
    verify_layout,
)
from linlay.layouts import DEFAULT_STACK_EDGE_LIMIT

from oracles import (
    brute_layout_number,
    complete_graph,
    dp_longest_monotone,
    find_monochromatic_clique,
    longest_monochromatic_path,
    random_tree,
)
from test_poset import uniform_random_family


def report(number: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number}: {tag}{suffix}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "linlay", *args], capture_output=True, text=True
    )


def test_criterion_1_constructed_four_queue_layout():
    g = make_star_hex_product(5, 3)
    layout = product_queue_layout(5, 3)
    result = verify_layout(g, layout)
    ok = (
        g.vertex_count == 54
        and len(g.edges) == 141
        and result.valid
        and result.violations == []
        and layout.coloring.k == 4
    )
    report(1, ok, "54 vertices, 141 edges, 4 queues, 0 violations")
    assert ok


def test_criterion_2_hex_lemma_randomized():
    checked = 0
    for n in range(2, 9):
        rng = Random(0xC0FFEE + n)
        grid = make_hex_dual(n)
        for i in range(10_000):
            coloring = random_coloring(n, rng)
            path = find_monochromatic_path(coloring)
            assert len(path) >= n, (n, i)
            assert len(set(path)) == len(path)
            tones = {coloring.color(c) for c in path}
            assert len(tones) == 1
            for p, q in zip(path, path[1:]):
                u = (p.b - 1) * n + (p.a - 1)
                v = (q.b - 1) * n + (q.a - 1)
                assert (min(u, v), max(u, v)) in grid.edges
            if n <= 4:
                assert len(path) <= longest_monochromatic_path(coloring)
            checked += 1
    report(2, True, f"{checked} colorings, n in 2..8, oracle-checked for n <= 4")


def test_criterion_3_monotone_subsequences():
    checked = 0
    guarantee_checks = 0

    def examine(seq):
        nonlocal checked, guarantee_checks
        direction, picked = longest_monotone_subsequence(seq)
        inc, dec = dp_longest_monotone(seq)
        assert len(picked) == max(inc, dec), seq
        values = [seq[i] for i in picked]
        if direction == "increasing":
            assert all(x < y for x, y in zip(values, values[1:]))
        else:
            assert all(x > y for x, y in zip(values, values[1:]))
        for r in range(1, 5):
            for s in range(1, 5):
                if len(seq) >= r * s + 1:
                    assert inc >= s + 1 or dec >= r + 1
                    guarantee_checks += 1
        checked += 1

    for n in range(1, 9):
        for perm in permutations(range(n)):
            examine(perm)
    rng = Random(0xE5)
    for _ in range(10_000):
        length = rng.randint(9, 32)
        examine(rng.sample(range(10 * length), length))
    report(3, True, f"{checked} sequences, {guarantee_checks} guarantee checks")


def test_criterion_4_exact_solvers_on_complete_graphs():
    failures = []
    for n in range(3, 8):
        g = complete_graph(n)
        sn = stack_number(g).k
        qn = queue_number(g).k
        want_sn = 1 if n <= 3 else -(-n // 2)
        want_qn = n // 2
        if sn != want_sn:
            failures.append(
                f"sn(K_{n}) = {sn}, required {want_sn} "
                "(1 for n <= 3, ceil(n/2) from n = 4)"
            )
        if qn != want_qn:
            failures.append(f"qn(K_{n}) = {qn}, required floor(n/2) = {want_qn}")
        if n <= 5:
            edges = sorted(g.edges)
            if sn != brute_layout_number(n, edges, "stack"):
                failures.append(f"sn(K_{n}) disagrees with double enumeration")
            if qn != brute_layout_number(n, edges, "queue"):
                failures.append(f"qn(K_{n}) disagrees with double enumeration")
    rng = Random(20)
    for _ in range(20):
        tree = random_tree(rng, rng.randint(2, 8))
        if stack_number(tree).k != 1:
            failures.append("a tree needed more than one stack")
        star = make_star(rng.randint(1, 8))
        if queue_number(star).k != 1:
            failures.append("a star needed more than one queue")
    report(4, not failures, "; ".join(failures) or "K_3..K_7 plus 20 trees/stars")
    assert not failures, failures


@pytest.fixture(scope="module")
def witness_corpus():
    corpus = []
    combos = ((2, 2), (3, 3), (2, 4), (4, 2))
    for a, n in ((4, 2), (9, 2), (8, 3)):
        size = (a + 1) * n * n
        rng = Random(1000 * a + n)
        for i in range(1000):
            seq = list(range(size))
            rng.shuffle(seq)
            order = LinearOrder.from_sequence(seq)
            c, d = combos[i % len(combos)]
            outcome = extract_crossing_witness(a, n, order, c, d)
            corpus.append((a, n, c, d, order, outcome))
    return corpus


def test_criterion_5_witness_soundness(witness_corpus):
    produced = 0
    exact_checked = 0
    for a, n, c, d, order, outcome in witness_corpus:
        if isinstance(outcome, InsufficientScale):
            continue
        produced += 1
        assert is_pairwise_crossing(order, outcome.edges), (a, n, c, d)
        assert outcome.lower_bound == len(outcome.edges)
        g = make_star_hex_product(a, n)
        assert all(e in g.edges for e in outcome.edges)
        if len(g.edges) <= DEFAULT_STACK_EDGE_LIMIT:
            k, _ = min_stack_colors_for_order(g, order)
            assert k >= outcome.lower_bound
            exact_checked += 1
    ok = produced > 0 and exact_checked > 0
    report(5, ok, f"{produced} witnesses, {exact_checked} exact-minimum checks")
    assert ok


def test_criterion_6_case_size_guarantees(witness_corpus):
    case_one = case_two = 0
    for a, n, c, d, order, outcome in witness_corpus:
        if isinstance(outcome, InsufficientScale):
            continue
        if outcome.case.startswith("separated"):
            assert outcome.lower_bound >= min(c // 2, (n + 1) // 2), (a, n, c, d)
            case_one += 1
        else:
            assert outcome.lower_bound >= -(-(d - 1) // (4 * n * n)), (a, n, c, d)
            case_two += 1
    ok = case_one > 0 and case_two > 0
    report(6, ok, f"case I fired {case_one} times, case II {case_two} times")
    assert ok


def test_criterion_7_chain_or_antichain_dichotomy():
    rng = Random(0xD11)
    oracle_agreements = 0
    for trial in range(1000):
        c = rng.randint(2, 5)
        d = rng.randint(2, 5)
        b = (c - 1) * (d - 1) + 1
        fam = uniform_random_family(rng, b, rng.randint(2, 4))
        selection = chain_or_antichain(fam, c, d)  # must not raise
        pairs = list(combinations(selection.indices, 2))
        if selection.kind == "separated":
            assert len(selection.indices) >= c
            assert all(classify_pair(fam, i, j).startswith("separated") for i, j in pairs)
        else:
            assert len(selection.indices) >= d
            assert all(classify_pair(fam, i, j) == "crossing" for i, j in pairs)
        if b <= 12:
            colors = {}
            for i, j in combinations(range(b), 2):
                cls = classify_pair(fam, i, j)
                colors[(i, j)] = "blue" if cls.startswith("separated") else "red"
            found = find_monochromatic_clique(colors, d, c)
            assert found is not None
            tone, members = found
            assert (tone == "red" and len(members) == d) or (
                tone == "blue" and len(members) == c
            )
            oracle_agreements += 1
    report(7, True, f"1000 families, {oracle_agreements} oracle agreements")


def test_criterion_8_ramsey_arithmetic():
    assert ramsey_upper_bound(3, 3) == 6
    pairs = list(combinations(range(6), 2))
    for mask in range(1 << 15):
        colors = {pairs[i]: ("red" if mask >> i & 1 else "blue") for i in range(15)}
        assert find_monochromatic_clique(colors, 3, 3) is not None
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    pentagon = {
        (u, v): ("red" if (u, v) in cycle else "blue")
        for u, v in combinations(range(5), 2)
    }
    assert find_monochromatic_clique(pentagon, 3, 3) is None
    proc = run_cli("params", "--s", "2")
    doc = json.loads(proc.stdout)
    assert doc["b_bound"] == 366145
    report(8, True, "2^15 colorings of K_6 exhausted; pentagon excluded; b_bound confirmed")


def test_criterion_9_cli_determinism():
    commands = [
        ("gen", "hex", "--n", "5"),
        ("gen", "product", "--a", "3", "--n", "2"),
        ("hexpath", "--random", "--n", "8", "--seed", "42", "--trace"),
        ("witness", "--a", "8", "--n", "3", "--c", "3", "--d", "3", "--random", "--seed", "5"),
        ("params", "--s", "3"),
    ]
    for command in commands:
        outputs = [run_cli(*command) for _ in range(3)]
        assert len({p.stdout for p in outputs}) == 1, command
        assert len({p.returncode for p in outputs}) == 1
    report(9, True, f"{len(commands)} commands, 3 byte-identical runs each")
