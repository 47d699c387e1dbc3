"""Mutation check of the tier-1 suite: apply each known mutant, one at a
time, to a temporary copy of the repository, run tier-1 there with ``-x``,
and list the mutants that no test kills.

Run from anywhere with ``python tests/mutants.py``; stdlib only, and
pytest does not collect it.

A mutant is one exact replacement of text in one file, which must occur
exactly once.  Each mutant names its killer, the test that killed it in
the last full run.  That test runs first, and a mutant counts as killed
when it fails there (pytest exit 1).  Any other exit (0 when it passes,
2-5 for an interrupted run, an error or an unknown test id) runs the
whole tier-1, as every mutant once did, so a stale killer costs time but
never changes a verdict.  The unmutated copy runs first and must pass.
Exit 0 when every mutant is killed or listed in EQUIVALENT, 1 when
another survives, 2 when the unmutated copy fails or a mutant's text is
not found once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900  # a hang counts as killed

# (name, file, exact old text, new text, what the mutant breaks, killer test id)
MUTANTS = [
    ("spans-cross-non-strict", "src/linlay/layouts.py",
     "return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1",
     "return a1 < a2 <= b1 < b2 or a2 < a1 <= b2 < b1",
     "spans that share an end count as crossing",
     "tests/test_layouts.py::test_shared_endpoints_neither_cross_nor_nest"),
    ("crossing-sweep-pop", "src/linlay/layouts.py",
     "while ends and ends[-1] <= a:", "while ends and ends[-1] < a:",
     "a span closing where the next opens stays open in the stack sweep",
     "tests/test_layouts.py::test_verify_fast_path_matches_pair_scan"),
    ("nesting-gt-to-ge", "src/linlay/layouts.py",
     "any(map(gt, ends, islice(ends, 1, None)))",
     "any(map(lambda x, y: x >= y, ends, islice(ends, 1, None)))",
     "spans with one right end count as nesting",
     "tests/test_layouts.py::test_verify_fast_path_matches_pair_scan"),
    ("patience-bisect-side", "src/linlay/layouts.py",
     "j = bisect_left(tails, x)", "j = bisect_right(tails, x)",
     "equal values share a pile, so rainbows and chains are miscounted",
     "tests/test_acceptance.py::test_criterion_4_exact_solvers_on_complete_graphs"),
    ("partners-sorted-by-right", "src/linlay/layouts.py",
     "sorted([(a, -b, b, i)",
     "sorted([(a, b, b, i)",
     "partners with one left end chain in the clique's run",
     "tests/test_layouts.py::test_largest_crossing_matches_subset_scan"),
    ("clique-off-by-one", "src/linlay/layouts.py",
     "best = max(best, 2 + max(patience_piles(", "best = max(best, 1 + max(patience_piles(",
     "the largest crossing set is one too small",
     "tests/test_layouts.py::test_largest_crossing_matches_subset_scan"),
    ("conflict-graph-one-way", "src/linlay/layouts.py",
     "            adj[j].append(i)\n", "            pass\n",
     "a conflict is seen only from the span that starts first",
     "tests/test_acceptance.py::test_criterion_4_exact_solvers_on_complete_graphs"),
    ("sweep-pair-key-one-way", "src/linlay/layouts.py",
     "keys += [x * m + y if x < y else y * m + x", "keys += [x * m + y",
     "a pair whose later edge starts first is listed back to front",
     "tests/test_layouts.py::test_verify_fast_path_matches_pair_scan"),
    ("sweep-bisect-right", "src/linlay/layouts.py",
     "bisect_left(edges, e)", "bisect_right(edges, e)",
     "each violating edge is numbered as the edge after it",
     "tests/test_layouts.py::test_one_color_k4_stack_violations_exhaustive"),
    ("leaf-order-check", "src/linlay/witness.py",
     "if len({pos[u] < pos[v] for p, q in zip(paths, paths[1:]) for u, v in zip(p, q)}) > 1:",
     "if False:",
     "a grid path whose leaf copies change direction goes unnoticed",
     "tests/test_witness.py::test_leaf_order_check_fires_on_a_path_through_both_directions"),
    ("separated-case-check", "src/linlay/witness.py",
     'if not is_pairwise_crossing(order, edges):\n        raise InternalInvariantError("separated',
     'if False:\n        raise InternalInvariantError("separated',
     "separated-case edges are not re-verified to cross",
     "tests/test_witness.py::test_separated_case_check_fires_on_edges_that_do_not_cross"),
    ("crossing-case-check", "src/linlay/witness.py",
     'if not is_pairwise_crossing(order, edges):\n        raise InternalInvariantError("crossing',
     'if False:\n        raise InternalInvariantError("crossing',
     "crossing-case edges are not re-verified to cross",
     "tests/test_witness.py::test_crossing_case_check_fires_on_edges_that_do_not_cross"),
    ("edge-membership-check", "src/linlay/witness.py",
     "if not star_hex_product_has_edge(a, n, *e):", "if False:",
     "a witness edge outside the product goes unnoticed",
     "tests/test_witness.py::test_edge_membership_check_fires_on_an_edge_outside_the_product"),
    ("order-cap-always-exact", "src/linlay/solve.py",
     "next(orders, None) is None", "True",
     "a scan cut by max_orders still counts as exact",
     "tests/test_cli.py::test_solve_order_cap"),
    ("stack-density-floor-le", "src/linlay/solve.py",
     "n + k * (n - 3) < m:", "n + k * (n - 3) <= m:",
     "the stack floor rises one too early at the Bernhart-Kainen bound",
     "tests/test_solver.py::test_agreement_with_double_enumeration_small"),
    ("early-floor-stop", "src/linlay/solve.py",
     "if best_k <= floor:", "if best_k <= floor + 1:",
     "the scan stops one above the floor, before an optimum",
     "tests/test_acceptance.py::test_criterion_4_exact_solvers_on_complete_graphs"),
    ("dsatur-colour-cap", "src/linlay/layouts.py",
     "top = min(used + 1, best_k - 1)", "top = min(used + 1, best_k)",
     "DSATUR accepts a colouring equal to the incumbent or the cutoff",
     "tests/test_layouts.py::test_stack_min_pentagram_accepts_only_strictly_fewer_stacks_than_the_cutoff"),
    ("ramsey-binomial", "src/linlay/poset.py",
     "return comb(r + s - 2, r - 1)", "return comb(r + s - 1, r - 1)",
     "the Ramsey bound is the wrong binomial",
     "tests/test_acceptance.py::test_criterion_8_ramsey_arithmetic"),
    ("star-edge-check", "src/linlay/graphs.py",
     "return y == y2 and x == 0", "return y == y2",
     "two leaf copies of one cell pass as a star edge",
     "tests/test_graphs.py::test_product_edge_check_matches_the_built_product"),
    ("incumbent-not-strict", "src/linlay/solve.py",
     "(best_k is None or k < best_k)", "(best_k is None or k <= best_k)",
     "a later order as good as the incumbent replaces the first optimal one",
     "tests/test_solver.py::test_floor_stop_matches_full_scan"),
    ("orders-symmetry-flipped", "src/linlay/solve.py",
     "rest[0] < rest[-1]", "rest[0] > rest[-1]",
     "the other order of each reversal pair is scanned",
     "tests/test_solver.py::test_first_found_optimum_is_lexicographic"),
    ("orders-not-lexicographic", "src/linlay/solve.py",
     "for rest in permutations(range(len(head), n)):",
     "for rest in permutations(range(n - 1, len(head) - 1, -1)):",
     "orders are scanned in descending lexicographic order",
     "tests/test_solver.py::test_first_found_optimum_is_lexicographic"),
    ("far-boundary-split-check", "src/linlay/hexpath.py",
     "if len(reach(next(iter(boundary)), nbrs, boundary)) != len(boundary):",
     "if False:",
     "a far boundary split into pieces goes unnoticed",
     "tests/test_hexpath.py::test_split_far_boundary_raises"),
    ("hexpath-output-keys-swapped", "src/linlay/cli.py",
     'doc = {"n": coloring.n, "color": coloring.color(path[0]), "path": path}',
     'doc = {"color": coloring.color(path[0]), "n": coloring.n, "path": path}',
     "hexpath prints the same document with its keys in another order",
     "tests/test_cli.py::test_grid_witness_jobs_match_the_benchmark_digests"),
    ("largest-top-goal", "src/linlay/hexpath.py",
     "goal = min(v for v in terminal if v >= n * n - n)",
     "goal = max(v for v in terminal if v >= n * n - n)",
     "the path ends at the largest top-side cell, not the smallest",
     "tests/test_cli.py::test_grid_witness_jobs_match_the_benchmark_digests"),
    ("reach-reversed", "src/linlay/graphs.py",
     "for w in nbrs[v]:\n            if w in inside",
     "for w in reversed(nbrs[v]):\n            if w in inside",
     "the breadth-first search scans neighbours in reverse, so ties break the other way",
     "tests/test_cli.py::test_grid_witness_jobs_match_the_benchmark_digests"),
    ("label-per-piece-check", "src/linlay/hexpath.py",
     "if len(met) != (k > 0):", "if False:",
     "a piece touching two earlier pieces, a cycle of components, goes unnoticed",
     "tests/test_hexpath.py::test_component_cycle_raises"),
    ("main-flush-dropped", "src/linlay/cli.py",
     "        sys.stdout.flush()\n        return code",
     "        return code",
     "os._exit drops whatever stdout still buffers",
     "tests/test_cli.py::test_closed_stdout_pipe_before_any_output_exits_2_with_one_line[help]"),
    ("main-module-calls-main", "src/linlay/__main__.py",
     "from .cli import script\n\nscript()", "from .cli import main\n\nmain()",
     "python -m linlay ignores main's exit code",
     "tests/test_cli.py::test_usage_error_is_one_error_line[bad-value]"),
    ("oracle-queue-rotation", "tests/oracles.py",
     '    if kind == "stack":\n        return ((0, *rest)',
     '    if True:\n        return ((0, *rest)',
     "the brute oracle also reduces queue orders by rotation, which changes nestings",
     "tests/test_solver.py::test_agreement_with_double_enumeration_small"),
    ("hexpath-source-optional", "src/linlay/cli.py",
     "source = hexpath.add_mutually_exclusive_group(required=True)",
     "source = hexpath.add_mutually_exclusive_group(required=False)",
     "hexpath with no input source reaches the handler",
     "tests/test_cli.py::test_usage_error_is_one_error_line[hexpath-no-source]"),
    ("gen-size-defaults-dropped", "src/linlay/cli.py",
     "gen_kind.set_defaults(func=_cmd_gen, a=0, n=1)",
     "gen_kind.set_defaults(func=_cmd_gen)",
     "gen hex and gen star lack the size their kind does not take",
     "tests/test_cli.py::test_gen_hex"),
    ("largest-group-ties-to-largest", "src/linlay/poset.py",
     "return min(groups, key=lambda k: (-len(groups[k]), k))",
     "return max(groups, key=lambda k: (len(groups[k]), k))",
     "every largest-group tie goes to the largest key",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[inside-slot]"),
    ("base-edge-tie-to-largest", "src/linlay/witness.py",
     "lo, hi = largest_group(crossing)",
     "lo, hi = max(crossing, key=lambda s: (len(crossing[s]), s))",
     "Case II's base edge tie goes to the largest span",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[base-edge-right-end]"),
    ("base-edge-right-end-reversed", "src/linlay/witness.py",
     "lo, hi = largest_group(crossing)",
     "lo, hi = min(crossing, key=lambda s: (-len(crossing[s]), s[0], -s[1]))",
     "Case II's base edge tie between one left end goes to the larger right end",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[base-edge-right-end]"),
    ("inside-slot-tie-to-largest", "src/linlay/witness.py",
     "inside = largest_group(by_inside)",
     "inside = max(by_inside, key=lambda k: (len(by_inside[k]), k))",
     "Case II's inside-slot tie goes to the largest slot",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[inside-slot]"),
    ("outside-tie-to-largest", "src/linlay/witness.py",
     "by_outside[largest_group(by_outside)]",
     "by_outside[max(by_outside, key=lambda k: (len(by_outside[k]), k))]",
     "Case II's outside tie goes to the side before the edge and the largest slot",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[outside-slot]"),
    ("outside-side-reversed", "src/linlay/witness.py",
     "pos[outside] < lo",
     "pos[outside] > hi",
     "Case II's outside tie goes to the side before the edge",
     "tests/test_cli.py::test_grid_witness_jobs_match_the_benchmark_digests"),
    ("outside-slot-reversed", "src/linlay/witness.py",
     "lo, outside_slot)",
     "lo, -outside_slot)",
     "Case II's outside tie on one side goes to the largest slot",
     "tests/test_witness.py::test_case_crossing_tie_goes_to_the_smaller_key[outside-slot]"),
    ("antichain-tie-to-deepest", "src/linlay/poset.py",
     "layers[largest_group(layers)]",
     "layers[max(layers, key=lambda k: (len(layers[k]), k))]",
     "the antichain tie goes to the deepest layer",
     "tests/test_poset.py::test_matches_all_pairs_dichotomy_on_random_families"),
]

# mutants that no test can kill because no output changes, each with the argument why
EQUIVALENT: dict[str, str] = {}


def tier1(copy: str, *tests: str) -> subprocess.CompletedProcess:
    """The tier-1 command in ``copy``, or only ``tests``, stopping at the first failure."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (f":{path}" if path else ""),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def first_failure(out: str) -> str:
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return out.strip().splitlines()[-1] if out.strip() else "no output"


def main() -> int:
    names = {m[0] for m in MUTANTS}
    assert len(names) == len(MUTANTS) and set(EQUIVALENT) <= names

    with tempfile.TemporaryDirectory(prefix="linlay-mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        for name, path, old, *_ in MUTANTS:
            with open(os.path.join(copy, path)) as handle:
                if handle.read().count(old) != 1:
                    print(f"error: {name}: old text not found exactly once in {path}")
                    return 2
        start = time.perf_counter()
        if tier1(copy).returncode != 0:
            print("error: tier-1 fails on the unmutated copy")
            return 2
        print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)

        survivors, full = [], []
        for name, path, old, new, why, killer in MUTANTS:
            target = os.path.join(copy, path)
            with open(target) as handle:
                original = handle.read()
            with open(target, "w") as handle:
                handle.write(original.replace(old, new))
            start = time.perf_counter()
            try:
                proc = tier1(copy, killer)
                if proc.returncode != 1:
                    full.append(name)
                    proc = tier1(copy)
                verdict = "survived" if proc.returncode == 0 else "killed"
                detail = "" if proc.returncode == 0 else first_failure(proc.stdout)
            except subprocess.TimeoutExpired:
                verdict, detail = "killed", f"timeout after {TIMEOUT_S} s"
            finally:
                with open(target, "w") as handle:
                    handle.write(original)
            if verdict == "survived":
                if name in EQUIVALENT:
                    verdict, detail = "equivalent", EQUIVALENT[name]
                else:
                    survivors.append(name)
                    detail = why
            print(f"{verdict:10} {name:28} {time.perf_counter() - start:6.1f} s  {detail}",
                  flush=True)

    print(f"whole tier-1 needed: {', '.join(full) or 'none'}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed or equivalent; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
