"""Mutation check of the tier-1 suite: apply each known mutant, one at a
time, to a temporary copy of the repository, run tier-1 there with ``-x``,
and list the mutants that no test kills.

Run from anywhere with ``python tests/mutants.py``; stdlib only, and
pytest does not collect it.

A mutant is one exact replacement of text in one file, which must occur
exactly once.  The unmutated copy runs first and must pass.  Exit 0 when
every mutant is killed or listed in EQUIVALENT, 1 when another survives,
2 when the unmutated copy fails or a mutant's text is not found once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900  # a hang counts as killed

# (name, file, exact old text, new text, what the mutant breaks)
MUTANTS = [
    ("spans-cross-non-strict", "src/linlay/layouts.py",
     "return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1",
     "return a1 < a2 <= b1 < b2 or a2 < a1 <= b2 < b1",
     "spans that share an end count as crossing"),
    ("crossing-sweep-pop", "src/linlay/layouts.py",
     "while ends and ends[-1] <= a:", "while ends and ends[-1] < a:",
     "a span closing where the next opens stays open in the stack sweep"),
    ("nesting-gt-to-ge", "src/linlay/layouts.py",
     "any(map(gt, ends, islice(ends, 1, None)))",
     "any(map(lambda x, y: x >= y, ends, islice(ends, 1, None)))",
     "spans with one right end count as nesting"),
    ("patience-bisect-side", "src/linlay/layouts.py",
     "j = bisect_left(tails, x)", "j = bisect_right(tails, x)",
     "equal values share a pile, so rainbows and chains are miscounted"),
    ("partners-sorted-by-right", "src/linlay/layouts.py",
     "sorted([(a, -b, b, i)",
     "sorted([(a, b, b, i)",
     "partners with one left end chain in the clique's run"),
    ("clique-off-by-one", "src/linlay/layouts.py",
     "best = max(best, 2 + max(patience_piles(", "best = max(best, 1 + max(patience_piles(",
     "the largest crossing set is one too small"),
    ("conflict-graph-one-way", "src/linlay/layouts.py",
     "            adj[j].append(i)\n", "            pass\n",
     "a conflict is seen only from the span that starts first"),
    ("sweep-pair-key-one-way", "src/linlay/layouts.py",
     "keys += [x * m + y if x < y else y * m + x", "keys += [x * m + y",
     "a pair whose later edge starts first is listed back to front"),
    ("sweep-bisect-right", "src/linlay/layouts.py",
     "bisect_left(edges, e)", "bisect_right(edges, e)",
     "each violating edge is numbered as the edge after it"),
    ("leaf-order-check", "src/linlay/witness.py",
     "if len({pos[u] < pos[v] for p, q in zip(paths, paths[1:]) for u, v in zip(p, q)}) > 1:",
     "if False:",
     "a grid path whose leaf copies change direction goes unnoticed"),
    ("separated-case-check", "src/linlay/witness.py",
     'if not is_pairwise_crossing(order, edges):\n        raise InternalInvariantError("separated',
     'if False:\n        raise InternalInvariantError("separated',
     "separated-case edges are not re-verified to cross"),
    ("crossing-case-check", "src/linlay/witness.py",
     'if not is_pairwise_crossing(order, edges):\n        raise InternalInvariantError("crossing',
     'if False:\n        raise InternalInvariantError("crossing',
     "crossing-case edges are not re-verified to cross"),
    ("edge-membership-check", "src/linlay/witness.py",
     "if not star_hex_product_has_edge(a, n, *e):", "if False:",
     "a witness edge outside the product goes unnoticed"),
    ("order-cap-always-exact", "src/linlay/solve.py",
     "next(orders, None) is None", "True",
     "a scan cut by max_orders still counts as exact"),
    ("stack-density-floor-le", "src/linlay/solve.py",
     "n + k * (n - 3) < m:", "n + k * (n - 3) <= m:",
     "the stack floor rises one too early at the Bernhart-Kainen bound"),
    ("early-floor-stop", "src/linlay/solve.py",
     "if best_k <= floor:", "if best_k <= floor + 1:",
     "the scan stops one above the floor, before an optimum"),
    ("dsatur-colour-cap", "src/linlay/layouts.py",
     "top = min(used + 1, best_k - 1)", "top = min(used + 1, best_k)",
     "DSATUR accepts a colouring equal to the incumbent or the cutoff"),
    ("ramsey-binomial", "src/linlay/poset.py",
     "return comb(r + s - 2, r - 1)", "return comb(r + s - 1, r - 1)",
     "the Ramsey bound is the wrong binomial"),
    ("star-edge-check", "src/linlay/graphs.py",
     "return y == y2 and x == 0", "return y == y2",
     "two leaf copies of one cell pass as a star edge"),
    ("incumbent-not-strict", "src/linlay/solve.py",
     "(best_k is None or k < best_k)", "(best_k is None or k <= best_k)",
     "a later order as good as the incumbent replaces the first optimal one"),
    ("orders-symmetry-flipped", "src/linlay/solve.py",
     "rest[0] < rest[-1]", "rest[0] > rest[-1]",
     "the other order of each reversal pair is scanned"),
    ("orders-not-lexicographic", "src/linlay/solve.py",
     "for rest in permutations(range(len(head), n)):",
     "for rest in permutations(range(n - 1, len(head) - 1, -1)):",
     "orders are scanned in descending lexicographic order"),
    ("far-boundary-split-check", "src/linlay/hexpath.py",
     "if len(reach(next(iter(boundary)), nbrs, boundary)) != len(boundary):",
     "if False:",
     "a far boundary split into pieces goes unnoticed"),
    ("hexpath-output-keys-swapped", "src/linlay/cli.py",
     'doc = {"n": coloring.n, "color": coloring.color(path[0]), "path": path}',
     'doc = {"color": coloring.color(path[0]), "n": coloring.n, "path": path}',
     "hexpath prints the same document with its keys in another order"),
    ("largest-top-goal", "src/linlay/hexpath.py",
     "goal = min(v for v in terminal if v >= n * n - n)",
     "goal = max(v for v in terminal if v >= n * n - n)",
     "the path ends at the largest top-side cell, not the smallest"),
    ("reach-reversed", "src/linlay/graphs.py",
     "for w in nbrs[v]:\n            if w in inside",
     "for w in reversed(nbrs[v]):\n            if w in inside",
     "the breadth-first search scans neighbours in reverse, so ties break the other way"),
    ("label-per-piece-check", "src/linlay/hexpath.py",
     "if len(met) != (k > 0):", "if False:",
     "a piece touching two earlier pieces, a cycle of components, goes unnoticed"),
    ("main-flush-dropped", "src/linlay/cli.py",
     "        sys.stdout.flush()\n        return code",
     "        return code",
     "os._exit drops whatever stdout still buffers"),
    ("main-module-calls-main", "src/linlay/__main__.py",
     "from .cli import script\n\nscript()", "from .cli import main\n\nmain()",
     "python -m linlay ignores main's exit code"),
    ("oracle-queue-rotation", "tests/oracles.py",
     '    if kind == "stack":\n        return ((0, *rest)',
     '    if True:\n        return ((0, *rest)',
     "the brute oracle also reduces queue orders by rotation, which changes nestings"),
    ("hexpath-source-optional", "src/linlay/cli.py",
     "source = hexpath.add_mutually_exclusive_group(required=True)",
     "source = hexpath.add_mutually_exclusive_group(required=False)",
     "hexpath with no input source reaches the handler"),
    ("gen-size-defaults-dropped", "src/linlay/cli.py",
     "gen_kind.set_defaults(func=_cmd_gen, a=0, n=1)",
     "gen_kind.set_defaults(func=_cmd_gen)",
     "gen hex and gen star lack the size their kind does not take"),
]

# mutants that no test can kill because no output changes, each with the argument why
EQUIVALENT: dict[str, str] = {}


def tier1(copy: str) -> subprocess.CompletedProcess:
    """The tier-1 command in ``copy``, stopping at the first failure."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (f":{path}" if path else ""),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
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
        for name, path, old, _, _ in MUTANTS:
            with open(os.path.join(copy, path)) as handle:
                if handle.read().count(old) != 1:
                    print(f"error: {name}: old text not found exactly once in {path}")
                    return 2
        start = time.perf_counter()
        if tier1(copy).returncode != 0:
            print("error: tier-1 fails on the unmutated copy")
            return 2
        print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)

        survivors = []
        for name, path, old, new, why in MUTANTS:
            target = os.path.join(copy, path)
            with open(target) as handle:
                original = handle.read()
            with open(target, "w") as handle:
                handle.write(original.replace(old, new))
            start = time.perf_counter()
            try:
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

    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed or equivalent; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
