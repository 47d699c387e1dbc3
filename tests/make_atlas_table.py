"""Write tests/atlas_solve.json: ``stack_number`` and ``queue_number`` on
every graph of the networkx graph atlas (all 1,253 graphs on at most seven
vertices), with the sha256 of each optimal layout's ``layout_to_json``.

Run from the repository root; networkx is needed here only, not by the
package or by the tier-1 test that reads the table back:

    PYTHONPATH=src python tests/make_atlas_table.py [OUT]

Each solve is checked against ``oracles.scan_layout_number`` (the same k,
first optimal order and colouring) and its k against
``oracles.brute_layout_number`` (a backtracking colouring of every order up
to symmetry), on one worker per CPU.
"""

import argparse
import hashlib
import json
import os
import sys
from multiprocessing import Pool

from linlay import layout_to_json, plain_graph, queue_number, stack_number

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "atlas_solve.json")
SOLVERS = (("sn", "stack", stack_number), ("qn", "queue", queue_number))


def atlas_entry(index, n, edges, check=None) -> dict:
    """The table's entry for the graph on 0..n-1 with these sorted edges;
    ``check(g, kind, result)``, if given, sees each solve."""
    g = plain_graph(n, edges)
    entry = {"index": index, "n": n, "edges": edges}
    for key, kind, solver in SOLVERS:
        result = solver(g)
        if check:
            check(g, kind, result)
        entry[key] = result.k
        entry[f"{kind}_sha256"] = hashlib.sha256(layout_to_json(result.layout).encode()).hexdigest()
    return entry


def checked_entry(job) -> dict:
    """``atlas_entry``, with each solve checked against the oracles."""
    from oracles import brute_layout_number, scan_layout_number

    index, n, edges = job

    def check(g, kind, result):
        layout = result.layout
        if (result.k, layout.order.sequence, layout.coloring.colors) != scan_layout_number(g, kind):
            raise AssertionError(f"atlas graph {index}: {kind} layout differs from the scan oracle")
        if result.k != brute_layout_number(n, [tuple(e) for e in edges], kind):
            raise AssertionError(f"atlas graph {index}: {kind} k differs from the brute oracle")

    return atlas_entry(index, n, edges, check)


def main(argv) -> int:
    import networkx

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", default=TABLE)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    jobs = [(index, graph.number_of_nodes(), sorted(sorted(e) for e in graph.edges()))
            for index, graph in enumerate(networkx.graph_atlas_g())]
    with Pool() as pool:
        entries = pool.map(checked_entry, jobs, chunksize=1)
    with open(args.out, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} graphs to {args.out}, each checked by both oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
