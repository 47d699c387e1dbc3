"""Exact queue minimum of one fixed vertex order, a library call with no CLI subcommand.

Usage: python bench/qmin.py GRAPH.json ORDER.json

ORDER.json is a JSON list of vertex ids.  Prints k, then the optimal layout
as JSON, in the format `linlay solve` uses.
"""

from __future__ import annotations

import json
import sys

from linlay.graphs import graph_from_json
from linlay.layouts import QUEUE, Layout, LinearOrder, layout_to_json, min_queue_colors_for_order


def main(argv: list[str]) -> int:
    graph_path, order_path = argv
    with open(graph_path, encoding="utf-8") as handle:
        g = graph_from_json(handle.read())
    with open(order_path, encoding="utf-8") as handle:
        order = LinearOrder.from_sequence(json.load(handle))
    k, coloring = min_queue_colors_for_order(g, order)
    print(k)
    print(layout_to_json(Layout(QUEUE, order, coloring)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
