"""Write one workload's input files, all derived from the benchmark's seed.

Usage: python bench/make_inputs.py WORKLOAD SEED SIZES OUTDIR [SPANS.json]

Runs in a fresh process so that each timed set-up pays for its own imports
and finds linlay's caches empty.  Graphs and layouts are built and written by
linlay itself, because building them is part of the set-up cost; colourings
and vertex orders are plain JSON written here.  With SPANS.json the set-up's
calls into `queuelayouts` are traced and written there.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from random import Random

from workloads import SIZES, parts, product_name

from linlay.graphs import graph_to_json, make_hex_dual, make_star_hex_product, plain_graph
from linlay.layouts import STACK, EdgeColoring, Layout, layout_to_json
from linlay import queuelayouts


def _rng(seed: int, label: str) -> Random:
    return Random(f"{seed}/{label}")


def _write(outdir: str, name: str, text: str) -> None:
    with open(os.path.join(outdir, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def _exact_small(s, seed, outdir):
    for name, spec in s["exact_graphs"]:
        if spec[0] == "hex":
            g = make_hex_dual(spec[1])
        elif spec[0] == "product":
            g = make_star_hex_product(spec[1], spec[2])
        elif spec[0] == "complete":
            g = plain_graph(spec[1], itertools.combinations(range(spec[1]), 2))
        else:
            vertices, edges = spec[1], spec[2]
            pairs = list(itertools.combinations(range(vertices), 2))
            g = plain_graph(vertices, _rng(seed, name).sample(pairs, edges))
        _write(outdir, f"{name}.graph.json", graph_to_json(g))


def _layouts_large(s, seed, outdir):
    layouts = {
        p: queuelayouts.product_queue_layout(*p)
        for p in {*s["valid_products"], s["stack_reread_product"], s["moved_product"]}
    }
    for a, n in sorted({*layouts, s["qmin_product"]}):
        _write(outdir, f"{product_name(a, n)}.graph.json", graph_to_json(make_star_hex_product(a, n)))
    for p in s["valid_products"]:
        _write(outdir, f"{product_name(*p)}.queue.json", layout_to_json(layouts[p]))

    p = s["stack_reread_product"]
    layout = layouts[p]
    _write(outdir, f"{product_name(*p)}.stack.json",
           layout_to_json(Layout(STACK, layout.order, layout.coloring)))

    # star edges carry colour 0; moving a few into the horizontal class makes
    # that class nest while the other classes stay valid
    p = s["moved_product"]
    layout = layouts[p]
    colors = dict(layout.coloring.colors)
    star_edges = sorted(e for e, c in colors.items() if c == queuelayouts.STAR_CLASS)
    for e in _rng(seed, "moved").sample(star_edges, s["moved_star_edges"]):
        colors[e] = queuelayouts.HORIZONTAL_CLASS
    moved = Layout(layout.kind, layout.order, EdgeColoring.from_colors(colors))
    _write(outdir, f"{product_name(*p)}.moved.json", layout_to_json(moved))

    a, n = s["qmin_product"]
    p = product_name(a, n)
    block = queuelayouts.product_block_order(a, n)
    _write(outdir, f"{p}.block-order.json", json.dumps(list(block.sequence)))
    shuffled = list(range((a + 1) * n * n))
    _rng(seed, "qmin-order").shuffle(shuffled)
    _write(outdir, f"{p}.random-order.json", json.dumps(shuffled))


def _coloring(n: int, color_of) -> str:
    rows = [[color_of(a, b) for a in range(1, n + 1)] for b in range(1, n + 1)]
    return json.dumps({"n": n, "rows": rows}, separators=(",", ":"))


def _grid_witness(s, seed, outdir):
    n = s["hex_n"]
    for i in range(1, s["random_colorings"] + 1):
        rng = _rng(seed, f"coloring-{i}")
        _write(outdir, f"random-{i}.coloring.json",
               _coloring(n, lambda a, b: "R" if rng.getrandbits(1) else "B"))

    # L-shells max(a, b) = k alternate colours, so the component walk takes
    # n steps; anti-diagonal stripes of width two take about n/2
    rng = _rng(seed, "structured")
    colors = "RB" if rng.getrandbits(1) else "BR"
    _write(outdir, "shells.coloring.json", _coloring(n, lambda a, b: colors[max(a, b) % 2]))
    offset = rng.getrandbits(1)
    _write(outdir, "stripes.coloring.json",
           _coloring(n, lambda a, b: colors[(a + b + offset) // 2 % 2]))

    for a, wn in s["witness_block"]:
        block = queuelayouts.product_block_order(a, wn)
        _write(outdir, f"block-a{a}.order.json", json.dumps(list(block.sequence)))
    a, wn = s["witness_random"]
    for i in range(1, s["witness_random_orders"] + 1):
        shuffled = list(range((a + 1) * wn * wn))
        _rng(seed, f"witness-order-{i}").shuffle(shuffled)
        _write(outdir, f"random-{i}.order.json", json.dumps(shuffled))


_INPUT_WRITERS = {
    "exact-small": _exact_small,
    "layouts-large": _layouts_large,
    "grid-witness": _grid_witness,
}


def main(argv: list[str]) -> int:
    workload, seed, sizes, outdir, *spans_path = argv
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder, tracer.SETUP_TARGETS)
    try:
        for part in parts(workload):
            _INPUT_WRITERS[part](SIZES[sizes], int(seed), outdir)
    finally:
        if recorder is not None:
            recorder.dump(spans_path[0], import_s=0.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
