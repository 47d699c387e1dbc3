"""DOT export for graphs and coloured layouts."""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, PairTexts, blocks
from .layouts import Layout

PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
)


def graph_to_dot(g: Graph, layout: Optional[Layout] = None) -> str:
    """Undirected DOT text; with a layout, edges are coloured by class.
    A grid cell's label prints as [a,b] and a product vertex's as
    (part,[a,b]), each cell's text made once and each product vertex's line
    written by one f-string; any other label as itself.  The lines are
    joined in runs of at most graphs' chunk of vertices or adjacency rows."""
    texts, pieces = PairTexts(), ["graph G {"]
    ids = list(map(str, range(len(g.adjacency))))  # each id formatted once
    for lo, labels in blocks(g.labels):
        run = zip(ids[lo:lo + len(labels)], labels)
        if g.kind == "product":  # one f-string per vertex
            lines = [f'  {i} [label="({texts[part]},{texts[cell]})"];' for i, (part, cell) in run]
        elif g.kind == "hex":
            lines = [f'  {i} [label="{texts[x]}"];' for i, x in run]
        else:
            lines = [f'  {i} [label="{x}"];' for i, x in run]
        pieces.append("\n".join(lines))
    tones = {} if layout is None else {
        e: f' [color="{PALETTE[c % len(PALETTE)]}"]' for e, c in layout.coloring.colors.items()
    }
    for lo, rows in blocks(g.adjacency):
        pieces.append("\n".join([
            f"  {ids[u]} -- {ids[w]}{tones.get((u, w), '')};" if tones else f"  {ids[u]} -- {ids[w]};"
            for u, row in enumerate(rows, lo) for w in row if u < w
        ]))
    pieces.append("}\n")
    return "\n".join(filter(None, pieces))
