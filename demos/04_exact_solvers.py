"""Exact stack and queue numbers of small graphs.

Run as: python demos/04_exact_solvers.py
"""

from itertools import combinations
from random import Random

from linlay import make_hex_dual, plain_graph, queue_number, stack_number

print("complete graphs (stack number is ceil(n/2) from K_4 on; the")
print("triangle needs only one stack because its edges pairwise touch):")
for n in range(3, 8):
    g = plain_graph(n, combinations(range(n), 2))
    sn = stack_number(g)
    qn = queue_number(g)
    print(f"  K_{n}: stack {sn.k} ({sn.orders_scanned} orders evaluated), "
          f"queue {qn.k} ({qn.orders_scanned} orders)")

print("\nsmall grids:")
for n in (2, 3):
    g = make_hex_dual(n)
    sn = stack_number(g)
    qn = queue_number(g)
    print(f"  hex n={n}: stack {sn.k}, queue {qn.k}")

rng = Random(5)
edges = [e for e in combinations(range(7), 2) if rng.random() < 0.4]
g = plain_graph(7, edges)
sn, qn = stack_number(g), queue_number(g)
print(f"\na random 7-vertex graph with {len(edges)} edges: stack {sn.k}, queue {qn.k}")
print(f"optimal stack order: {sn.layout.order.sequence}")
