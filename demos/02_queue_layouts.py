"""The explicit 3-queue grid layout and 4-queue product layout.

Run as: python demos/02_queue_layouts.py
"""

from linlay import (
    graph_to_dot,
    hex_queue_layout,
    make_hex_dual,
    make_star_hex_product,
    product_queue_layout,
    verify_layout,
)

# Row-major order colours grid edges by direction; equal spans never nest.
for n in (2, 3, 5):
    g = make_hex_dual(n)
    layout = hex_queue_layout(n)
    report = verify_layout(g, layout)
    print(f"grid n={n}: {layout.coloring.k} queues, valid={report.valid}, "
          f"violations={len(report.violations)}")

# Hub-first blocks extend the same idea to the product with one extra queue.
for a, n in ((1, 1), (3, 2), (5, 3), (8, 8)):
    g = make_star_hex_product(a, n)
    layout = product_queue_layout(a, n)
    report = verify_layout(g, layout)
    print(f"product a={a}, n={n}: {g.vertex_count} vertices, "
          f"{len(g.edges)} edges, {layout.coloring.k} queues, valid={report.valid}")

# DOT output for figures; colours follow the queue classes.
print("\nDOT preview of the smallest product layout:")
print(graph_to_dot(make_star_hex_product(1, 1), product_queue_layout(1, 1)))
