"""Crossing witnesses: lower bounds on stack colours for a fixed order.

Run as: python demos/05_order_witnesses.py
"""

from random import Random

from linlay import (
    InsufficientScale,
    LinearOrder,
    extract_crossing_witness,
    identity_order,
    make_star_hex_product,
    min_stack_colors_for_order,
    required_parameters,
)

a, n = 4, 2
g = make_star_hex_product(a, n)
print(f"product with a={a}, n={n}: {g.vertex_count} vertices, {len(g.edges)} edges")

# The friendly order first: every leaf block in sequence.
report = extract_crossing_witness(a, n, identity_order(g.vertex_count), 2, 2)
print(f"\nleaf-major order -> case {report.case}, witness edges {list(report.edges)}")

# Now adversarial random orders.  Pairwise-crossing edges must take
# pairwise distinct colours, so each witness is a per-order lower bound.
rng = Random(99)
for trial in range(5):
    seq = list(range(g.vertex_count))
    rng.shuffle(seq)
    order = LinearOrder.from_sequence(seq)
    outcome = extract_crossing_witness(a, n, order, 2, 2)
    if isinstance(outcome, InsufficientScale):
        print(f"trial {trial}: family too small "
              f"(chain {outcome.longest_chain}, antichain {outcome.largest_antichain})")
        continue
    exact, _ = min_stack_colors_for_order(g, order)
    print(f"trial {trial}: case {outcome.case}, lower bound {outcome.lower_bound}, "
          f"exact per-order minimum {exact}")

# The guarantee scales: these parameters force a witness of size s on
# every conceivable order, though the leaf count is astronomical.
print("\nscale parameters for target witness sizes:")
for s in (1, 2, 3):
    p = required_parameters(s)
    print(f"  s={s}: grid {p.n}x{p.n}, c={p.c}, d={p.d}, leaf bound about "
          f"10^{p.a_digits - 1} (that is {p.b_bound}^{p.a_exponent})")
