"""Finite ordinals as validated order matrices.

An ordinal is a carrier with a strict order that is wellfounded,
extensional, and transitive. At finite size those axioms force the order
to be linear, so every ordinal here is a relabeled chain; the interest is
in the operations: initial segments, sums, suprema, and simulations.
"""

from hfkit import (
    ExtensionalityError,
    WellfoundednessError,
    bounded_sim,
    chain,
    down,
    ord_sum,
    ord_to_text,
    order_type,
    simulation,
    sup,
    validate_ord,
)

three = chain(3)
print("the 3-chain:", ord_to_text(three))

# validation is a real gate: each axiom failure carries a witness
try:
    validate_ord(2, [[False, False], [False, False]])
except ExtensionalityError as exc:
    print("two incomparable points are rejected:", exc)
try:
    validate_ord(2, [[False, True], [True, False]])
except WellfoundednessError as exc:
    print("a 2-cycle is rejected:", exc)

# initial segments: everything strictly below an element
print("\nsegment below the top of the 3-chain:", ord_to_text(down(three, 2)))
print("segment below the bottom:", ord_to_text(down(three, 0)))

# sums stack one order on top of the other
print("\n2 + 3 has order type", order_type(ord_sum(chain(2), chain(3))))

# suprema: glue all initial segments together and keep one copy of each
fam = [chain(2), chain(5), chain(3)]
print("sup of sizes 2, 5, 3 has order type", order_type(sup(fam)))

# simulations embed one ordinal as a lower part of another; they are
# unique, so order between ordinals is a property, not a choice
w = simulation(chain(2), chain(4))
print("\nthe unique simulation 2 -> 4 maps positions", w.mapping)
print("no simulation 4 -> 2:", simulation(chain(4), chain(2)) is None)

b = bounded_sim(chain(2), chain(4))
print("2 is the segment of 4 below element", b.bound)
print("4 is not a proper segment of itself:", bounded_sim(chain(4), chain(4)) is None)
