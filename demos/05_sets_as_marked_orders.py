"""Every set is a covered marked order, and back, with nothing lost.

One direction presents a set by its hereditary members ordered by
membership, marking the direct members. The other interns the codes of
the marked elements. The two are exactly inverse, and the subset and
membership relations become the weak and strict order between mewos.
"""

from hfkit import (
    GenConfig,
    SetUniverse,
    bounded_sim_mewo,
    canon,
    gen_random_set,
    mewo_equal,
    mewo_of_set,
    mewo_of_set_literal,
    mewo_to_text,
    set_of_mewo,
    simulation_mewo,
)

u = SetUniverse()

nested = u.mk_set([u.mk_set([u.empty()])])  # {{0}}
X = mewo_of_set(nested)
print("{{0}} presented as a marked order:", mewo_to_text(X))
print("only the top is marked; the inner point presents a member of a member")
print("and back:", canon(set_of_mewo(X, u)))

# the defining recursion (union of singletons over the members) computes
# the same structure as the direct presentation
print(
    "\nrecursive and direct presentations agree:",
    mewo_equal(X, mewo_of_set_literal(nested), u),
)

# order transport on a couple of concrete sets
one = u.mk_set([u.empty()])
A, B = mewo_of_set(one), mewo_of_set(nested)
print("\n{0} is a member of {{0}}:", u.mem(one, nested))
print("its mewo sits strictly below:", bounded_sim_mewo(A, B, u) is not None)
print("{0} is a subset of {{0}}:", u.subset(one, nested))
print("and accordingly no weak simulation:", simulation_mewo(A, B, u) is not None)

# the roundtrip holds across a seeded batch of random sets
cfg = GenConfig(seed=5, max_width=4, max_depth=4, count=200)
ok = all(set_of_mewo(mewo_of_set(h), u) == h for h in gen_random_set(cfg, u))
print("\nroundtrip on 200 random sets:", ok)
