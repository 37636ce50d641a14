"""Marked orders: what is left of an ordinal when transitivity goes away.

A mewo is an extensional wellfounded order together with a marking. The
marked elements play the set's top-level members; unmarked ones are
members of members. The marking is what makes non-transitive sets such
as {{0}} representable at all, and it changes the order theory: the
strict order between mewos is not transitive and does not imply the weak
order. Those failures are features; they mirror membership.
"""

from hfkit import (
    ExtensionalityError,
    SetUniverse,
    bounded_sim_mewo,
    chain,
    from_ordinal,
    is_covered,
    mark_all,
    mewo_equal,
    mewo_to_text,
    simulation_mewo,
    singleton,
    union,
    validate_mewo,
)

# a matrix is nested lists of 0/1 (lt[i][j] means i < j), a marking one 0/1 per element
bullet = validate_mewo(1, [[0]], [1])
circ = validate_mewo(1, [[0]], [0])
two = validate_mewo(2, [[0, 1], [0, 0]], [0, 1])
empty = validate_mewo(0, [], [])

print("a marked point:", mewo_to_text(bullet))
print("unmarked below marked:", mewo_to_text(two))

# covering: every element sits below a marked one. The unmarked point is
# junk that no marking reaches.
print("\nthe unmarked point is covered:", is_covered(circ))
print("the two-chain is covered:", is_covered(two))

# the three classic failures, all decided exactly. A decision reads the
# Mostowski codes of both sides, and codes live in a set universe, so every
# decision (and union) is given the universe to intern them in.
u = SetUniverse()
print("\nstrict: marked point < two-chain:", bounded_sim_mewo(bullet, two, u) is not None)
print("weak:   marked point <= two-chain:", simulation_mewo(bullet, two, u) is not None)
print("chain:  empty < marked point:", bounded_sim_mewo(empty, bullet, u) is not None)
print("        marked point < two-chain:", bounded_sim_mewo(bullet, two, u) is not None)
print("        empty < two-chain:", bounded_sim_mewo(empty, two, u) is not None)

# trivializing the marking restores the ordinal-style facts
print("\nafter marking everything, the simulation exists:",
      simulation_mewo(bullet, mark_all(two), u) is not None)

# singleton wraps a structure one level deeper; on covered input it stays
# a mewo, on uncovered input extensionality breaks
print("\nsingleton of the marked point:", mewo_to_text(singleton(bullet)))
try:
    singleton(circ)
except ExtensionalityError as exc:
    print("singleton of the unmarked point fails:", exc)

# unions keep one copy of each initial segment; an element is marked when
# any of its sources marks it
left = from_ordinal(chain(2))
print("\nunion of the fully marked 2-chain with the half marked one:")
print(" ", mewo_to_text(union([left, two], u)))
print("  equals the fully marked 2-chain:", mewo_equal(union([left, two], u), left, u))
