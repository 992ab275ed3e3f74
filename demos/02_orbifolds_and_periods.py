"""
Quotient orbifolds, loops and the period homomorphism
=====================================================

The flat torus with a finite affine action presents a 2-orbifold.  Loops
through the quotient alternate torus paths with group arrows; integrating a
closed 1-form over the generating loops gives the period homomorphism, whose
Q-rank controls the whole leaf classification.
"""

from fractions import Fraction

from foliage import (
    BUILTIN_ORBIFOLDS,
    ClosedForm,
    SymbolTable,
    TorusPoint,
    isotropy_order,
    orbit,
)

table = SymbolTable([
    ("p", "3.14159265358979323846264338327950288420"),
    ("q", "1.41421356237309504880168872420969807857"),
])

# the half-turn quotient: sphere with four cone points
Q = BUILTIN_ORBIFOLDS["pillowcase"]
for pt in [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 3))]:
    x = TorusPoint(*pt)
    print(f"point {pt}: orbit size {len(orbit(x, Q))}, isotropy {isotropy_order(x, Q)}")

# generating loops: the two torus cycles plus one per group element, built
# once with the presentation
print("generators:", [g.gen_id for g in Q.generators])

# periods of p*dtheta + q*dphi on the plain torus
T = BUILTIN_ORBIFOLDS["torus"]
w = ClosedForm((table.symbol("p"), table.symbol("q")), T)
for gen_id, value in w.loop_periods:
    print(f"period over {gen_id}: {value.render()}")
print("rank of the class:", w.period_rank)

# a rational form has rank 1 -- every leaf closes up
w_rational = ClosedForm((table.rational(2), table.rational(3)), T)
print("rank of 2 dtheta + 3 dphi:", w_rational.period_rank)
