"""
Exact arithmetic over declared constants
========================================

Periods and levels live in a Q-vector space spanned by named real constants.
Equality and rank are decided coefficient-wise (exactly); only signs consult
the numeric embeddings, read as the exact rationals their literals write.
"""

from fractions import Fraction

from foliage import Lattice, SymbolTable, q_rank, sign

# declare two constants with high-precision decimal embeddings
table = SymbolTable([
    ("p", "3.14159265358979323846264338327950288420"),
    ("q", "1.41421356237309504880168872420969807857"),
])
p, q, one = table.symbol("p"), table.symbol("q"), table.rational(1)

# exact linear algebra over Q: {p, 2p, 1} spans a 2-dimensional space
print("rank of {p, q}      :", q_rank([p, q]))
print("rank of {p, 2p, 1}  :", q_rank([p, p * 2, one]))
print("rank of {2, 3}      :", q_rank([table.rational(2), table.rational(3)]))

# rationality is a coefficient question, not a numeric one: a value keeps its
# numerators by table position (1, p, q) without trailing zeros, so a
# rational value has at most the one on 1
print("3/2 rational?       :", len(table.rational(Fraction(3, 2)).nums) <= 1)
print("3/2 + p rational?   :", len((table.rational(Fraction(3, 2)) + p).nums) <= 1)

# signs are the signs of the exact rational sums of the embeddings
print("sign(1 + q)         :", sign(one + q))
print("sign(q - 2)         :", sign(q - table.rational(2)))
print("sign(p - p)         :", sign(p - p))

# integer-lattice membership backs the genericity tests: 1/7 is not a
# Z-combination of p and q, but 3p - 2q of course is
lattice = Lattice([p, q])
print("3p - 2q in Zp + Zq? :", p * 3 - q * 2 in lattice)
print("1/7 in Zp + Zq?     :", table.rational(Fraction(1, 7)) in lattice)
