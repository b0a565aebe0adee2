"""
Jets of a singular curve germ
=============================

Truncate the cuspidal cubic y^2 = x^3 at increasing orders and watch the
invariants settle.
"""

from jetmetric import (
    hilbert_function,
    jet,
    nilpotency_index,
    parse_presentation,
    socle,
)

cusp = parse_presentation("""
ring Q[x, y]
local
ideal: y^2 - x^3
""")

# The n-th jet is the quotient by the ideal plus the n-th power of the
# maximal ideal -- a finite-dimensional algebra we can compute with exactly.
for n in range(1, 8):
    A = jet(cusp, n)
    length, hf = hilbert_function(A)
    print(f"order {n}: length {length:3d}  hf {hf}")

# The length grows like 2n - 1: one dimension for the constants, then two
# fresh monomials per degree (x^d and x^(d-1) y -- everything else rewrites).

A = jet(cusp, 6)
print("nilpotency index:", nilpotency_index(A))
sdim, basis = socle(A)
print("socle dimension:", sdim)

# normal forms: the relation is used tail-to-head in the local convention,
# so y^2 rewrites to x^3 (lowest order wins)
v = A.reduce_monomial((0, 2))
terms = {A.basis[i]: c for i, c in v}
print("normal form of y^2:", terms)
