"""Building blocks: exact fields, graded-commutative monomials, differentials.

Run:  python demos/01_graded_algebras.py
"""

from dgres import DGAlgebra, Field, validate_dg

# The running example: A = Q[y] with |y| = 2 and dy = 0, extended by an
# exterior generator e with |e| = 3 and de = y.
E3 = DGAlgebra(
    Field.rationals(),
    base_gens=[("y", 2)],
    ext_gens=[("e", 3)],
    diff_terms={"e": [(1, {"y": 1})]},
)

y, e = E3.gen("y"), E3.gen("e")

print("odd generators square to zero:      e*e =", e * e)
print("even generators commute:            y*e == e*y:", y * e == e * y)
print("the Leibniz differential:           d(y*e) =", E3.d(y * e))
print("d drops degree by one:              d(e) =", E3.d(e))

print()
print("basis slices are finite and canonical:")
for d in range(7):
    monos = E3.basis("B", d)
    print(f"  degree {d}: ", [E3.mono_repr(m) for m in monos])

print()
report = validate_dg(E3, max_degree=10)
print("validation through degree 10:", "PASS" if report.passed else "FAIL")

# The same tower over a prime field: everything stays exact.
E3p = DGAlgebra(
    Field.prime(101),
    base_gens=[("y", 2)],
    ext_gens=[("e", 3)],
    diff_terms={"e": [(1, {"y": 1})]},
)
half = E3p.field.of_fraction(__import__("fractions").Fraction(1, 2))
print("1/2 in F_101 is", half, "and 2 * (1/2) =", E3p.field.mul(half, E3p.field.of_int(2)))
