"""The classical bar complex and its reduced form via the diagonal ideal.

Run:  python demos/02_bar_resolutions.py
"""

from dgres import TensorElement, delta, pi_B
from dgres.bar import (
    bar_differential,
    bar_homotopy,
    check_classical_bar,
    check_reduced_exactness,
    contracted_cycles,
    nu,
    reduced_bar_differential,
)
from dgres.fixtures import e1, e2
from dgres.tensor import prefixed_basis_element, tensor_basis

E1 = e1()
e = E1.gen("e")
one = E1.one_mono
em = E1.mono({"e": 1})

# The multiplication map B^e -> B and its kernel, the diagonal ideal J.
print("pi(1⊗e) =", pi_B(TensorElement.from_word(E1, (one, em))))
print("delta(e) =", delta(e), "   pi(delta(e)) =", pi_B(delta(e)))
# "Prepend 1" contracts pi, so the x - 1⊗pi(x) over the words x span its kernel.
words = [TensorElement.from_word(E1, w) for w in tensor_basis(E1, 2, 1)]
print("kernel slice of pi at degree 1:", contracted_cycles(words, pi_B, bar_homotopy))

# The bar differential is the alternating sum of adjacent multiplications,
# and "prepend 1" is a contracting homotopy.
t = TensorElement.from_word(E1, (one, em, one))
print()
print("d0(1⊗e⊗1) =", bar_differential(t, 1))
print("nu(e) =", nu(e), "  and d0(nu(e)) = delta(e):", bar_differential(nu(e), 1) == delta(e))

x = TensorElement.from_word(E1, (em, em, one))
check = bar_differential(bar_homotopy(x), 2) + bar_homotopy(bar_differential(x, 1))
print("homotopy identity (d h + h d = id):", check == x)

# Every slice of the classical complex is exact; the split comes from h.
assert check_classical_bar(E1, 3, 3).passed
print("d∘d = 0 on all displayed slices")

# The reduced complex replaces B^{⊗n} by tensor powers of J; its
# differential in flat coordinates just merges the two leading slots.
E2 = e2()
xm = E2.mono({"x": 1})
elt = prefixed_basis_element(E2, (E2.one_mono, E2.one_mono, (xm, xm)))
print()
print("reduced d2(1 ⊗ δ(x)⊗δ(x)) =", reduced_bar_differential(elt, 2))
rep = check_reduced_exactness(E2, 8)
print("reduced bar exactness through degree 8:", "PASS" if rep.passed else "FAIL")
