"""The semifree resolution (𝔹, 𝔻) built from the tensor algebra of ΣJ.

Run:  python demos/03_diagonal_tensor_resolution.py
"""

from dgres.fixtures import all_fixtures, e1
from dgres.homology import homology_dims, quasi_iso_check
from dgres.semifree import (
    DD,
    alpha,
    bb_basis_element,
    bb_total_basis,
    bb_word,
    dBB,
    frakD,
    psi_sign,
    t_action,
    t_word,
)

E1 = e1()
e = E1.gen("e")

# 𝔹 = B ⊗_A T carries two anticommuting differentials: the internal one and
# the bar-type map induced by the reduced bar differential through the
# suspension shuffle psi.
beta = bb_word(E1, E1.one(), [e])          # 1 ⊗ Σδ(e)
print("the shuffle sign psi_1 for |b| = 1:", psi_sign(1, 1, [1]))
print("𝔇(1 ⊗ Σδe) =", frakD(beta))
print("∂(1 ⊗ Σδe) =", dBB(beta))
print("𝔻(1 ⊗ Σδe) =", DD(beta))
print("α(1 ⊗ Σδe) =", alpha(beta), "   α(e ⊗ 1) =", alpha(bb_word(E1, e, [])))

# T acts on 𝔹 by concatenation, and 𝔇 is linear over that action.
gamma = t_action(beta, t_word(E1, [e]))
print("β · Σδe lives in word length", sorted(gamma.components))
print("𝔇 is T-linear here:", frakD(gamma) == t_action(frakD(beta), t_word(E1, [e])))

# The two key identities hold on every basis element, in every fixture.
for name, alg in all_fixtures().items():
    for t in range(0, 7):
        for label in bb_total_basis(alg, t):
            v = bb_basis_element(alg, label)
            assert DD(DD(v)).is_zero()
            assert (frakD(dBB(v)) + dBB(frakD(v))).is_zero()
print()
print("𝔻² = 0 and 𝔇∂ = -∂𝔇 verified on all fixtures through total degree 6")

# The payoff: α : (𝔹, 𝔻) -> B is a quasi-isomorphism.
for name, alg in all_fixtures(include_prime=False).items():
    rep = quasi_iso_check(alg, 8)
    hb = homology_dims(alg, 8)
    print(f"{name}: quasi-isomorphism {'PASS' if rep.passed else 'FAIL'};",
          "H(B) dims:", [hb.homology(m) for m in range(8)])
