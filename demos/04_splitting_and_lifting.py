"""The β splitting series and the exact naive-liftability decision.

Run:  python demos/04_splitting_and_lifting.py
"""

from dgres.fixtures import chain_N3, e1, e2, e3, extended_module, koszul_K, module_B
from dgres.modules import beta_N, check_beta, naive_lift_solve, validate_module

E1, E2, E3 = e1(), e2(), e3()

# β_N sends a basis element to a finite series over decreasing chains,
# with one δ-factor per differential entry along the chain.
K = koszul_K(E2)
validate_module(K)
print("K = (e0 --x--> e1):")
for name in K.names:
    print(f"  beta({name}) =", beta_N(K, name))

N3 = chain_N3(E1)
validate_module(N3)
print("N3 = (f1 --e--> f2 --e--> f3):")
print("  beta(f3) =", beta_N(N3, "f3"))

# β is a chain map and a one-sided inverse of the augmentation.
for N in (K, N3):
    assert check_beta(N)[0].passed
print("chain-map and splitting identities verified")

# Naive liftability is a finite exact linear problem: no truncation.
print()
for N, label in ((module_B(E3), "B over E3"),
                 (extended_module(E3), "C⊗B over E3"),
                 (K, "Koszul K over E2"),
                 (N3, "N3 over E1")):
    res = naive_lift_solve(N)
    print(f"{label:18s} -> {'Liftable' if res.liftable else 'NotLiftable'}"
          f"  (system {res.system_rows}x{res.system_cols})")
    if res.liftable:
        for nm in N.names:
            print(f"     rho({nm}) = {res.rho[nm]}")
    else:
        print(f"     certificate rows: {sorted(res.certificate.row_combination)}")
