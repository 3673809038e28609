import pytest

from dgres.algebra import DGAlgebra
from dgres.bar import contracted_cycles
from dgres.errors import NotValidated
from dgres.fixtures import chain_N3, extended_module, koszul_K, module_B
from dgres.linalg import SliceMatrix
from dgres.modules import (
    DN,
    ModTensorElement,
    NTElement,
    SemifreeModule,
    alpha_N,
    bar_dN_any,
    beta_N,
    check_beta,
    check_lambda_splitting,
    check_rho,
    dN_homotopy,
    lambda_n,
    lemma_sign_check,
    mod_element,
    mod_merge_at,
    mod_right_mult,
    modtensor_basis,
    module_differential,
    naive_lift_solve,
    validate_module,
)
from dgres.probfile import parse_problem
from dgres.scalars import Field
from dgres.semifree import BBElement, psi_sign
from dgres.tensor import TensorElement
from oracles import (
    add_normalized,
    dN_matrix,
    dn_by_word_length,
    kernel_dim_oracle,
    modtensor_repr_oracle,
    nt_element,
    nt_repr_oracle,
    span_rank_oracle,
    validate_module_oracle,
)


def nt_word(N, name, factors):
    """Honest element e_name ⊗ Σδ(u_1) ⊗_B ... ⊗_B Σδ(u_n) in stored form."""
    from dgres.tensor import concat_B, delta

    alg = N.alg
    us = [alg.gen(u) if isinstance(u, str) else u for u in factors]
    n = len(us)
    if n == 0:
        return nt_element(N, {0: ModTensorElement(N, 2, {
            (N.index[name], (alg.one_mono, alg.one_mono)): alg.field.one})})
    core = delta(us[0])
    for u in us[1:]:
        core = concat_B(core, delta(u))
    sign = psi_sign(n, 0, [u.homogeneous_degree() for u in us])
    flat = TensorElement(alg, n + 2)
    for w, c in core.terms.items():
        add_normalized(flat, (alg.one_mono,) + w, alg.field.neg(c) if sign < 0 else c)
    comp = ModTensorElement(N, n + 2, {(N.index[name], w): c for w, c in flat.terms.items()})
    return nt_element(N, {n: comp})


def test_validate_module_examples(E1, E2):
    K = koszul_K(E2)
    assert validate_module(K).passed
    bad = SemifreeModule(E2, [("e0", 0), ("e1", 3)], {("e0", "e1"): [(1, {})]})
    rep = validate_module(bad)
    assert not rep.passed and any("entry-degrees" == c.name for c in rep.failures())
    N3 = chain_N3(E1)
    assert validate_module(N3).passed


def test_validate_detects_d_squared(E2):
    # ∂² e2 = e0·x² ≠ 0 when the two-step path has no balancing jump entry
    N = SemifreeModule(E2, [("e0", 0), ("e1", 3), ("e2", 6)],
                       {("e0", "e1"): [(1, {"x": 1})], ("e1", "e2"): [(1, {"x": 1})]})
    rep = validate_module(N)
    assert not rep.passed


def report_lines(rep):
    return [(c.name, c.status, c.details) for c in rep.checks]


def failing_modules(E2, odd_base):
    """Modules whose ∂² fails through paths i < k < j, through d(b_ij), or at more pairs than the
    details list, and one whose path and d-term cancel."""
    return [
        SemifreeModule(E2, [("e0", 0), ("e1", 3), ("e2", 6)],
                       {("e0", "e1"): [(1, {"x": 1})], ("e1", "e2"): [(1, {"x": 1})]}),
        # over ℚ[x], |x| = 2: b_ij = x^k wherever j − i is odd, so the six pairs with j − i even fail
        SemifreeModule(E2, [(f"e{i}", 3 * i) for i in range(6)],
                       {(f"e{i}", f"e{j}"): [(1, {"x": (3 * (j - i) - 1) // 2})]
                        for j in range(6) for i in range(j) if (j - i) % 2}),
        # over odd_base, d e = a: d(b_01) and d(b_12) are nonzero, and b_01·b_12 = e² is too
        SemifreeModule(odd_base, [("g0", 0), ("g1", 3), ("g2", 6)],
                       {("g0", "g1"): [(1, {"e": 1})], ("g1", "g2"): [(1, {"e": 1})]}),
        # f·a + d(f·e) = f·a − f·a: the path and the d-term cancel at (g0, g2)
        SemifreeModule(odd_base, [("g0", 0), ("g1", 2), ("g2", 4)],
                       {("g0", "g1"): [(1, {"f": 1})], ("g1", "g2"): [(1, {"a": 1})],
                        ("g0", "g2"): [(1, {"f": 1, "e": 1})]}),
    ]


def test_validate_module_matches_the_triple_loop(E2, odd_base):
    # validate_module sums ∂² over the pairs of entries that share k; the
    # oracle multiplies out every triple, and both list the bad pairs j first
    lines = []
    for N in failing_modules(E2, odd_base):
        lines.append(report_lines(validate_module(N)))
        assert lines[-1] == report_lines(validate_module_oracle(N)), N
    assert [line[2][2] for line in lines] == [
        "∂² != 0 at (e0,e2)", "∂² != 0 at (e0,e2), (e1,e3), (e0,e4), (e2,e4)",
        "∂² != 0 at (g0,g1), (g0,g2), (g1,g2)", ""]


def test_dN_examples(E2):
    K = koszul_K(E2)
    one = E2.one_mono
    xm = E2.mono({"x": 1})
    e0x = ModTensorElement(K, 2, {(0, (one, xm)): E2.field.one})
    assert bar_dN_any(e0x) == ModTensorElement(K, 1, {(0, (xm,)): E2.field.one})
    e0x1 = ModTensorElement(K, 3, {(0, (one, xm, one)): E2.field.one})
    got = bar_dN_any(e0x1)
    want = (ModTensorElement(K, 2, {(0, (xm, one)): E2.field.one})
            - ModTensorElement(K, 2, {(0, (one, xm)): E2.field.one}))
    assert got == want
    e0xx1 = ModTensorElement(K, 4, {(0, (one, xm, xm, one)): E2.field.one})
    want2 = (ModTensorElement(K, 3, {(0, (xm, xm, one)): E2.field.one})
             - ModTensorElement(K, 3, {(0, (one, E2.mono({"x": 2}), one)): E2.field.one})
             + ModTensorElement(K, 3, {(0, (one, xm, xm)): E2.field.one}))
    assert bar_dN_any(e0xx1) == want2


def test_dN_squares_to_zero_and_exactness(E2):
    K = koszul_K(E2)
    f = E2.field
    for L in (2, 3, 4):
        for d in range(0, 7):
            basis = modtensor_basis(K, L, d)
            for key in basis:
                el = ModTensorElement(K, L, {key: f.one})
                assert bar_dN_any(bar_dN_any(el)).is_zero()
    # exactness of N ⊗ (bar) on slices: dim ker = dim im
    for L in (2, 3):
        for d in range(0, 7):
            src, up = modtensor_basis(K, L, d), modtensor_basis(K, L + 1, d)
            M = SliceMatrix.from_columns(f, modtensor_basis(K, L - 1, d), src, (
                bar_dN_any(ModTensorElement(K, L, {key: f.one})).terms for key in src))
            M2 = SliceMatrix.from_columns(f, src, up, (
                bar_dN_any(ModTensorElement(K, L + 1, {key: f.one})).terms for key in up))
            assert (M.nrows, M2.nrows) == (len(modtensor_basis(K, L - 1, d)), len(src))
            assert M.ncols - M.rank() == M2.rank()


def test_beta_examples_match_series(E1, E2):
    K = koszul_K(E2)
    assert beta_N(K, "e1") == nt_word(K, "e1", []) + nt_word(K, "e0", ["x"])
    assert beta_N(K, "e0") == nt_word(K, "e0", [])
    N3 = chain_N3(E1)
    expected = nt_word(N3, "f3", []) + nt_word(N3, "f2", ["e"]) + nt_word(N3, "f1", ["e", "e"])
    assert beta_N(N3, "f3") == expected


def test_beta_chain_and_identity_on_fixtures(E1, E2, E3, E3p):
    for N in (module_B(E1), module_B(E2), module_B(E3),
              koszul_K(E2), chain_N3(E1), extended_module(E3), extended_module(E3p)):
        validate_module(N)
        assert check_beta(N)[0].passed


def odd_and_jump_modules():
    """Modules with odd-degree generators, and entries out of them or in A, over Λ(e) and ℚ[u]⟨f⟩, d f = u²."""
    QQ = Field.rationals()
    E1 = DGAlgebra(QQ, ext_gens=[("e", 1)])
    MIX = DGAlgebra(QQ, ext_gens=[("u", 2), ("f", 5)], diff_terms={"f": [(1, {"u": 2})]})
    return [
        SemifreeModule(E1, [("a", 1), ("b", 3)], {("a", "b"): [(1, {"e": 1})]}),
        SemifreeModule(MIX, [("c0", 0), ("c1", 3), ("c2", 6)],
                       {("c0", "c1"): [(1, {"u": 1})], ("c1", "c2"): [(1, {"u": 1})],
                        ("c0", "c2"): [(-1, {"f": 1})]}),
        SemifreeModule(MIX, [("d0", 1), ("d1", 4), ("d2", 7)],
                       {("d0", "d1"): [(1, {"u": 1})], ("d1", "d2"): [(1, {"u": 1})],
                        ("d0", "d2"): [(1, {"f": 1})]}),
    ]


def test_beta_chain_on_odd_and_jump_modules():
    for N in odd_and_jump_modules():
        assert validate_module(N).passed
        assert check_beta(N)[0].passed


def test_beta_requires_valid_module(E2):
    bad = SemifreeModule(E2, [("e0", 0), ("e1", 3)], {("e0", "e1"): [(1, {})]})
    with pytest.raises(NotValidated):
        beta_N(bad, "e1")


def test_alpha_N_examples(E2):
    K = koszul_K(E2)
    b = beta_N(K, "e1")
    assert alpha_N(b) == mod_element(K, "e1")
    assert alpha_N(nt_word(K, "e0", ["x"])).is_zero()


SECTION_MODULES = [("chain20.dgres", "C"), ("chain_frac.dgres", "C"), ("e1.dgres", "CB"), ("e1.dgres", "N3"),
                   ("odd_lift.dgres", "D"), ("e2.dgres", "K"), ("e3.dgres", "K")]


def section_rows(N):
    """The β rows, and the ρ rows when N is naively liftable, of one call of each check."""
    rho = naive_lift_solve(N).rho
    return check_beta(N)[1], check_rho(N, rho)[1] if rho is not None else None


@pytest.mark.parametrize("path, module", SECTION_MODULES)
def test_section_rows_are_the_text_of_each_image(golden_dir, path, module):
    # the rows of a call render through one memo; each equals the repr of
    # its β_N(e_j) or ρ(e_j), rendered through a fresh memo, and the text
    # spelt term by term, and a second call gives the same rows.  Then the
    # same module over its algebra with the generators renamed: equal
    # monomials are one object in every algebra, so a memo kept from the
    # first module's calls would spell the renamed words with the old names
    import re

    text = (golden_dir / path).read_text()
    parse = parse_problem(text)
    rename = rf"\b({'|'.join(g.name for g in parse.algebra.gens)})\b"
    for N in (parse.modules[module], parse_problem(re.sub(rename, r"\1z", text)).modules[module]):
        beta_rows, rho_rows = section_rows(N)
        assert beta_rows == [(name, repr(beta_N(N, name))) for name in N.names]
        assert beta_rows == [(name, nt_repr_oracle(beta_N(N, name))) for name in N.names]
        rho = naive_lift_solve(N).rho
        if rho is not None:
            assert rho_rows == [(name, repr(rho[name])) for name in N.names]
            assert rho_rows == [(name, modtensor_repr_oracle(rho[name])) for name in N.names]
        assert section_rows(N) == (beta_rows, rho_rows)


def test_lift_B_and_extended(fixture_algebras):
    for name, alg in fixture_algebras.items():
        NB = module_B(alg)
        res = naive_lift_solve(NB)
        assert res.liftable, name
        one = alg.one_mono
        assert res.rho["gen"] == ModTensorElement(NB, 2, {(0, (one, one)): alg.field.one})
        CE = extended_module(alg)
        res2 = naive_lift_solve(CE)
        assert res2.liftable, name
        for nm in CE.names:
            assert mod_merge_at(res2.rho[nm], 0) == mod_element(CE, nm)


def test_lift_koszul_decided(E2):
    # frozen from the exhaustive solve: the Koszul module is not naively liftable
    K = koszul_K(E2)
    res = naive_lift_solve(K)
    assert not res.liftable
    assert res.certificate is not None
    assert res.system_rows == 4 and res.system_cols == 2


def test_split_check_agrees_with_solver(E1, E2, E3, fixture_algebras):
    # Theorem-equivalence consistency: the slicewise splitting path must
    # reach the same verdict as the basis-image solver.
    from oracles import nsex_split_check

    battery = [module_B(E3), extended_module(E3), koszul_K(E2), chain_N3(E1)]
    for alg in fixture_algebras.values():
        battery.append(module_B(alg))
    for N in battery:
        res = naive_lift_solve(N)
        assert nsex_split_check(N, max(N.degrees) + 2) == res.liftable


def dN_cycles(N, length, d):
    """The x − s(𝐝^N x) over the basis of N ⊗_A B^{⊗_A (length-1)} in degree d, which span the 𝐝^N cycles."""
    basis = [ModTensorElement(N, length, {key: N.alg.field.one}) for key in modtensor_basis(N, length, d)]
    return contracted_cycles(basis, bar_dN_any, dN_homotopy)


def assert_dN_cycles_span_the_kernel(N, top):
    # word lengths 2 and 3, the cycles λ-splitting reads, in degrees 0..top
    for length in (2, 3):
        for d in range(top + 1):
            assert span_rank_oracle(dN_cycles(N, length, d), N.alg.field.p) == \
                kernel_dim_oracle(dN_matrix(N, length, d)), (N, length, d)


def test_dN_homotopy_contracts(E1, E2, E3):
    # 𝐝^N s + s 𝐝^N = id on every basis element of word lengths 2..4
    for N in (module_B(E3), chain_N3(E1), koszul_K(E2)):
        for length in range(2, 5):
            for d in range(6):
                for key in modtensor_basis(N, length, d):
                    x = ModTensorElement(N, length, {key: N.alg.field.one})
                    assert bar_dN_any(dN_homotopy(x)) + dN_homotopy(bar_dN_any(x)) == x, (N, length, key)


def test_dN_cycles_match_the_dense_kernel(E1, E2, E3, fixture_algebras):
    battery = [koszul_K(E2), chain_N3(E1), extended_module(E3), extended_module(E2)]
    battery += [module_B(alg) for alg in fixture_algebras.values()]
    for N in battery:
        assert_dN_cycles_span_the_kernel(N, 5)


def test_component_of_a_missing_generator_is_zero(E1):
    # the zero part of the generator's type: a tensor of the element's word length, or an element of 𝔹
    N = module_B(E1)
    assert ModTensorElement(N, 2).component(0) == TensorElement(E1, 2)
    assert NTElement(N).component(0) == BBElement(E1)


def test_lambda_zero(E3):
    NB = module_B(E3)
    res = naive_lift_solve(NB)
    assert lambda_n(NB, res.rho, 2, ModTensorElement(NB, 2)).is_zero()


def test_lemma_sign_identities(fixture_algebras):
    for alg in fixture_algebras.values():
        N = module_B(alg)
        rep = lemma_sign_check(N, 60, 7)
        assert rep.passed, [c.details for c in rep.failures()]


def test_DN_squares_to_zero(E2, E1):
    for N in (koszul_K(E2), chain_N3(E1)):
        validate_module(N)
        for name in N.names:
            assert DN(DN(beta_N(N, name))).is_zero()


def test_DN_matches_the_word_length_reference(E1, E2, E3, E3p):
    # DN, 𝔻 of `semifree` on each y_j of Σ_j e_j ⊗ y_j, against the
    # differential written by word length on random elements of word lengths
    # 0-3; the modules have generators and entries of both parities
    import random

    from dgres.sampling import random_homogeneous_modtensor

    rng = random.Random(5)
    checked = 0
    for N in [module_B(E1), koszul_K(E2), chain_N3(E1), extended_module(E1), extended_module(E3),
              extended_module(E3p)] + odd_and_jump_modules():
        assert validate_module(N).passed
        for _ in range(40):
            comps = {n: random_homogeneous_modtensor(N, rng, n + 2, rng.randrange(0, 9))
                     for n in rng.sample(range(4), rng.randrange(1, 5))}
            t = nt_element(N, comps)
            assert DN(t) == nt_element(N, dn_by_word_length(N, comps)), (N, t)
            checked += not t.is_zero()
    assert checked > 250


def test_alpha_N_is_chain_map(E1, E2, E3):
    import random

    from dgres.sampling import random_homogeneous_modtensor
    from dgres.tensor import prefixed_basis_element, prefixed_basis_labels

    rng = random.Random(41)
    for N in (koszul_K(E2), chain_N3(E1), extended_module(E3)):
        validate_module(N)
        # word length 0: alpha_N is the multiplication, DN the module differential
        for _ in range(12):
            comp0 = random_homogeneous_modtensor(N, rng, 2, rng.randrange(0, 6))
            t = nt_element(N, {0: comp0})
            assert alpha_N(DN(t)) == module_differential(alpha_N(t))
        # word length 1: both sides vanish (the merge lands in the kernel of π)
        alg = N.alg
        for d in range(0, 5):
            for lb in prefixed_basis_labels(alg, 1, d):
                comp1 = ModTensorElement(N, 3)
                for w, c in prefixed_basis_element(alg, lb).terms.items():
                    comp1 = comp1 + ModTensorElement(N, 3, {(0, w): c})
                t = nt_element(N, {1: comp1})
                assert alpha_N(DN(t)).is_zero()
                assert alpha_N(t).is_zero()


def test_module_differential_leibniz(E1, E3):
    # ∂(t·b) = ∂(t)·b + (-1)^{|t|} t·d(b): pins the (-1)^{|e_j|} of the basis
    # element and the slot-prefix signs of module_differential, which ∂² = 0
    # and commutation with 𝐝^N do not see
    import random

    from dgres.sampling import random_homogeneous_element, random_homogeneous_modtensor

    rng = random.Random(11)
    checked = 0
    for N in (module_B(E1), chain_N3(E1), extended_module(E1), module_B(E3), extended_module(E3)):
        alg = N.alg
        for _ in range(200):
            t = random_homogeneous_modtensor(N, rng, rng.randrange(1, 4), rng.randrange(0, 8))
            b = random_homogeneous_element(alg, rng, rng.randrange(0, 6))
            if t.is_zero() or b.is_zero():
                continue
            sign = -1 if t.homogeneous_degree() % 2 else 1
            lhs = module_differential(mod_right_mult(t, b))
            rhs = mod_right_mult(module_differential(t), b) + mod_right_mult(t, alg.d(b)).scale_int(sign)
            assert lhs == rhs, (N, t, b)
            checked += 1
    assert checked > 400


LIFT_MUTATIONS = {
    # δ negated: every odd-depth term of β changes sign, which C's 20-step chain sees
    "beta-chain-map": ("chain20.dgres", "C", "delta", lambda real: lambda b: -real(b)),
    "alphaN-betaN-identity": ("e1.dgres", "CB", "alpha_N", lambda real: lambda t: real(t).scale_int(2)),
    "rho-splits-augmentation": ("e1.dgres", "CB", "mod_merge_at", lambda real: lambda t, i: real(t, i).scale_int(2)),
    "rho-chain-map": ("e1.dgres", "CB", "mod_right_mult", lambda real: lambda t, u: real(t, u).scale_int(-1)),
    "lambda-splitting-identities": ("e1.dgres", "CB", "lambda_n",
                                    lambda real: lambda N, rho, n, t: real(N, rho, n, t).scale_int(-1 if n == 3 else 1)),
}


@pytest.mark.parametrize("check", sorted(LIFT_MUTATIONS))
def test_each_lift_check_fails_under_a_mutation(monkeypatch, golden_dir, check):
    import dgres.modules as modules

    path, module, name, mutate = LIFT_MUTATIONS[check]
    N = parse_problem((golden_dir / path).read_text()).modules[module]
    rho = naive_lift_solve(N).rho

    def failed():
        # C is not naively liftable, so it has no ρ to check
        reps = [check_beta(N)[0]] + ([check_rho(N, rho)[0], check_lambda_splitting(N, rho, 8)] if rho else [])
        return [c.name for rep in reps for c in rep.failures()]

    assert failed() == []
    monkeypatch.setattr(modules, name, mutate(getattr(modules, name)))
    assert check in failed()
