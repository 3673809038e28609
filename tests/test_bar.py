import random

import pytest

from dgres.algebra import DGAlgebra
from dgres.bar import (
    BeLinearMap,
    DerivationTable,
    bar_action,
    bar_differential,
    bar_homotopy,
    be_linear_space,
    certify_reduced_bar,
    check_classical_bar,
    check_eta,
    check_reduced_bar,
    check_reduced_exactness,
    contracted_cycles,
    derivation_space,
    eta,
    eta_inverse,
    nu,
    reduced_bar_differential,
)
from dgres.errors import NotInDomain, NotLinear, ObstructionNonzero
from dgres.scalars import Field
from dgres.tensor import (
    TensorElement,
    delta,
    delta_word,
    merge_at,
    pi_B,
    prefixed_basis_element,
    prefixed_basis_labels,
    tensor_basis,
    tensor_differential,
    tensor_multiply,
)
from oracles import (bar_slice_matrix, dense_map, dense_rank_oracle, derivation_from_generator_images,
                     kernel_dim_oracle, nJ_kernel_basis, reduced_slice_matrix, span_rank_oracle)


def W(alg, *exps):
    return TensorElement.from_word(alg, tuple(alg.mono(e) for e in exps))


def test_bar_differential_examples(E1, E2):
    one = {}
    d0 = bar_differential(W(E1, one, {"e": 1}, one), 1)
    assert d0 == W(E1, {"e": 1}, one) - W(E1, one, {"e": 1})
    # e^2 = 0 kills the middle merge
    d1 = bar_differential(W(E1, one, {"e": 1}, {"e": 1}, one), 2)
    assert d1 == W(E1, {"e": 1}, {"e": 1}, one) + W(E1, one, {"e": 1}, {"e": 1})
    aug = bar_differential(W(E2, {"x": 1}, {"x": 1}), 0)
    assert aug == TensorElement.from_word(E2, (E2.mono({"x": 2}),))


def test_homotopy_examples(E1):
    e = E1.gen("e")
    assert bar_homotopy(e) == W(E1, {}, {"e": 1})
    t = W(E1, {"e": 1}, {})
    lhs = bar_differential(bar_homotopy(t), 1) + bar_homotopy(bar_differential(t, 0))
    assert lhs == t
    assert bar_homotopy(W(E1, {}, {})) == W(E1, {}, {}, {})


def _unsigned(real):
    # Σ_i merge_at(t, i) without the (-1)^i, so that 𝐝𝐝 no longer cancels
    return lambda t, n: sum((merge_at(t, i) for i in range(n + 1)), TensorElement(t.alg, n + 1))


def _negated_at_length_4(real):
    def homotopy(t, n=None):
        out = real(t)
        return -out if out.length == 4 else out
    return homotopy


CLASSICAL_MUTATIONS = {
    "bar-d-squared-zero": ("bar_differential", _unsigned),
    "bar-homotopy-identity": ("bar_homotopy", _negated_at_length_4),
    "bar-augmentation-homotopy": ("pi_B", lambda real: lambda t: -real(t)),
    # ∂ doubled on B^{⊗_A 2} only, so 𝐝∂ and ∂𝐝 differ on B^{⊗_A 3}
    "bar-commutes-with-internal-differential": (
        "tensor_differential", lambda real: lambda t: real(t).scale_int(2 if t.length == 2 else 1)),
}


@pytest.mark.parametrize("check", sorted(CLASSICAL_MUTATIONS))
def test_each_classical_bar_check_fails_under_a_mutation(monkeypatch, E3, check):
    import dgres.bar as bar

    assert check_classical_bar(E3, 3, 5).passed
    name, mutate = CLASSICAL_MUTATIONS[check]
    monkeypatch.setattr(bar, name, mutate(getattr(bar, name)))
    assert check in [c.name for c in check_classical_bar(E3, 3, 5).failures()]


def test_bar_action_examples(E1, E2):
    one = {}
    t = W(E1, one, {"e": 1}, one)
    assert bar_action(t, W(E1, one, one)) == t
    # derived with the dense action oracle: sign (-1)^{|e|(|e|+|1|)} = -1
    assert bar_action(t, W(E1, {"e": 1}, one)) == W(E1, {"e": 1}, {"e": 1}, one).scale_int(-1)
    t2 = W(E2, one, {"x": 1}, one)
    assert bar_action(t2, W(E2, one, {"x": 1})) == W(E2, one, {"x": 1}, {"x": 1})


def test_bar_action_associative(fixture_algebras):
    rng = random.Random(4)
    for alg in fixture_algebras.values():
        words = tensor_basis(alg, 4, 3)[:4]
        bes = tensor_basis(alg, 2, 2)[:3]
        for w in words:
            x = TensorElement.from_word(alg, w)
            for s1 in bes:
                for s2 in bes:
                    S1 = TensorElement.from_word(alg, s1)
                    S2 = TensorElement.from_word(alg, s2)
                    assert bar_action(bar_action(x, S1), S2) == bar_action(x, tensor_multiply(S1, S2))


def test_bar_differential_is_action_map(fixture_algebras):
    for alg in fixture_algebras.values():
        for n in (1, 2):
            for w in tensor_basis(alg, n + 2, 3)[:6]:
                x = TensorElement.from_word(alg, w)
                for s in tensor_basis(alg, 2, 2)[:4]:
                    S = TensorElement.from_word(alg, s)
                    assert bar_differential(bar_action(x, S), n) == bar_action(bar_differential(x, n), S)


def test_nu(E1):
    e = E1.gen("e")
    assert nu(e) == W(E1, {}, {"e": 1}, {}).scale_int(-1)
    assert bar_differential(nu(e), 1) == delta(e)
    assert nu(E1.zero()).is_zero()


def test_delta_factors_through_nu(fixture_algebras):
    for alg in fixture_algebras.values():
        for d in range(0, 7):
            for m in alg.basis("B", d):
                b = alg.from_monomial(m)
                assert bar_differential(nu(b), 1) == delta(b)


def nJ_cycles(alg, n, d):
    """The x − 𝐡(𝐝x) over the words x of B^{⊗_A (n+1)} in degree d, which span ^nJ."""
    words = [TensorElement.from_word(alg, w) for w in tensor_basis(alg, n + 1, d)]
    return contracted_cycles(words, lambda x: bar_differential(x, n - 1), bar_homotopy)


def assert_nJ_cycles_span_the_kernel(alg, top):
    # ^nJ for n = 1, 2, 3 in degrees 0..top: the cycles read from "prepend 1"
    # span a space of the dense oracle's kernel dimension, which exactness
    # makes the rank of the slice above
    for n in (1, 2, 3):
        for d in range(top + 1):
            kernel = kernel_dim_oracle(bar_slice_matrix(alg, n - 1, d))
            assert span_rank_oracle(nJ_cycles(alg, n, d), alg.field.p) == kernel, (n, d)
            assert bar_slice_matrix(alg, n, d).rank() == kernel, (n, d)


def test_nJ_kernel_examples(E1, fixture_algebras):
    basis = nJ_kernel_basis(E1, 1, 1)
    assert len(basis) == 1
    v = basis[0]
    assert v == delta(E1.gen("e")) or v == delta(E1.gen("e")).scale_int(-1)
    assert nJ_kernel_basis(E1, 1, 0) == []
    assert nJ_cycles(E1, 1, 1) == [-delta(E1.gen("e"))] and nJ_cycles(E1, 1, 0) == []
    lam = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    for alg in fixture_algebras.values():
        assert_nJ_cycles_span_the_kernel(alg, 5)
    # Λ(a,b,c) stops at degree 3: its B^{⊗_A 4} slice of degree 4 has 495
    # words, and the dense rank of their cycles takes seconds
    assert_nJ_cycles_span_the_kernel(lam, 3)


def test_eta_special_cases(E2):
    D = 5
    images = {}
    for d in range(1, D + 1):
        for w in E2.basis("W", d):
            images[w] = delta_word(E2, (w,))
    ident = BeLinearMap(E2, D, images)
    table = eta(ident)
    for d in range(D + 1):
        for m in E2.basis("B", d):
            assert table.apply(E2.from_monomial(m)) == delta(E2.from_monomial(m))
    zero = BeLinearMap(E2, D, {})
    assert not eta(zero).images
    # inclusion J -> B^e gives D(b) = 1 ⊗ b - b ⊗ 1 as an element of B^e
    incl = eta(ident)
    x = E2.gen("x")
    assert incl.apply(x) == delta(x)


def test_eta_inverse_round_trip(E3):
    gen_imgs = {g.name: delta(E3.gen(g.name)) for g in E3.gens}
    table = derivation_from_generator_images(E3, gen_imgs, 6)
    assert table.validate().passed
    f = eta_inverse(table)
    table2 = eta(f)
    for d in range(7):
        for m in E3.basis("B", d):
            assert table.apply(E3.from_monomial(m)) == table2.apply(E3.from_monomial(m))


def test_eta_inverse_rejects_non_derivation(E2):
    # corrupt a single image so the derivation law breaks
    space = derivation_space(E2, 5)
    tab = space[0]
    images = dict(tab.images)
    m = E2.mono({"x": 2})
    images[m] = images.get(m, TensorElement(E2, 2)) + delta_word(E2, (E2.mono({"x": 2}),))
    bad = DerivationTable(E2, 5, images)
    assert not bad.validate().passed
    with pytest.raises(ObstructionNonzero):
        eta_inverse(bad)


@pytest.mark.parametrize("cutoff", [3, 4])
def test_derivation_that_is_nonzero_on_A_is_rejected(E3, cutoff):
    # y ↦ y ⊗ 1, e ↦ 0 extends to a table that satisfies the Leibniz law on
    # every pair, but D(y) != 0 with y in A = Q[y]: no A-derivation, so
    # validate and η⁻¹ reject it, as the rows ("A", m, w) of
    # `derivation_space` exclude it from the solved basis
    y_1 = TensorElement.from_word(E3, (E3.mono({"y": 1}), E3.one_mono))
    table = derivation_from_generator_images(E3, {"y": y_1}, cutoff)
    rep = table.validate()
    assert not rep.passed and rep.failures()[0].details.startswith("fails at [('y',)")
    with pytest.raises(ObstructionNonzero):
        eta_inverse(table)


def test_eta_rejects_non_linear_map(E2):
    # right-multiplication compatibility fails if δ(x^2) gets a junk image
    images = {E2.mono({"x": 1}): delta_word(E2, (E2.mono({"x": 1}),)),
              E2.mono({"x": 2}): TensorElement(E2, 2)}
    f = BeLinearMap(E2, 4, images)
    with pytest.raises(NotLinear):
        eta(f)


def test_eta_rejects_map_that_fails_right_linearity_off_its_images(E2):
    # f(δ(x²)) = δ(x²) and f(δx) = 0: δx·x = δ(x²) − x·δx, so f(δx·x) =
    # 1⊗x² − x²⊗1 while f(δx)·x = 0.  The failing row is that of x, which
    # has no image
    x2 = E2.mono({"x": 2})
    f = BeLinearMap(E2, 4, {x2: delta_word(E2, (x2,))})
    rep = f.validate()
    assert not rep.passed and rep.failures()[0].details == "fails at [('x', 'x')]"
    with pytest.raises(NotLinear):
        eta(f)


def test_derivation_hom_spaces_match(fixture_algebras):
    for alg in fixture_algebras.values():
        assert len(derivation_space(alg, 5)) == len(be_linear_space(alg, 5))


@pytest.mark.parametrize("name, cutoff", [("E3", 3), ("E1", 1), ("lam", 1)])
def test_eta_round_trips_when_window_cuts_odd_squares(fixture_algebras, name, cutoff):
    # the window holds an odd generator g but not g²: every solved map must
    # pass validate, which checks only relations of degree <= cutoff
    lam = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    alg = lam if name == "lam" else fixture_algebras[name]
    bspace = be_linear_space(alg, cutoff)
    assert len(derivation_space(alg, cutoff)) == len(bspace) > 0
    for f in bspace:
        assert f.validate().passed
        g = eta_inverse(eta(f))
        zero = TensorElement(alg, 2)
        assert all(f.images.get(w, zero) == g.images.get(w, zero) for w in set(f.images) | set(g.images))


def test_each_eta_check_fails_under_a_mutation(monkeypatch, E2):
    import dgres.bar as bar

    dspace, bspace = derivation_space(E2, 5), be_linear_space(E2, 5)
    real_eta = bar.eta

    def failed(name=None, mutated=None, dspace=dspace, bspace=bspace):
        with monkeypatch.context() as m:
            if name is not None:
                m.setattr(bar, name, mutated)
            return [c.name for c in check_eta(E2, dspace, bspace).failures()]

    assert failed() == []
    assert failed(bspace=bspace[:-1]) == ["derivation-hom-dim-match"]
    doubled = lambda f: DerivationTable(E2, f.cutoff, {m: t.scale_int(2) for m, t in real_eta(f).images.items()})
    assert failed("eta", doubled) == ["eta-of-eta-inverse-identity", "eta-inverse-of-eta-identity"]
    # an η⁻¹ that checks nothing accepts the corrupted derivation
    unchecked = lambda D: BeLinearMap(E2, D.cutoff, {})
    assert failed("eta_inverse", unchecked)[-1] == "corrupted-derivation-rejected"
    # an 𝐡 that does not contract lists no ^2J: η⁻¹ rejects every derivation, and both round trips fail
    doubled_h = lambda t: bar_homotopy(t).scale_int(2)
    assert failed("bar_homotopy", doubled_h) == ["eta-of-eta-inverse-identity", "eta-inverse-of-eta-identity"]
    with monkeypatch.context() as m:
        m.setattr(bar, "bar_homotopy", doubled_h)
        with pytest.raises(ObstructionNonzero, match="does not contract"):
            eta_inverse(dspace[0])
    # a sample that is no derivation is rejected by η⁻¹, its one validation, and fails its line
    x = E2.basis("B", 2)[0]
    broken = DerivationTable(E2, 5, {**dspace[0].images, x: dspace[0].images[x] + W(E2, {}, {"x": 1})})
    assert failed(dspace=[broken] + dspace[1:]) == ["eta-of-eta-inverse-identity"]


def test_reduced_bar_examples(E1, E2):
    one_mono = E1.one_mono
    em = E1.mono({"e": 1})
    t = prefixed_basis_element(E1, (one_mono, one_mono, (em,)))
    assert reduced_bar_differential(t, 1) == delta(E1.gen("e"))
    # E2 two-step example, derived in flat coordinates
    xm = E2.mono({"x": 1})
    t2 = prefixed_basis_element(E2, (E2.one_mono, E2.one_mono, (xm, xm)))
    expected = (W(E2, {}, {"x": 1}, {"x": 1}) - W(E2, {}, {"x": 2}, {})
                - W(E2, {"x": 1}, {}, {"x": 1}) + W(E2, {"x": 1}, {"x": 1}, {}))
    assert reduced_bar_differential(t2, 2) == expected
    assert reduced_bar_differential(TensorElement(E2, 3), 1).is_zero()


def test_reduced_bar_rejects_outside_domain(E2):
    junk = W(E2, {}, {}, {})  # 1⊗1⊗1 is not in B ⊗ J
    with pytest.raises(NotInDomain):
        reduced_bar_differential(junk, 1)


def test_reduced_bar_squares_to_zero_and_chain(fixture_algebras):
    from dgres.tensor import merge_at, prefixed_basis_labels

    for alg in fixture_algebras.values():
        for n in (1, 2):
            for d in range(0, 6):
                for lb in prefixed_basis_labels(alg, n, d):
                    t = prefixed_basis_element(alg, lb)
                    once = merge_at(t, 0)
                    if n >= 2:
                        assert merge_at(once, 0).is_zero()
                    else:
                        assert pi_B(once).is_zero()
                    # commutes with the internal differential
                    assert merge_at(tensor_differential(t), 0) == tensor_differential(once)


def test_reduced_exactness(fixture_algebras):
    for name, alg in fixture_algebras.items():
        rep = check_reduced_exactness(alg, 6)
        assert rep.passed, (name, [c.details for c in rep.failures()])


def _assert_rows_are_hit_words(M, images, ambient):
    """M is the ambient matrix of `images` with its zero rows left out."""
    f = M.field
    hit = {w for img in images for w in img.terms}
    assert M.row_labels == tuple(w for w in ambient if w in hit)
    assert M.nrows == len(M.row_labels) and M.ncols == len(images)
    row_of = {w: i for i, w in enumerate(M.row_labels)}
    dense = [[img.terms.get(w, f.zero) for img in images] for w in ambient]
    _, rows = dense_map(M)
    for w, row in zip(ambient, dense):
        if w in row_of:
            assert row == rows[row_of[w]]
        else:
            assert not any(row)
    assert M.rank() == dense_rank_oracle(dense, f.p)


def test_slice_rows_are_the_hit_words(fixture_algebras):
    # the fixtures include ℚ[x] (E2).  The ambient basis of Λ(a,b,c)^{⊗9} in
    # degree 8 has C(27, 8) words and the dense oracle needs seconds at degree
    # 4, so Λ(a,b,c) stops at degree 3 (test_linalg ranks its degree-4 slices).
    # The reduced slices have δ-label rows: test_reduced_slice_columns_are_flat_merges
    lam = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    cases = [(alg, 8) for alg in fixture_algebras.values()] + [(lam, 3)]
    for alg, top in cases:
        for d in range(top + 1):
            for n in range(3):
                M = bar_slice_matrix(alg, n, d)
                images = [bar_differential(TensorElement.from_word(alg, w), n) for w in M.col_labels]
                _assert_rows_are_hit_words(M, images, tensor_basis(alg, n + 1, d))


def assert_reduced_columns_are_flat_merges(alg, n, d):
    """Every column of d̄_n, expanded over the flat elements of its row labels,
    is merge_at(·, 0) of the flat element of its column label; returns the
    matrix and the flat images."""
    M = reduced_slice_matrix(alg, n, d)
    assert M.col_labels == prefixed_basis_labels(alg, n, d)
    assert M.row_labels == prefixed_basis_labels(alg, n - 1, d)
    expanded = [TensorElement(alg, n + 1) for _ in range(M.ncols)]
    for (i, j), c in M.entries.items():
        expanded[j] = expanded[j] + prefixed_basis_element(alg, M.row_labels[i]).scale(c)
    images = [merge_at(prefixed_basis_element(alg, lb), 0) for lb in M.col_labels]
    assert expanded == images, (n, d)
    return M, images


def test_reduced_slice_columns_are_flat_merges(fixture_algebras, odd_base):
    # the full flat oracle for every n, with no head lemma; the rank is the
    # dense oracle's rank of the ambient matrix through rank_top, beyond which
    # the dense oracle takes seconds (Λ(a,b,c) from degree 4, odd_base from 7)
    lam = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    cases = [(alg, 8, 8) for alg in fixture_algebras.values()] + [(odd_base, 8, 6), (lam, 5, 3)]
    for alg, top, rank_top in cases:
        f = alg.field
        for d in range(top + 1):
            for n in range(1, d + 1):
                M, images = assert_reduced_columns_are_flat_merges(alg, n, d)
                if d <= rank_top:
                    dense = [[img.terms.get(w, f.zero) for img in images] for w in tensor_basis(alg, n + 1, d)]
                    assert M.rank() == dense_rank_oracle(dense, f.p), (n, d)


def test_checked_reduced_columns_and_squares(fixture_algebras, odd_base):
    # every column certified, d̄² = 0 and no homotopy defect in any degree
    for alg in list(fixture_algebras.values()) + [odd_base]:
        assert certify_reduced_bar(alg, 7) == ([None] * 8, True)


def _second_term_flipped(real):
    def mutated(alg, label):
        return {lb: alg.field.neg(c) if lb[1] == alg.one_mono else c for lb, c in real(alg, label).items()}
    return mutated


def _tail_reversed(real):
    # the δ-factors of the label read in reverse order, so d̄ merges b into w_n: from n = 2 the
    # column is that of the head (b, m, (w_n,)), which the n = 2 check compares with (b, m, (w_1,))
    def mutated(alg, label):
        b, m, ws = label
        return real(alg, (b, m, ws[::-1]))
    return mutated


def _first_factor_kept(real):
    # images of word length n instead of n - 1: outside the target basis
    def mutated(alg, label):
        return {(b, m, label[2][:1] + ws): c for (b, m, ws), c in real(alg, label).items()}
    return mutated


def _second_term_flipped_on_tails(real):
    # the helper that appends the tail negates the second term, (bm·w_1, 1, ws[1:]), of every
    # column it appends a nonempty tail to: d̄ is wrong from n = 2 only (ℚ: the entries are Fractions)
    def mutated(col, tail):
        return {lb: -c if tail and lb[1].degree == 0 else c for lb, c in real(col, tail).items()}
    return mutated


def _second_term_flipped_off_prefix_one(real):
    # the second term, (bm·w_1, 1, ws[1:]), negated on the labels with b != 1 only: no flat
    # image of such a label is computed, so only the prefix lemma's cross-check on the rows that
    # the certified columns hit can see it
    def mutated(alg, label):
        flip = label[0] != alg.one_mono
        return {lb: alg.field.neg(c) if flip and lb[1] == alg.one_mono else c for lb, c in real(alg, label).items()}
    return mutated


# wrong versions of semifree.dbar_column, and of the helper semifree.append_tail
# that appends a label's tail to its head's column, each made from the real one
DBAR_MUTATIONS = {
    "second-term-sign": ("dbar_column", _second_term_flipped),
    "second-term-sign-off-prefix-one": ("dbar_column", _second_term_flipped_off_prefix_one),
    "tail-reversed": ("dbar_column", _tail_reversed),
    "outside-basis": ("dbar_column", _first_factor_kept),
    "second-term-sign-on-tails": ("append_tail", _second_term_flipped_on_tails),
}


def install_dbar_mutation(monkeypatch, mutation):
    """Patch a DBAR_MUTATIONS entry into `semifree` and, where it looks the name up, `bar`."""
    import dgres.bar as bar
    import dgres.semifree as semifree

    name, mutate = DBAR_MUTATIONS[mutation]
    mutated = mutate(getattr(semifree, name))
    for mod in (semifree, bar):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, mutated)


# Λ(a,b,c) has n = 2 labels with distinct factors from degree 2; nothing of
# the reduced bar is cached on an algebra, so every test below shares it
LAM = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])


@pytest.mark.parametrize("mutation", sorted(DBAR_MUTATIONS))
def test_checked_reduced_columns_catch_a_wrong_closed_form(monkeypatch, mutation):
    install_dbar_mutation(monkeypatch, mutation)
    assert certify_reduced_bar(LAM, 4) is None


@pytest.mark.parametrize("mutation", sorted(DBAR_MUTATIONS))
def test_wrong_closed_form_fails_after_a_clean_run_on_the_same_algebra(monkeypatch, mutation):
    # no verdict outlives its pass: a mutation installed after the algebra
    # passed once fails every line of the next report on it
    assert check_reduced_bar(LAM, 4).passed
    install_dbar_mutation(monkeypatch, mutation)
    rep = check_reduced_bar(LAM, 4)
    assert [c.status for c in rep.checks] == ["FAIL"] * 6 and not check_reduced_exactness(LAM, 4).passed


def test_homotopy_identity_reads_the_tail_helper(monkeypatch):
    # the helper putting the tail in front, (b, m, tail + ws), leaves every d̄ column alone, as a
    # head column's rows have no δ-factor, but makes h(b, m, (w_1,)) = (b, 1, (w_1, m)): the
    # identity on C_1 fails, though no C_1 label is evaluated with a tail of two factors, on a
    # fresh algebra and on one that has passed once
    import dgres.semifree as semifree

    fresh = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    assert certify_reduced_bar(LAM, 4) == ([None] * 5, True)
    monkeypatch.setattr(semifree, "append_tail",
                        lambda col, tail: {(b, m, tail + ws): c for (b, m, ws), c in col.items()})
    for alg in (fresh, LAM):
        defects, square = certify_reduced_bar(alg, 4)
        assert square and defects[:2] == [None, None] and all(lb is not None and len(lb[2]) == 1 for lb in defects[2:])
