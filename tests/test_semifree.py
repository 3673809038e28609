from pathlib import Path

import pytest

from dgres.algebra import DGAlgebra
from dgres.errors import DgresError
from dgres.homology import (
    bb_alpha_matrix,
    bb_homology_table,
    certify_contraction,
    homology_dims,
    prefix_image,
    quasi_iso_check,
)
from dgres.probfile import parse_problem
from dgres.scalars import Field
from dgres.semifree import (
    BBElement,
    DD,
    alpha,
    bb_basis_element,
    bb_total_basis,
    bb_word,
    check_frakD_T_linearity,
    check_semifree_triangular,
    dBB,
    dd_column,
    frakD,
    pi_column,
    psi_sign,
    t_action,
    t_multiply,
    t_word,
)
from dgres.tensor import TensorElement, delta, prefixed_basis_element, tensor_basis, tensor_differential
from oracles import (bb_coords, bb_rank_table, dense_rank_oracle, full_alpha_matrix, full_dd_matrix,
                     reduced_slice_matrix)

INPUTS = Path(__file__).parent / "inputs"


def total_window(D):
    """The window of `quasi_iso_check`: every label of total degree <= D."""
    return tuple(D - n for n in range(D + 1))


def test_psi_sign_examples():
    assert psi_sign(0, 3, []) == 1
    assert psi_sign(1, 1, [5]) == -1
    assert psi_sign(2, 0, [1, 2]) == -1
    assert psi_sign(2, 0, [2, 1]) == 1


def test_dT_examples(E1, E3):
    assert dBB(t_word(E1, [E1.gen("e")])).is_zero()
    # E3: the image -Σδ(y) vanishes because y lies in the base subalgebra
    assert dBB(t_word(E3, [E3.gen("e")])).is_zero()
    assert delta(E3.gen("y")).is_zero()
    # nonzero witness: dw = v forces dBB(Σδ(w)) = -Σδ(v)
    G = DGAlgebra(Field.rationals(), ext_gens=[("v", 2), ("w", 3)], diff_terms={"w": [(1, {"v": 1})]})
    assert dBB(t_word(G, [G.gen("w")])) == t_word(G, [G.gen("v")]).scale_int(-1)
    # length-2 word of cycles is a cycle
    assert dBB(t_word(G, [G.gen("v"), G.gen("v")])).is_zero()


def test_dBB_examples(E1, E3):
    assert dBB(bb_word(E3, E3.gen("e"), [])) == bb_word(E3, E3.gen("y"), [])
    assert dBB(bb_word(E1, E1.gen("e"), [E1.gen("e")])).is_zero()
    assert dBB(bb_word(E3, E3.one(), [E3.gen("e")])).is_zero()


def test_frakD_examples(E1):
    e = E1.gen("e")
    assert frakD(bb_word(E1, E1.one(), [e])) == BBElement(E1, {0: delta(e)})
    assert frakD(bb_word(E1, e, [])).is_zero()
    # with the shuffle sign (-1)^{|e|}: 𝔇(e ⊗ Σδe) = -(e ⊗ e)
    expected = BBElement(E1, {0: TensorElement.from_word(E1, (E1.mono({"e": 1}), E1.mono({"e": 1}))).scale_int(-1)})
    assert frakD(bb_word(E1, e, [e])) == expected


def test_DD_and_alpha_examples(E1, E3):
    assert DD(BBElement.one(E3)).is_zero()
    e = E1.gen("e")
    assert DD(bb_word(E1, E1.one(), [e])) == BBElement(E1, {0: delta(e)})
    assert alpha(bb_word(E3, E3.gen("e"), [])) == E3.gen("e")
    assert alpha(bb_word(E1, E1.one(), [e])).is_zero()
    v = bb_word(E1, E1.one(), [e])
    assert alpha(DD(v)).is_zero() and E1.d(alpha(v)).is_zero()


def test_identities_on_basis(fixture_algebras):
    for name, alg in fixture_algebras.items():
        for t in range(0, 7):
            for label in bb_total_basis(alg, t):
                v = bb_basis_element(alg, label)
                assert DD(DD(v)).is_zero(), (name, t, label)
                assert (frakD(dBB(v)) + dBB(frakD(v))).is_zero(), (name, t, label)
                assert alpha(DD(v)) == alg.d(alpha(v))


def test_identities_on_mixed_algebras():
    QQ = Field.rationals()
    algs = [
        DGAlgebra(QQ, ext_gens=[("u", 2), ("f", 5)], diff_terms={"f": [(1, {"u": 2})]}),
        DGAlgebra(QQ, base_gens=[("a", 1)], ext_gens=[("x", 2)]),
        DGAlgebra(QQ, ext_gens=[("e1", 1), ("v", 2), ("w", 3)], diff_terms={"w": [(1, {"v": 1})]}),
    ]
    for alg in algs:
        for t in range(0, 7):
            for label in bb_total_basis(alg, t):
                v = bb_basis_element(alg, label)
                assert DD(DD(v)).is_zero()
                assert (frakD(dBB(v)) + dBB(frakD(v))).is_zero()
                assert alpha(DD(v)) == alg.d(alpha(v))


def test_t_action_examples(E1):
    e = E1.gen("e")
    beta = bb_word(E1, e, [e])
    assert t_action(beta, t_word(E1, [])) == beta
    assert t_action(BBElement.one(E1), t_word(E1, [e])) == bb_word(E1, E1.one(), [e])


def test_frakD_T_linearity(fixture_algebras):
    for alg in fixture_algebras.values():
        gens = [alg.gen(g.name) for g in alg.gens]
        words = [t_word(alg, [g]) for g in gens] + [t_word(alg, [g, h]) for g in gens for h in gens]
        betas = []
        for t in range(0, 6):
            for label in bb_total_basis(alg, t):
                if label[0] >= 1:
                    betas.append(bb_basis_element(alg, label))
        for beta in betas[:12]:
            for s in words:
                assert frakD(t_action(beta, s)) == t_action(frakD(beta), s)


def test_frakD_T_linearity_check_fails_under_a_mutation(monkeypatch, E1):
    # 𝔇 negated on word length 2 only: 𝔇(v·s) and 𝔇(v)·s differ for v of word length 1
    import dgres.semifree as semifree

    assert check_frakD_T_linearity(E1, 5).passed
    real = semifree.frakD
    monkeypatch.setattr(semifree, "frakD", lambda t: -real(t) if 2 in t.components else real(t))
    assert [c.name for c in check_frakD_T_linearity(E1, 5).failures()] == ["frakD-T-linearity"]


def test_DD_leibniz_over_action(fixture_algebras):
    for alg in fixture_algebras.values():
        gens = [alg.gen(g.name) for g in alg.gens]
        words = [t_word(alg, [g]) for g in gens]
        for t in range(0, 6):
            for label in bb_total_basis(alg, t):
                if label[0] < 1:
                    continue
                beta = bb_basis_element(alg, label)
                td = beta.homogeneous_degree()
                for s in words:
                    lhs = DD(t_action(beta, s))
                    rhs = t_action(DD(beta), s) + t_action(beta, dBB(s)).scale_int(-1 if td % 2 else 1)
                    assert lhs == rhs


def test_t_multiply_matches_action_associativity(E3):
    e = E3.gen("e")
    s1 = t_word(E3, [e])
    s2 = t_word(E3, [e])
    beta = bb_word(E3, E3.gen("y"), [e])
    assert t_action(t_action(beta, s1), s2) == t_action(beta, t_multiply(s1, s2))


def test_frakD_reproduces_reduced_bar(fixture_algebras):
    # in label coordinates: 𝔇 of each stored basis element, peeled back into
    # δ-labels, is the column of d̄_n; the rank is that of the ambient matrix
    # of the flat images of 𝔇
    for alg in fixture_algebras.values():
        f = alg.field
        for n in (1, 2, 3):
            for d in range(0, 6):
                A = reduced_slice_matrix(alg, n, d)
                cols = [{} for _ in range(A.ncols)]
                for (i, j), c in A.entries.items():
                    cols[j][(n - 1, A.row_labels[i])] = c
                imgs = [frakD(BBElement(alg, {n: prefixed_basis_element(alg, lb)})) for lb in A.col_labels]
                assert [bb_coords(img) for img in imgs] == cols
                dense = [[img.component(n - 1).terms.get(w, f.zero) for img in imgs]
                         for w in tensor_basis(alg, n + 1, d)]
                assert A.rank() == dense_rank_oracle(dense, f.p)


def test_semifree_triangularity(fixture_algebras):
    for alg in fixture_algebras.values():
        assert check_semifree_triangular(alg, 7).passed


def test_total_homology_matches_filtration_reading(fixture_algebras):
    # degenerate spectral reading: H(total) must equal H(B) degreewise; the
    # table from dimensions against the dense ranks of the 𝔻 slices
    for alg in fixture_algebras.values():
        hB = homology_dims(alg, 7)
        assert quasi_iso_check(alg, 7).passed
        oracle = bb_rank_table(alg, 7)
        assert bb_homology_table(alg, 7).rows() == oracle
        assert [hB.homology(m) for m in range(7)] == [row[3] for row in oracle]


def test_bb_coords_round_trip(fixture_algebras):
    for alg in fixture_algebras.values():
        for t in range(0, 7):
            for label in bb_total_basis(alg, t):
                v = bb_basis_element(alg, label)
                assert bb_coords(v) == {label: alg.field.one}


def test_dd_column_matches_flat_oracle(fixture_algebras, K3p, odd_base):
    # the closed form on the labels against 𝔻 applied to the flat basis element
    # and peeled back into δ-coordinates
    lam = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    windows = [(alg, 8) for alg in fixture_algebras.values()] + [(K3p, 10), (odd_base, 6), (lam, 5)]
    for alg, D in windows:
        for t in range(D + 1):
            for label in bb_total_basis(alg, t):
                assert dd_column(alg, label) == bb_coords(DD(bb_basis_element(alg, label))), label


def test_dd_column_example(E1):
    # 𝔻(1 ⊗ δ(e)) = 𝔇(1 ⊗ δ(e)) = (1 ⊗ e) - (e ⊗ 1)
    one, e = E1.one_mono, E1.mono({"e": 1})
    assert dd_column(E1, (1, (one, one, (e,)))) == {(0, (one, e, ())): 1, (0, (e, one, ())): -1}


def test_checked_columns_and_matrix_squares(fixture_algebras, odd_base, K3p, monkeypatch):
    # every prefix-1 column of degrees 0..6 is compared: a flat 𝔻v for each
    # one with n <= 1, the tail lemma for the others; every label with
    # b != 1 that they hit, and every σ-label that α∘σ reads (degrees
    # 1..5), by the prefix lemma, once each
    import dgres.homology as homology

    calls, lemma, tail = [], [], []
    monkeypatch.setattr(homology, "DD", lambda v: calls.append(v) or DD(v))
    real_prefix, real_tail = homology.prefix_image, homology.tail_image
    monkeypatch.setattr(homology, "prefix_image",
                        lambda alg, lb, *cols: lemma.append(lb) or real_prefix(alg, lb, *cols))
    monkeypatch.setattr(homology, "tail_image", lambda alg, lb, *cols: tail.append(lb) or real_tail(alg, lb, *cols))
    for alg in list(fixture_algebras.values()) + [odd_base, K3p]:
        calls.clear()
        lemma.clear()
        tail.clear()
        square, anti, chain, defects = certify_contraction(alg, total_window(6))
        assert square and anti and chain and not defects
        one = alg.one_mono
        prefix_one = [lb for t in range(7) for lb in bb_total_basis(alg, t) if lb[1][0] == one]
        hit = {row for lb in prefix_one for row in dd_column(alg, lb) if row[1][0] != one}
        hit |= {(0, (b, one, ())) for t in range(1, 6) for b in alg.basis("B", t)}
        assert len(calls) == sum(1 for n, _ in prefix_one if n <= 1)
        assert len(tail) == sum(1 for n, _ in prefix_one if n >= 2)
        assert len(lemma) == len(hit) and set(lemma) == hit


def test_dd_square_needs_d_squared_zero_on_B(monkeypatch):
    # d(d c) = a: every prefix-1 column of 𝔻² vanishes, the column of
    # (0, (c, 1, ())) does not, and only the d^B clause of the certificate sees it
    from dgres.linalg import SliceMatrix

    alg = parse_problem((INPUTS / "base_d_squared.dgres").read_text()).algebra
    square, anti, chain, defects = certify_contraction(alg, total_window(6))
    assert not square and anti and chain and not defects
    one, a, c = alg.one_mono, alg.mono({"a": 1}), alg.mono({"c": 1})
    full = [full_dd_matrix(alg, t) for t in range(7)]

    def squares_on_prefix_one(alg, t):
        P = full[t - 1].compose(full[t])
        entries = [(P.row_labels[i], P.col_labels[j]) for i, j in P.entries if P.col_labels[j][1][0] == one]
        return not entries, all(row[0] != col[0] - 1 for row, col in entries)

    assert all(squares_on_prefix_one(alg, t) == (True, True) for t in range(2, 7))
    square = full[2].compose(full[3])
    j = square.col_labels.index((0, (c, one, ())))
    assert {square.row_labels[i]: v for (i, k), v in square.entries.items() if k == j} == {(0, (a, one, ())): 1}
    qi = quasi_iso_check(alg, 6)
    assert not qi.checks["DD-squared-zero"] and qi.checks["anticommutation"] and not qi.passed

    # without the clause, the certificate's one test of a matrix product for
    # zero, every check passes, and the certificate goes on to rank d^B,
    # which is no differential
    monkeypatch.setattr(SliceMatrix, "is_zero", lambda M: True)
    assert certify_contraction(alg, total_window(6))[:3] == (True, True, True)
    with pytest.raises(DgresError, match="boundaries exceed cycles"):
        quasi_iso_check(alg, 6)


def test_checked_columns_catch_a_wrong_differential(E3, monkeypatch):
    # ∂ without the (-1)^n of component n disagrees with the closed form
    import dgres.semifree as semifree

    def unsigned(t):
        return BBElement(t.alg, {n: tensor_differential(te) for n, te in t.components.items()})

    monkeypatch.setattr(semifree, "dBB", unsigned)
    assert certify_contraction(E3, total_window(8)) is None


def _drop_prefix_sign(real):
    # the terms of d(m) and d(w_i) without the (-1)^{|b|} of passing the prefix b
    def mutated(alg, label):
        n, (b, m, ws) = label
        return {key: alg.field.neg(c) if b.degree % 2 and key[0] == n and key[1][1:] != (m, ws) else c
                for key, c in real(alg, label).items()}
    return mutated


def _drop_db_sign(real):
    # the terms of d(b) without the (-1)^n of component n
    def mutated(alg, label):
        n, (b, m, ws) = label
        return {key: alg.field.neg(c) if n % 2 and key[0] == n and key[1][1:] == (m, ws) else c
                for key, c in real(alg, label).items()}
    return mutated


def _flip_dw(i):
    # the terms of d(w_i) negated on the prefix-1 labels with n >= 2 only,
    # which the tail lemma certifies: i = 0 is w_1, i = -1 is w_n
    def mutation(real):
        def mutated(alg, label):
            n, (b, m, ws) = label
            if b != alg.one_mono or n < 2:
                return real(alg, label)
            return {key: alg.field.neg(c) if key[0] == n and key[1][2][i] != ws[i] else c
                    for key, c in real(alg, label).items()}
        return mutated
    return mutation


def _drop_crossing_sign(real):
    # the terms of d(w_i) without (-1)^{|a|(|m| + Σ_{j<i}|w_j|)}, a the base part moved into the prefix
    def mutated(alg, label):
        n, (b, m, ws) = label
        out = {}
        for key, c in real(alg, label).items():
            k, (b2, _, ws2) = key
            if k == n and ws2 != ws:
                i = next(i for i, (w, w2) in enumerate(zip(ws, ws2)) if w != w2)
                crossed = m.degree + sum(w.degree for w in ws[:i])
                if (b2.degree - b.degree) % 2 and crossed % 2:
                    c = alg.field.neg(c)
            out[key] = c
        return out
    return mutated


# wrong versions of the closed form of 𝔻, each with the algebras it must fail on
DD_MUTATIONS = {
    "no-prefix-sign": (_drop_prefix_sign, ("E3", "K3p", "odd_base")),
    "no-n-sign-on-db": (_drop_db_sign, ("E3", "K3p", "odd_base")),
    "no-crossing-sign": (_drop_crossing_sign, ("odd_base",)),
    "tail-flipped-d-w_n": (_flip_dw(-1), ("odd_base",)),
    "tail-flipped-d-w_1": (_flip_dw(0), ("odd_base",)),
}


@pytest.mark.parametrize("mutation, name", [(m, a) for m, (_, algs) in sorted(DD_MUTATIONS.items()) for a in algs])
def test_checked_columns_catch_a_wrong_closed_form(request, monkeypatch, mutation, name):
    import dgres.homology as homology

    alg = request.getfixturevalue(name)
    assert certify_contraction(alg, total_window(8)) is not None
    monkeypatch.setattr(homology, "dd_column", DD_MUTATIONS[mutation][0](homology.dd_column))
    assert certify_contraction(alg, total_window(8)) is None


# rows outside the basis, made from a row (k, (b, m, ws)) of a column: the
# label of a factor w = 1, whose flat element is zero, so that only the
# membership test can see it; a wrong component; b times a generator
OUTSIDE_ROWS = {
    "unit-factor": lambda alg, k, b, m, ws: (k + 1, (b, m, ws + (alg.one_mono,))),
    "wrong-component": lambda alg, k, b, m, ws: (k + 1, (b, m, ws)),
    "degree-shifted": lambda alg, k, b, m, ws: (k, (alg.mono_mul(b, alg.basis("B", 2)[0])[1], m, ws)),
}


@pytest.mark.parametrize("outside", sorted(OUTSIDE_ROWS))
@pytest.mark.parametrize("name", ["E3", "K3p", "odd_base"])
def test_checked_columns_reject_a_row_outside_the_basis(request, monkeypatch, outside, name):
    # the column of each (0, (1, m, ())), m != 1, gets one more row, made
    # from its first one
    import dgres.homology as homology

    alg = request.getfixturevalue(name)
    real = homology.dd_column

    def mutated(alg, label):
        col = real(alg, label)
        if label[0] or label[1][0] != alg.one_mono or not col:
            return col
        k, (b, m, ws) = next(iter(col))
        return {**col, OUTSIDE_ROWS[outside](alg, k, b, m, ws): alg.field.one}

    assert certify_contraction(alg, total_window(8)) is not None
    one, e = alg.one_mono, next(w for d in range(1, 4) for w in alg.basis("W", d))
    assert bb_basis_element(alg, (1, (one, e, (one,)))).is_zero()
    monkeypatch.setattr(homology, "dd_column", mutated)
    assert certify_contraction(alg, total_window(8)) is None


def test_alpha_matrix_on_labels_matches_flat_alpha(fixture_algebras, K3p):
    # α on every label, from pi_column and from the prefix lemma, against the
    # flat α; the matrix holds the prefix-1 columns
    windows = [(alg, 8) for alg in fixture_algebras.values()] + [(K3p, 10)]
    for alg, D in windows:
        one = alg.one_mono
        for t in range(D + 1):
            M = full_alpha_matrix(alg, t)
            want = {label: alpha(bb_basis_element(alg, label)).terms for label in M.col_labels}
            for label, col in zip(M.col_labels, M.columns()):
                n, (b, m, ws) = label
                X = (n, (one, m, ws))
                lemma = prefix_image(alg, label, dd_column(alg, X), {} if n else pi_column(alg, X[1]))[1]
                assert col == want[label] and lemma == want[label], label
            P = bb_alpha_matrix(alg, t)
            assert P.columns() == [want[label] for label in P.col_labels]
            assert all(b == alg.one_mono for _, (b, _, _) in P.col_labels)


def test_t_concatenation_of_words(fixture_algebras):
    # the suspension-shuffle sign (-1)^{m·|w|} of both T-concatenations
    cases = 0
    for alg in fixture_algebras.values():
        factors = [w for d in range(1, 7) for w in alg.basis("W", d)]
        seqs = [[]] + [[u] for u in factors] + [[u, v] for u in factors[:2] for v in factors[:2]]
        prefixes = [alg.one()] + [alg.from_monomial(b) for b in alg.basis("B", 1) + alg.basis("B", 2)]
        for us in seqs:
            for vs in seqs:
                if len(us) + len(vs) > 3:
                    continue
                assert t_multiply(t_word(alg, us), t_word(alg, vs)) == t_word(alg, us + vs), (us, vs)
                for b in prefixes:
                    assert t_action(bb_word(alg, b, us), t_word(alg, vs)) == bb_word(alg, b, us + vs), (b, us, vs)
                cases += 1 + len(prefixes)
    assert cases >= 300


def test_graded_sum_checks_its_owner():
    # components in different word lengths never meet, and the parts of two
    # modules over one algebra add without complaint, so the owner is
    # compared once, by the direct sum itself
    from dgres.errors import MismatchedAlgebra
    from dgres.fixtures import e1, e2, module_B
    from dgres.modules import NTElement

    E1, E2 = e1(), e2()
    with pytest.raises(MismatchedAlgebra):
        BBElement.one(E1) + bb_word(E2, E2.one(), [E2.gen("x")])
    N1, N2 = module_B(E1), module_B(E1)
    with pytest.raises(MismatchedAlgebra):
        NTElement(N1, {0: BBElement.one(E1)}) + NTElement(N2, {0: bb_word(E1, E1.one(), [E1.gen("e")])})
