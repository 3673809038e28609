import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres.algebra import DGAlgebra
from dgres.bar import bar_action, bar_differential, bar_homotopy, nu
from dgres.errors import NotInJn
from dgres.probfile import parse_problem
from dgres.scalars import Field
from dgres.sampling import random_homogeneous_element, random_homogeneous_tensor
from dgres.semifree import BBElement, TElement, bb_word
from dgres.tensor import (
    TensorElement,
    concat_B,
    delta,
    delta_word,
    from_algebra_element,
    left_mult,
    normalize_word,
    pi_B,
    prefixed_basis_dim,
    prefixed_basis_element,
    prefixed_basis_labels,
    right_mult,
    tensor_basis,
    tensor_differential,
    tensor_multiply,
    word_degree,
)

from oracles import (
    add_normalized,
    alternating_merges,
    enumerating_random_tensor,
    jn_basis_element,
    jn_basis_labels,
    jn_membership,
    kappa_n,
    kappa_n_inverse,
    normalizing_bar_action,
    normalizing_bar_homotopy,
    normalizing_bb_word,
    normalizing_concat_B,
    normalizing_delta,
    normalizing_right_mult,
    normalize_word_oracle,
    prefixed_coords,
    tensor_repr_oracle,
    tensor_sign_oracle,
)


def W(alg, *names_or_monos):
    monos = []
    for item in names_or_monos:
        monos.append(alg.mono(item) if isinstance(item, dict) else item)
    return TensorElement.from_word(alg, tuple(monos))


def test_tensor_multiply_examples(E1, E2):
    one = {}
    assert tensor_multiply(W(E1, {"e": 1}, one), W(E1, one, {"e": 1})) == W(E1, {"e": 1}, {"e": 1})
    # derived: sign oracle gives (-1)^{|e||e|} = -1
    assert tensor_sign_oracle([0, 1], [1, 0]) == -1
    lhs = tensor_multiply(W(E1, one, {"e": 1}), W(E1, {"e": 1}, one))
    assert lhs == W(E1, {"e": 1}, {"e": 1}).scale_int(-1)
    assert tensor_multiply(W(E2, one, {"x": 1}), W(E2, {"x": 1}, one)) == W(E2, {"x": 1}, {"x": 1})


def test_tensor_multiply_associative(fixture_algebras):
    rng = random.Random(3)
    for alg in fixture_algebras.values():
        for _ in range(25):
            a = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            b = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            c = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            assert tensor_multiply(tensor_multiply(a, b), c) == tensor_multiply(a, tensor_multiply(b, c))


def test_tensor_differential_examples(E3):
    one = {}
    assert tensor_differential(W(E3, {"e": 1}, one)) == W(E3, {"y": 1}, one)
    # second-slot sign (-1)^{|e|} = -1; e⊗y normalizes to (y e)⊗1
    expected = W(E3, {"y": 1}, {"e": 1}) - W(E3, {"y": 1, "e": 1}, one)
    assert tensor_differential(W(E3, {"e": 1}, {"e": 1})) == expected
    assert tensor_differential(W(E3, one, one)).is_zero()


def test_tensor_differential_squares_to_zero(fixture_algebras):
    for alg in fixture_algebras.values():
        for length in (2, 3):
            for d in range(0, 7):
                for w in tensor_basis(alg, length, d):
                    x = TensorElement.from_word(alg, w)
                    assert tensor_differential(tensor_differential(x)).is_zero()


def _tensor_differential_reference(t):
    """The slotwise differential with every image word sent through `normalize_word_oracle`."""
    alg = t.alg
    f = alg.field
    out = TensorElement(alg, t.length)
    for w, c in t.terms.items():
        prefix = 0
        for i, m in enumerate(w):
            cc = f.neg(c) if prefix % 2 else c
            for mm, cm in alg.diff_mono(m).terms.items():
                add_normalized(out, w[:i] + (mm,) + w[i + 1:], f.mul(cc, cm))
            prefix += m.degree
    return out


def test_tensor_differential_matches_normalizing_reference(fixture_algebras, K3p, odd_base):
    # a in slot 2 crosses the odd f on its way to slot 0: (-1)^{|f|} * (-1)^{|a||f|} = +1
    a, f, e, one = odd_base.mono({"a": 1}), odd_base.mono({"f": 1}), odd_base.mono({"e": 1}), odd_base.one_mono
    assert tensor_differential(TensorElement.from_word(odd_base, (one, f, e))) == \
        TensorElement.from_word(odd_base, (a, f, one))
    algs = dict(fixture_algebras, K3p=K3p, odd_base=odd_base)
    for name, alg in algs.items():
        top = 6 if name == "odd_base" else 8
        for d in range(0, top + 1):
            for n in range(0, d + 1):
                for lb in prefixed_basis_labels(alg, n, d):
                    x = prefixed_basis_element(alg, lb)
                    assert tensor_differential(x) == _tensor_differential_reference(x), (name, lb)
            for length in (1, 2, 3):
                for w in tensor_basis(alg, length, d):
                    x = TensorElement.from_word(alg, w)
                    assert tensor_differential(x) == _tensor_differential_reference(x), (name, w)


def test_zero_differential_returns_at_once_and_equals_the_slot_walk(fixture_algebras, odd_base, monkeypatch):
    # E1 = Λ(e) and E2 = ℚ[x] have d = 0 on every generator; E3 and odd_base do not
    algs = dict(fixture_algebras, odd_base=odd_base)
    assert sorted(name for name, alg in algs.items() if alg.d_is_zero) == ["E1", "E1p", "E2", "E2p"]
    rng = random.Random(19)
    for name, alg in algs.items():
        ts = [random_homogeneous_tensor(alg, rng, rng.randrange(1, 4), rng.randrange(0, 7)) for _ in range(40)]
        with monkeypatch.context() as mp:
            mp.setattr(alg, "d_is_zero", False)  # force the walk over every slot
            walked = [tensor_differential(t) for t in ts]
        if alg.d_is_zero:
            with monkeypatch.context() as mp:
                mp.setattr(alg, "_diff_cache", None)  # the early return reads no slot: diff_mono would raise
                early = [tensor_differential(t) for t in ts]
            assert all(x.is_zero() for x in early)
        else:
            early = [tensor_differential(t) for t in ts]
        assert early == walked == [_tensor_differential_reference(t) for t in ts], name


def test_tensor_leibniz(fixture_algebras):
    rng = random.Random(9)
    for alg in fixture_algebras.values():
        for _ in range(25):
            du = rng.randrange(0, 5)
            u = random_homogeneous_tensor(alg, rng, 2, du)
            v = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            lhs = tensor_differential(tensor_multiply(u, v))
            rhs = tensor_multiply(tensor_differential(u), v) + tensor_multiply(
                u, tensor_differential(v)
            ).scale_int(-1 if du % 2 else 1)
            assert lhs == rhs


def test_pi_examples(E1, E2):
    one = {}
    assert pi_B(W(E1, {"e": 1}, one)) == E1.gen("e")
    assert pi_B(delta(E1.gen("e"))).is_zero()
    assert pi_B(W(E2, {"x": 1}, {"x": 1})) == E2.gen("x") * E2.gen("x")


def test_pi_is_algebra_and_chain_map(fixture_algebras):
    rng = random.Random(17)
    for alg in fixture_algebras.values():
        for _ in range(20):
            s = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            t = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
            assert pi_B(tensor_multiply(s, t)) == pi_B(s) * pi_B(t)
            assert pi_B(tensor_differential(s)) == alg.d(pi_B(s))


def test_delta_examples(E1, E2, E3):
    e = E1.gen("e")
    assert delta(e) == W(E1, {}, {"e": 1}) - W(E1, {"e": 1}, {})
    assert delta(E1.one()).is_zero()
    x = E2.gen("x")
    assert (delta(x * x) - (right_mult(delta(x), x) + left_mult(x, delta(x)))).is_zero()
    # A-linearity over the base subalgebra
    y, e3 = E3.gen("y"), E3.gen("e")
    assert delta(y).is_zero()
    assert delta(y * e3) == left_mult(y, delta(e3))


def test_delta_is_chain_map(fixture_algebras):
    rng = random.Random(31)
    for alg in fixture_algebras.values():
        for d in range(0, 7):
            for m in alg.basis("B", d):
                b = alg.from_monomial(m)
                assert tensor_differential(delta(b)) == delta(alg.d(b))


def test_kappa_round_trips(fixture_algebras):
    for alg in fixture_algebras.values():
        for n in range(0, 4):
            for d in range(0, 9):
                for label in jn_basis_labels(alg, n, d):
                    t = jn_basis_element(alg, label)
                    view = kappa_n_inverse(t, n)
                    assert kappa_n(alg, n, view.left_coords) == t


def test_kappa_examples(E1, E2):
    # n=1: coords {(e,): 1} corresponds to delta(e)
    em = E1.mono({"e": 1})
    assert kappa_n(E1, 1, {(em,): E1.one()}) == delta(E1.gen("e"))
    # n=0 is the identity on B
    b = E2.gen("x")
    assert kappa_n(E2, 0, {(): b}) == from_algebra_element(b)
    # n=2 over E2: delta(x) ⊗_B delta(x) has coords {(x,x): 1}
    xm = E2.mono({"x": 1})
    view = kappa_n_inverse(delta_word(E2, (xm, xm)), 2)
    assert view.left_coords == {(xm, xm): E2.one()}


def test_kappa_inverse_of_kappa_on_random_coords(fixture_algebras):
    import random

    from dgres.sampling import random_homogeneous_element

    rng = random.Random(55)
    for alg in fixture_algebras.values():
        for n in (1, 2):
            ws_pool = [w for d in range(1, 4) for w in alg.basis("W", d)]
            if not ws_pool:
                continue
            for _ in range(6):
                coords = {}
                for _ in range(2):
                    ws = tuple(rng.choice(ws_pool) for _ in range(n))
                    f = random_homogeneous_element(alg, rng, rng.randrange(0, 3))
                    if not f.is_zero():
                        coords[ws] = coords.get(ws, alg.zero()) + f
                coords = {k: v for k, v in coords.items() if not v.is_zero()}
                t = kappa_n(alg, n, coords)
                view = kappa_n_inverse(t, n)
                assert view.left_coords == coords


def test_jn_membership(E1, E2):
    ok, view = jn_membership(delta(E1.gen("e")), 1)
    assert ok and list(view.left_coords) == [(E1.mono({"e": 1}),)]
    ok2, _ = jn_membership(W(E1, {}, {}), 1)
    assert not ok2
    # a product of two diagonal-ideal elements stays in the ideal
    j = delta(E2.gen("x"))
    prod = tensor_multiply(W(E2, {}, {"x": 1}), j)
    ok3, _ = jn_membership(prod, 1)
    assert ok3
    with pytest.raises(NotInJn):
        kappa_n_inverse(W(E2, {}, {}), 1)


def test_jn_membership_matches_linear_solve_oracle(fixture_algebras):
    # independent oracle: solve for coordinates over the expanded δ-basis
    # with dense elimination, per degree slice, for n = 1 and n = 2, on
    # random tensors and on random combinations of the basis; the δ-basis is
    # free, so the dense solution is unique and the coordinates must match it
    import random

    from dgres.sampling import random_scalar
    from oracles import dense_solve_oracle

    rng = random.Random(77)
    for alg in fixture_algebras.values():
        f = alg.field
        for n in (1, 2):
            for d in range(0, 6):
                words = tensor_basis(alg, n + 1, d)
                if not words:
                    continue
                widx = {w: i for i, w in enumerate(words)}
                labels = jn_basis_labels(alg, n, d)
                basis = [jn_basis_element(alg, lb) for lb in labels]
                rows = [[f.zero] * len(labels) for _ in words]
                for j, el in enumerate(basis):
                    for w, c in el.terms.items():
                        rows[widx[w]][j] = c
                samples = [random_homogeneous_tensor(alg, rng, n + 1, d) for _ in range(6)]
                for _ in range(4 if labels else 0):
                    picks = rng.sample(range(len(labels)), min(3, len(labels)))
                    samples.append(sum((basis[j].scale(random_scalar(f, rng)) for j in picks),
                                       TensorElement(alg, n + 1)))
                for t in samples:
                    b = [f.zero] * len(words)
                    for w, c in t.terms.items():
                        b[widx[w]] = c
                    x, cert = dense_solve_oracle(rows, len(labels), b, f.p)
                    ok, view = jn_membership(t, n)
                    assert ok == (x is not None), (n, d, t)
                    if ok:
                        got = {(m, ws): c for ws, a in view.left_coords.items() for m, c in a.terms.items()}
                        assert got == {lb: c for lb, c in zip(labels, x) if c != 0}, (n, d, t)


def test_differential_preserves_diagonal_ideal(fixture_algebras):
    for alg in fixture_algebras.values():
        for d in range(1, 8):
            for label in jn_basis_labels(alg, 1, d):
                t = jn_basis_element(alg, label)
                ok, _ = jn_membership(tensor_differential(t), 1)
                assert ok


def test_prefixed_coords_round_trip(fixture_algebras):
    for alg in fixture_algebras.values():
        for n in range(0, 3):
            for d in range(0, 7):
                for lb in prefixed_basis_labels(alg, n, d):
                    el = prefixed_basis_element(alg, lb)
                    assert prefixed_coords(el, n) == {lb: alg.field.one}


def _sort_keys(ms):
    return tuple(m.sort_key for m in ms)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E1p", "E2p", "E3p", "K3p", "odd_base", "lam"])
def test_slice_enumerators_emit_in_key_order(request, fixture_algebras, name):
    """Each slice enumerator already emits its labels sorted by the canonical key."""
    if name in fixture_algebras:
        alg = fixture_algebras[name]
    elif name == "lam":
        alg = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    else:
        alg = request.getfixturevalue(name)
    for degree in range(9):
        for length in range(1, 5):
            words = tensor_basis(alg, length, degree)
            assert list(words) == sorted(words, key=lambda w: (word_degree(w), _sort_keys(w)))
        for n in range(1, 5):
            labels = jn_basis_labels(alg, n, degree)
            assert list(labels) == sorted(labels, key=lambda bw: (bw[0].sort_key, _sort_keys(bw[1])))
        for n in range(5):
            labels = prefixed_basis_labels(alg, n, degree)
            assert list(labels) == sorted(
                labels, key=lambda lb: (lb[0].sort_key, lb[1].sort_key, _sort_keys(lb[2])))


def test_prefixed_basis_dim_counts_the_labels(fixture_algebras, odd_base):
    # the count appends one δ-factor per step and lists no label; fixture_algebras is E1-E3 over ℚ and F_101
    for alg in list(fixture_algebras.values()) + [odd_base]:
        for n in range(5):
            for d in range(10):
                assert prefixed_basis_dim(alg, n, d) == len(prefixed_basis_labels(alg, n, d)), (n, d)


def test_slot_local_examples(odd_base):
    # the base part a of the disturbed slot crosses the ext slots before it on its way to slot 0
    a, f, one = odd_base.mono({"a": 1}), odd_base.mono({"f": 1}), odd_base.one_mono
    af = TensorElement.from_word(odd_base, (a, f, one))
    # junction slot 2 holds a, which crosses the odd f: (-1)^{|a||f|} = -1
    assert concat_B(TensorElement.from_word(odd_base, (one, f, one)), TensorElement.from_word(odd_base, (a, one))) == \
        -TensorElement.from_word(odd_base, (a, f, one, one))
    # last slot f·a = -a·f, with no slot to cross
    assert right_mult(TensorElement.from_word(odd_base, (one, f)), odd_base.gen("a")) == \
        -TensorElement.from_word(odd_base, (a, f))
    # the old slot 0, a·f, becomes slot 1 and gives a back to the new slot 0
    assert bar_homotopy(TensorElement.from_word(odd_base, (odd_base.mono({"a": 1, "f": 1}), one))) == af
    # a·a = 0 in slot 0 kills the word
    assert concat_B(TensorElement.from_word(odd_base, (a, one)), TensorElement.from_word(odd_base, (a, one))).is_zero()


def _named_algebra(request, fixture_algebras, golden_dir, name):
    """A fixture algebra, a conftest fixture, or the algebra of `chain_frac.dgres`."""
    if name in fixture_algebras:
        return fixture_algebras[name]
    if name == "chain_frac":
        return parse_problem((golden_dir / "chain_frac.dgres").read_text()).algebra
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E3p", "odd_base", "K3p", "chain_frac"])
def test_slot_local_products_match_normalizing_references(request, fixture_algebras, golden_dir, name):
    """concat_B, right_mult, bar_homotopy, bar_action, nu, δ and bb_word normalise one slot;
    normalize_word_oracle is the oracle."""
    alg = _named_algebra(request, fixture_algebras, golden_dir, name)
    rng = random.Random(23)
    rng_bb = random.Random(29)  # bb_word's inputs, on a stream of their own: the others stay as drawn
    moved = 0  # products whose disturbed slot carries a base part
    for _ in range(80):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        t1 = random_homogeneous_tensor(alg, rng, n, rng.randrange(0, 7))
        t2 = random_homogeneous_tensor(alg, rng, m, rng.randrange(0, 7))
        u = random_homogeneous_element(alg, rng, rng.randrange(0, 5))
        s = random_homogeneous_tensor(alg, rng, 2, rng.randrange(0, 5))
        assert concat_B(t1, t2) == normalizing_concat_B(t1, t2), (t1, t2)
        assert right_mult(t1, u) == normalizing_right_mult(t1, u), (t1, u)
        assert bar_homotopy(t1) == normalizing_bar_homotopy(t1), t1
        assert bar_action(t1, s) == normalizing_bar_action(t1, s), (t1, s)
        expected_nu = TensorElement(alg, 3)
        for mono, c in u.terms.items():
            expected_nu = expected_nu + TensorElement.from_word(alg, (alg.one_mono, mono, alg.one_mono), alg.field.neg(c))
        assert nu(u) == expected_nu, u
        assert delta(u) == normalizing_delta(u), u
        prefix = u + random_homogeneous_element(alg, rng_bb, rng_bb.randrange(0, 5))
        factors = [random_homogeneous_element(alg, rng_bb, rng_bb.randrange(1, 5))
                   for _ in range(rng_bb.randrange(0, 3))]
        assert bb_word(alg, prefix, factors) == normalizing_bb_word(alg, prefix, factors), (prefix, factors)
        moved += n > 1 and any(any(w[0].exps[:alg.n_base]) for w in t2.terms)
    assert (moved > 0) == (alg.n_base > 0)


def test_normalize_word_examples(odd_base, K3p):
    a, e, f, one = (odd_base.mono({"a": 1}), odd_base.mono({"e": 1}), odd_base.mono({"f": 1}),
                    odd_base.one_mono)
    af = odd_base.mono({"a": 1, "f": 1})
    # a in slot 2 crosses the odd f of slot 1: (-1)^{|a||f|} = -1
    assert normalize_word(odd_base, (one, f, a)) == (-1, (a, f, one))
    # slot 0 f times a is -a·f; the a of slot 2 crosses e, of even degree
    assert normalize_word(odd_base, (f, e, a)) == (-1, (af, e, one))
    # base parts in two slots: the second a meets the first in slot 0, and a·a = 0
    assert normalize_word(odd_base, (one, af, a)) is None
    # even base parts cross freely and multiply in slot 0
    x, y, one_k = K3p.mono({"x": 1}), K3p.mono({"y": 1}), K3p.one_mono
    xy, xe, e = K3p.mono({"x": 1, "y": 1}), K3p.mono({"x": 1, "e": 1}), K3p.mono({"e": 1})
    assert normalize_word(K3p, (one_k, xe, y)) == (1, (xy, e, one_k))
    assert normalize_word(K3p, (x, one_k, one_k)) == (1, (x, one_k, one_k))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_word_matches_the_reference_normalizer(E1, E2, E3, odd_base, K3p, data):
    """Raw words with base parts in any slots: the step `_normal_at` at every slot is the one-loop reference."""
    alg = data.draw(st.sampled_from([E1, E2, E3, odd_base, K3p]), label="algebra")
    length = data.draw(st.integers(1, 5), label="length")
    word = tuple(data.draw(st.sampled_from(alg.basis("B", d) or (alg.one_mono,)))
                 for d in data.draw(st.lists(st.integers(0, 6), min_size=length, max_size=length), label="degrees"))
    got = normalize_word(alg, word)
    assert got == normalize_word_oracle(alg, word)
    assert got is None or all(not any(m.exps[:alg.n_base]) for m in got[1][1:])


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E3p", "odd_base", "K3p", "chain_frac"])
def test_repr_spells_each_term_as_the_reference(request, fixture_algebras, golden_dir, name):
    """`repr` of a tensor element, and of 𝔹 and T elements through it, is the term-by-term text."""
    alg = _named_algebra(request, fixture_algebras, golden_dir, name)
    assert repr(TensorElement(alg, 2)) == tensor_repr_oracle(TensorElement(alg, 2)) == "0"
    assert repr(BBElement(alg)) == repr(TElement(alg)) == "0"
    rng = random.Random(37)
    fractions = 0
    for _ in range(60):
        length, degree = rng.randrange(1, 4), rng.randrange(0, 7)
        for t in (random_homogeneous_tensor(alg, rng, length, degree, 4),
                  enumerating_random_tensor(alg, rng, length, degree, 4)):
            assert repr(t) == tensor_repr_oracle(t), t.terms
            fractions += sum(type(c) is Fraction for c in t.terms.values())
        for graded, offset in ((BBElement, 2), (TElement, 1)):
            parts = {n: random_homogeneous_tensor(alg, rng, n + offset, rng.randrange(0, 6)) for n in range(3)}
            x = graded(alg, {n: t for n, t in parts.items() if not t.is_zero()})
            want = " ++ ".join(f"[{n}] {tensor_repr_oracle(t)}" for n, t in sorted(x.components.items()))
            assert repr(x) == (want or "0")
    assert (fractions > 0) == (not alg.field.is_prime_field)


@pytest.mark.parametrize("name", ["E1", "E2", "E3", "E3p", "odd_base", "K3p"])
def test_bar_differential_is_the_alternating_sum_of_merges(request, fixture_algebras, name):
    alg = fixture_algebras[name] if name in fixture_algebras else request.getfixturevalue(name)
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(0, 4)
        t = random_homogeneous_tensor(alg, rng, n + 2, rng.randrange(0, 7))
        assert bar_differential(t, n) == alternating_merges(t, n), t
