import random

import pytest
from hypothesis import given, settings, strategies as st

from dgres.algebra import DGAlgebra, validate_dg
from dgres.errors import DgresError
from dgres.sampling import random_homogeneous_element
from dgres.scalars import Field

from oracles import basis_oracle, count_monomials_oracle, merge_sign_oracle, recursive_diff_mono, summed_differential


def test_odd_square_vanishes(E1):
    e = E1.gen("e")
    assert (e * e).is_zero()


def test_even_square(E2):
    x = E2.gen("x")
    assert x * x == E2.element([(1, {"x": 2})])


def test_two_odd_generators_anticommute():
    # derived with the transposition-count oracle: one odd-odd swap
    alg = DGAlgebra(Field.rationals(), ext_gens=[("e1", 1), ("e2", 1)])
    m1 = alg.mono({"e2": 1})
    m2 = alg.mono({"e1": 1})
    assert merge_sign_oracle(alg, m1, m2) == (-1, (1, 1))
    sign, prod = alg.mono_mul(m1, m2)
    assert (sign, prod.exps) == (-1, (1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
def test_monomial_sign_matches_oracle(a, b, c, d):
    alg = DGAlgebra(Field.rationals(), base_gens=[("s", 1)], ext_gens=[("t", 2), ("u", 3)])
    try:
        m1 = alg._mono_from_exps((b, a, d))
        m2 = alg._mono_from_exps((d, c, b))
    except DgresError:
        return
    expected = merge_sign_oracle(alg, m1, m2)
    got = alg.mono_mul(m1, m2)
    if expected is None:
        assert got is None
    else:
        assert got is not None and (got[0], got[1].exps) == expected


def test_alg_multiply_examples(E1, E2):
    x = E2.gen("x")
    assert x.scale_int(2) * x.scale_int(3) == E2.element([(6, {"x": 2})])
    e = E1.gen("e")
    s = e + e
    assert (s * s).is_zero()
    v = E2.element([(3, {"x": 2}), (-1, {})])
    assert E2.one() * v == v


def test_graded_commutativity_random(fixture_algebras):
    rng = random.Random(11)
    for alg in fixture_algebras.values():
        for _ in range(50):
            du, dv = rng.randrange(0, 5), rng.randrange(0, 5)
            u = random_homogeneous_element(alg, rng, du)
            v = random_homogeneous_element(alg, rng, dv)
            sign = -1 if (du % 2 and dv % 2) else 1
            assert u * v == (v * u).scale_int(sign)


def test_associativity_random(fixture_algebras):
    rng = random.Random(5)
    for alg in fixture_algebras.values():
        for _ in range(30):
            u = random_homogeneous_element(alg, rng, rng.randrange(0, 4))
            v = random_homogeneous_element(alg, rng, rng.randrange(0, 4))
            w = random_homogeneous_element(alg, rng, rng.randrange(0, 4))
            assert (u * v) * w == u * (v * w)


def test_differential_examples(E3):
    e, y = E3.gen("e"), E3.gen("y")
    assert E3.d(e) == y
    # Leibniz oracle: d(y e) = d(y) e + (-1)^{|y|} y d(e) = y^2
    assert E3.d(y * e) == y * y
    assert E3.d(E3.one()).is_zero()


def test_leibniz_random(fixture_algebras):
    rng = random.Random(23)
    for alg in fixture_algebras.values():
        for _ in range(40):
            du = rng.randrange(0, 5)
            u = random_homogeneous_element(alg, rng, du)
            v = random_homogeneous_element(alg, rng, rng.randrange(0, 5))
            lhs = alg.d(u * v)
            rhs = alg.d(u) * v + (u * alg.d(v)).scale_int(-1 if du % 2 else 1)
            assert lhs == rhs


def test_d_squared_zero(fixture_algebras):
    for alg in fixture_algebras.values():
        for deg in range(0, 9):
            for m in alg.basis("B", deg):
                assert alg.d(alg.diff_mono(m)).is_zero()


def test_validate_pass_and_failures():
    E3 = DGAlgebra(Field.rationals(), base_gens=[("y", 2)], ext_gens=[("e", 3)],
                   diff_terms={"e": [(1, {"y": 1})]})
    assert validate_dg(E3, 10).passed

    wrong_degree = DGAlgebra(Field.rationals(), base_gens=[("y", 2)], ext_gens=[("e", 2)],
                             diff_terms={"e": [(1, {"y": 1})]})
    rep = validate_dg(wrong_degree, 6)
    assert not rep.passed
    assert any("diff-degree[e]" == c.name for c in rep.failures())

    self_image = DGAlgebra(Field.rationals(), ext_gens=[("x", 2)], diff_terms={"x": [(1, {"x": 1})]})
    rep2 = validate_dg(self_image, 6)
    assert not rep2.passed


def test_degree_zero_generator_rejected():
    with pytest.raises(DgresError):
        DGAlgebra(Field.rationals(), ext_gens=[("z", 0)])


def test_basis_examples(E1, E2, E3):
    assert [E1.mono_repr(m) for m in E1.basis("Bbar", 1)] == ["e"]
    assert [E2.mono_repr(m) for m in E2.basis("B", 4)] == ["x^2"]
    # exhaustive enumeration oracle for E3 at degree 5
    assert count_monomials_oracle(E3.degvec, E3.parvec, 5) == 1
    assert [E3.mono_repr(m) for m in E3.basis("B", 5)] == ["y*e"]
    assert E3.basis("Bbar", 0) == ()


def test_basis_which_A(E3):
    assert [E3.mono_repr(m) for m in E3.basis("A", 4)] == ["y^2"]
    assert [E3.mono_repr(m) for m in E3.basis("A", 3)] == []


def test_basis_counts_match_oracle(fixture_algebras):
    for alg in fixture_algebras.values():
        for d in range(0, 10):
            assert len(alg.basis("B", d)) == count_monomials_oracle(alg.degvec, alg.parvec, d)


def test_basis_matches_the_box_oracle_in_content_and_order(fixture_algebras, K3p, odd_base):
    for name, alg in dict(fixture_algebras, K3p=K3p, odd_base=odd_base).items():
        for d in range(0, 11):
            for which in ("A", "B", "Bbar", "W"):
                got = alg.basis(which, d)
                assert [m.exps for m in got] == basis_oracle(alg, which, d), (name, which, d)
                assert [m.sort_key for m in got] == sorted(m.sort_key for m in got)


F3 = "field prime 3\n\n[algebra]\nbase a 1\next u 2\nd u = a\n"


def test_leibniz_factor_and_crossing_sign(K3p):
    from dgres.probfile import parse_problem

    # over F_3, d(u^k) = k·u^(k-1)·a vanishes exactly when 3 divides k
    alg = parse_problem(F3).algebra
    for k, want in [(1, [(1, {"a": 1})]), (2, [(2, {"u": 1, "a": 1})]), (3, []), (4, [(1, {"u": 3, "a": 1})])]:
        assert alg.diff_mono(alg.mono({"u": k})) == alg.element(want), k
    # d(e·f) = x·f - e·y = x·f - y·e: d f crosses the odd e
    assert K3p.diff_mono(K3p.mono({"e": 1, "f": 1})) == K3p.element([(1, {"x": 1, "f": 1}), (-1, {"y": 1, "e": 1})])


def test_diff_mono_and_d_match_the_recursive_and_summed_oracles(fixture_algebras, K3p, odd_base):
    from dgres.probfile import parse_problem

    rng = random.Random(31)
    algs = dict(fixture_algebras, K3p=K3p, odd_base=odd_base, f3=parse_problem(F3).algebra)
    for name, alg in algs.items():
        for d in range(0, 10):
            for m in alg.basis("B", d):
                assert alg.diff_mono(m) == recursive_diff_mono(alg, m), (name, m)
            for _ in range(5):
                u = random_homogeneous_element(alg, rng, d, max_terms=4)
                assert alg.d(u) == summed_differential(alg, u), (name, d)


def test_basis_deterministic_order(E3):
    twice = [tuple(E3.basis("B", d)) for d in range(8)]
    again = [tuple(E3.basis("B", d)) for d in range(8)]
    assert twice == again


def test_mismatched_algebra_rejected(E1, E2, E3):
    import pytest as _pytest

    from dgres.errors import MismatchedAlgebra

    with _pytest.raises(MismatchedAlgebra):
        E1.gen("e") * E2.gen("x")
    # monomials carry no algebra, only exponent vectors, so the generator-set check is by arity
    with _pytest.raises(MismatchedAlgebra):
        E1.mono_mul(E1.mono({"e": 1}), E3.mono({"e": 1}))


def test_memoized_monomial_ops_match_uncached(fixture_algebras, K3p, odd_base):
    from dgres.errors import MismatchedAlgebra

    algs = dict(fixture_algebras, K3p=K3p, odd_base=odd_base)
    for name, alg in algs.items():
        monos = [m for d in range(0, 9) for m in alg.basis("B", d)]
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for m1 in monos:
                for m2 in monos:
                    want = merge_sign_oracle(alg, m1, m2)
                    got = alg.mono_mul(m1, m2)
                    if want is None:
                        assert got is None, (name, m1, m2)
                    else:
                        assert got == (want[0], alg._mono_from_exps(want[1])), (name, m1, m2)
            for m in monos:
                base, ext = alg.mono_split(m)
                nb = alg.n_base
                assert base == alg._mono_from_exps(m.exps[:nb] + (0,) * (len(m.exps) - nb))
                assert ext == alg._mono_from_exps((0,) * nb + m.exps[nb:])
                assert alg.mono_mul(base, ext) == (1, m)
        other = fixture_algebras["E1"] if len(alg.gens) != 1 else K3p
        with pytest.raises(MismatchedAlgebra):
            alg.mono_mul(monos[0], other.one_mono)
        with pytest.raises(MismatchedAlgebra):
            alg.mono_mul(other.one_mono, monos[-1])


def test_mono_repr_is_memoized_per_algebra():
    # one Monomial object serves every algebra with the same exponents and degree,
    # so its memoized repr must be keyed by the algebra's own generator names
    x = DGAlgebra(Field.rationals(), ext_gens=[("x", 2), ("y", 3)])
    u = DGAlgebra(Field.rationals(), ext_gens=[("u", 2), ("v", 3)])
    m = x.mono({"x": 2, "y": 1})
    assert m is u.mono({"u": 2, "v": 1})
    for _ in range(2):  # the first pass fills the memo, the second reads it
        assert (x.mono_repr(m), u.mono_repr(m)) == ("x^2*y", "u^2*v")
        assert (x.mono_repr(x.one_mono), x.mono_repr(x.mono({"y": 1}))) == ("1", "y")


@pytest.mark.parametrize("op", ["mono_split", "diff_mono"])
def test_split_and_diff_reject_foreign_monomial(op):
    from dgres.errors import MismatchedAlgebra
    from dgres.fixtures import e1, e3

    alg = e3()  # a fresh algebra, so the first call meets a cold memo
    foreign = e1().mono({"e": 1})
    with pytest.raises(MismatchedAlgebra):
        getattr(alg, op)(foreign)
    for d in range(0, 7):
        for m in alg.basis("B", d):
            getattr(alg, op)(m)
    with pytest.raises(MismatchedAlgebra):
        getattr(alg, op)(foreign)
    assert foreign not in alg._split_cache and foreign not in alg._diff_cache


def test_field_constants_built_once():
    for F in (Field.rationals(), Field.prime(101)):
        assert F.zero is F.zero and F.one is F.one
        assert F.zero == 0 and F.one == 1
    assert Field.rationals() == Field.rationals() and hash(Field.prime(7)) == hash(Field.prime(7))
    assert Field.rationals() != Field.prime(7)


def test_prime_field_arithmetic():
    F = Field.prime(101)
    alg = DGAlgebra(F, ext_gens=[("x", 2)])
    x = alg.gen("x")
    v = x.scale_int(51) * x.scale_int(2)
    assert v == alg.element([(1, {"x": 2})])
    assert F.of_fraction(__import__("fractions").Fraction(1, 2)) == 51


# -- the hash-consed Monomial ---------------------------------------------------

LAM_XY = "field rationals\n\n[algebra]\nbase y 2\next e 1\next x 3\nd x = y*e\n"


def test_monomials_are_hash_consed():
    import copy
    import pickle

    from dgres.algebra import Monomial

    m = Monomial((0, 2, 1), 7)
    assert Monomial((0, 2, 1), 7) is m and Monomial((0, 2, 1), 5) is not m
    assert copy.deepcopy(m) is m and pickle.loads(pickle.dumps(m)) is m
    assert (m.exps, m.degree, m.sort_key) == ((0, 2, 1), 7, (7, (0, 2, 1)))
    assert repr(m) == "Monomial(exps=(0, 2, 1), degree=7)"


def test_equal_monomials_of_two_parsed_algebras_are_one_object():
    from dgres.probfile import parse_problem

    a, b = parse_problem(LAM_XY).algebra, parse_problem(LAM_XY).algebra
    assert a is not b and a.one_mono is b.one_mono
    for d in range(8):
        assert all(m is n for m, n in zip(a.basis("B", d), b.basis("B", d), strict=True))
    assert list(a.d(a.gen("x")).terms) == [b.mono({"y": 1, "e": 1})]


def test_every_monomial_is_truthy(fixture_algebras):
    for alg in fixture_algebras.values():
        assert alg.one_mono and all(m for d in range(6) for m in alg.basis("B", d))


# Creates the monomials of one element in the order given by argv, then prints
# the codes, the repr, the hash and the sort keys of that element.
_CODE_ORDER_SCRIPT = """
import sys
from dgres.algebra import Monomial
from dgres.probfile import parse_problem
ms = [((0, 0, 1), 3), ((1, 1, 0), 3), ((0, 1, 0), 1), ((0, 0, 0), 0)]
for exps, degree in (ms if sys.argv[1] == "forward" else ms[::-1]):
    Monomial(exps, degree)
alg = parse_problem(sys.argv[2]).algebra
u = alg.element([(1, {"x": 1}), (2, {"y": 1, "e": 1}), (-3, {"e": 1}), (5, {})])
print([int(m) for m in u.terms])
print(repr(u), hash(u), [m.sort_key for m, _ in u.sorted_terms()])
"""


def test_hash_and_order_of_elements_do_not_depend_on_codes():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for order, seed in (("forward", "0"), ("reverse", "1")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", _CODE_ORDER_SCRIPT, order, LAM_XY], env=env,
                             capture_output=True, text=True, check=True).stdout.splitlines()
        runs.append(out)
    (codes1, rest1), (codes2, rest2) = runs
    assert codes1 != codes2 and rest1 == rest2
    assert rest1.startswith("5 + -3*e + x + 2*y*e ")


def _linear_examples(kind: str):
    """Five elements of one type: x and y, a sum of two degrees, an element over another
    owner and one of another shape or type over x's owner.  The owners are E3 (d e = y)
    and the module c0, c1 with d c1 = c0·y, each built twice."""
    from dgres.fixtures import e3, extended_module
    from dgres.modules import ModTensorElement, NTElement, beta_N, mod_element
    from dgres.semifree import BBElement, TElement, bb_word, t_word
    from dgres.tensor import TensorElement, delta

    alg, other = e3(), e3()
    e, y = alg.gen("e"), alg.gen("y")
    N, N2 = extended_module(alg), extended_module(alg)
    one, ym, em = alg.one_mono, alg.mono({"y": 1}), alg.mono({"e": 1})
    if kind == "AlgElement":
        return e * y, y * y + y.scale_int(3), e + y, other.gen("y"), TensorElement(alg, 1, {(ym,): 1})
    if kind == "TensorElement":
        return (delta(e), TensorElement.from_word(alg, (ym, em)), delta(e) + delta(y * e), delta(other.gen("e")),
                TensorElement.unit(alg, 3))
    if kind == "ModTensorElement":
        return (mod_element(N, "c1"), ModTensorElement(N, 1, {(0, (ym,)): 2}), mod_element(N, "c0") + mod_element(N, "c1"),
                mod_element(N2, "c1"), ModTensorElement(N, 2, {(0, (one, one)): 1}))
    if kind == "TElement":
        return (t_word(alg, [e]), t_word(alg, [y * e]), TElement.one(alg) + t_word(alg, [e]),
                t_word(other, [other.gen("e")]), BBElement.one(alg))
    if kind == "BBElement":
        return (bb_word(alg, alg.one(), [e]), bb_word(alg, y, [e]), BBElement.one(alg) + bb_word(alg, alg.one(), [e]),
                BBElement.one(other), TElement.one(alg))
    e0 = NTElement(N, {0: BBElement.one(alg)})
    return (beta_N(N, "c1"), e0, beta_N(N, "c1") + e0, NTElement(N2, {0: BBElement.one(alg)}),
            ModTensorElement(N, 2, {(0, (one, one)): 1}))


@pytest.mark.parametrize("kind", ["AlgElement", "TensorElement", "ModTensorElement", "TElement", "BBElement", "NTElement"])
def test_linear_laws_of_every_element_type(kind):
    # the scalar sums (AlgElement, TensorElement) and the direct sums (the
    # rest) each write their linear structure once; the laws hold on each type
    from dgres.errors import LengthMismatch, MismatchedAlgebra

    x, y, mixed, foreign, other_shape = _linear_examples(kind)
    assert type(x).__name__ == kind and not x.is_zero() and not y.is_zero()
    f = (x.alg if hasattr(x, "alg") else x.module.alg).field
    assert (x + (-x)).is_zero() and (x - x).is_zero()
    assert x - y == x + y.scale(f.of_int(-1)) == x + y.scale_int(-1)
    assert x - y != x + y
    zero = x.scale(f.zero)
    assert type(zero) is type(x) and zero.is_zero() and zero == y.scale_int(0)
    assert x.homogeneous_degree() is not None and zero.homogeneous_degree() is None
    with pytest.raises(DgresError, match="not homogeneous"):
        mixed.homogeneous_degree()
    with pytest.raises(MismatchedAlgebra):
        x + foreign
    with pytest.raises(LengthMismatch):
        x + other_shape
    others = [_linear_examples(k)[0] for k in ("AlgElement", "TElement")]
    for z in [other_shape] + others:
        if type(z) is not type(x):
            assert (x == z) is False and (x != z) is True


@pytest.mark.parametrize("kind", ["AlgElement", "TensorElement"])
def test_twisted_signs_exactly_the_odd_degree_keys(kind):
    from dgres.tensor import TensorElement

    x, y, mixed, _, _ = _linear_examples(kind)
    even = x.alg.one() if kind == "AlgElement" else TensorElement.unit(x.alg, x.length)
    s = x + y + mixed + even
    assert {s.key_degree(k) % 2 for k in s.terms} == {0, 1}
    for k in (0, 2, -4):
        assert s.twisted(k) == s
    neg = s.alg.field.neg
    for k in (1, 3, -1):
        t = s.twisted(k)
        assert type(t) is type(s) and t.shape == s.shape
        assert t.terms == {key: neg(c) if s.key_degree(key) % 2 else c for key, c in s.terms.items()}
