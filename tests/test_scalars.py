"""ℚ scalars stay canonical: an int, or a Fraction whose denominator is not 1."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres.algebra import DGAlgebra
from dgres.linalg import SliceMatrix, echelon, solve_linear, verify_certificate
from dgres.sampling import random_homogeneous_tensor
from dgres.scalars import Field, q_add, q_inv, q_mul, q_neg, q_ratio
from dgres.tensor import tensor_differential

from oracles import dense_nullspace_oracle, dense_rank_oracle, dense_solve_oracle

QQ = Field.rationals()

# Q[x,y]<e,f>, |x| = |y| = 2, |e| = |f| = 3, with fractional differentials
FRAC = DGAlgebra(QQ, base_gens=[("x", 2), ("y", 2)], ext_gens=[("e", 3), ("f", 3)],
                 diff_terms={"e": [(Fraction(3, 2), {"x": 1})],
                             "f": [(Fraction(-2, 5), {"y": 1}), (4, {"x": 1})]})

# canonical scalars whose products and sums are often integral
scalars = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool).map(QQ.of_fraction)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def all_canonical(values) -> bool:
    return all(canonical(c) for c in values)


def test_field_operations_are_canonical():
    half, two = QQ.of_fraction(Fraction(1, 2)), QQ.of_int(2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of_fraction(Fraction(6, 3))) is int and type(two) is int
    assert QQ.mul(half, two) == 1 and type(QQ.mul(half, two)) is int
    assert type(QQ.add(half, half)) is int and type(QQ.sub(half, QQ.neg(half))) is int
    assert type(QQ.inv(half)) is int and type(QQ.div(two, QQ.inv(half))) is int
    assert QQ.inv(two) == half and type(QQ.inv(two)) is Fraction
    assert QQ.inv(QQ.of_fraction(Fraction(-1, 3))) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.inv(Fraction(-3, 7)) == Fraction(-7, 3) and QQ.inv(-1) == -1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 9), scalars)
def test_tensor_arithmetic_keeps_scalars_canonical(seed, length, degree, c):
    rng = random.Random(seed)
    t = random_homogeneous_tensor(FRAC, rng, length, degree)
    u = random_homogeneous_tensor(FRAC, rng, length, degree)
    assert all_canonical(t.terms.values()) and all_canonical(u.terms.values())
    for out in (t.scale(c), t + t.scale(c), t - u.scale(c) + u.scale(c), tensor_differential(t),
                tensor_differential(t.scale(c) + u)):
        assert all_canonical(out.terms.values())


@st.composite
def mixed_rows(draw):
    """Rows of canonical ints and Fractions, with integral multiples of one another."""
    ncols = draw(st.integers(1, 7))
    cell = st.one_of(st.just(0), st.just(0), scalars)
    rows = [[draw(cell) for _ in range(ncols)] for _ in range(draw(st.integers(1, 9)))]
    for _ in range(draw(st.integers(0, 3))):
        c = draw(scalars)
        rows.append([QQ.mul(v, c) for v in draw(st.sampled_from(rows))])
    return rows, ncols


def _matrix(rows, ncols):
    return SliceMatrix(QQ, len(rows), ncols, {(i, j): v for i, row in enumerate(rows)
                                              for j, v in enumerate(row) if v})


@settings(max_examples=100, deadline=None)
@given(mixed_rows())
def test_echelon_pivots_are_canonical(system):
    rows, ncols = system
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    for reduced in (False, True):
        pivots = echelon(sparse, QQ, reduced=reduced)
        assert all(all_canonical(row.values()) for row in pivots.values())
    assert len(pivots) == dense_rank_oracle(rows) == _matrix(rows, ncols).rank()


@settings(max_examples=100, deadline=None)
@given(mixed_rows(), st.lists(scalars, min_size=12, max_size=12), st.booleans())
def test_solutions_and_certificates_are_canonical(system, rhs, consistent):
    rows, ncols = system
    A = _matrix(rows, ncols)
    b = ([sum((QQ.mul(a, x) for a, x in zip(row, rhs)), 0) for row in rows] if consistent
         else rhs[:len(rows)])
    b = [QQ.of_fraction(Fraction(v)) for v in b]
    x, cert = solve_linear(A, b)
    if cert is None:
        assert all_canonical(x)
    else:
        assert all_canonical(cert.row_combination.values()) and verify_certificate(A, b, cert)
    assert all(all_canonical(vec) for vec in A.nullspace())


# -- the integer-pair kernel against fractions.Fraction -------------------------

# numerators and denominators small enough to collide and past 2^64
numerators = st.one_of(st.integers(-12, 12), st.integers(-2**80, 2**80))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2**80))
fraction_values = st.builds(Fraction, numerators, denominators)


@st.composite
def operand_pairs(draw):
    """(a, b) as Fractions: free, with one denominator, with an integral sum or product, or b = -a."""
    a = draw(fraction_values)
    kind = draw(st.sampled_from(["free", "same denominator", "integral sum", "integral product", "negation"]))
    if kind == "free":
        b = draw(fraction_values)
    elif kind == "same denominator":
        b = Fraction(draw(numerators), a.denominator)
    elif kind == "integral sum":
        b = draw(numerators) - a
    elif kind == "integral product":
        b = draw(numerators) / a if a else draw(fraction_values)
    else:
        b = -a
    return a, b


def operand(q: Fraction, raw: bool):
    """q in canonical form, or as the Fraction itself (denominator 1 included) when raw."""
    return q if raw else QQ.of_fraction(q)


def assert_same(got, want: Fraction):
    """got is want in canonical form: value, type, hash, str, coprime parts, positive denominator."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
    assert hash(got) == hash(want) and str(got) == str(want)
    if type(got) is Fraction:
        n, d = got.numerator, got.denominator
        assert d > 1 and gcd(n, d) == 1
        assert (n, d) == (want.numerator, want.denominator)


@settings(max_examples=400, deadline=None)
@given(operand_pairs(), st.booleans(), st.booleans())
def test_kernel_matches_fraction_arithmetic(pair, raw_a, raw_b):
    a, b = pair
    x, y = operand(a, raw_a), operand(b, raw_b)
    assert_same(q_add(x, y), a + b)
    assert_same(q_mul(x, y), a * b)
    assert_same(q_neg(x), -a)
    assert_same(QQ.add(x, y), a + b)
    assert_same(QQ.sub(x, y), a - b)
    assert_same(QQ.mul(x, y), a * b)
    assert_same(QQ.neg(y), -b)
    for q, v in ((a, x), (b, y)):
        if q:
            assert_same(q_inv(v), 1 / q)
            assert_same(QQ.inv(v), 1 / q)
            assert_same(QQ.div(x, v), a / q)
        else:
            with pytest.raises(ZeroDivisionError):
                q_inv(v)


@settings(max_examples=200, deadline=None)
@given(numerators, st.one_of(denominators, denominators.map(lambda d: -d)))
def test_ratio_matches_fraction(n, d):
    assert_same(q_ratio(n, d), Fraction(n, d))
    assert_same(QQ.of_fraction(Fraction(n, d)), Fraction(n, d))


def test_kernel_edge_cases():
    big = 2**70 + 1
    assert_same(q_add(Fraction(1, 3), Fraction(2, 3)), Fraction(1))
    assert_same(q_add(Fraction(1, 6), Fraction(-1, 6)), Fraction(0))
    assert_same(q_add(Fraction(1, 6), Fraction(1, 10)), Fraction(4, 15))
    assert_same(q_add(Fraction(5, 1), -5), Fraction(0))
    assert_same(q_mul(Fraction(big, 3), Fraction(3, big)), Fraction(1))
    assert_same(q_mul(0, Fraction(big, 7)), Fraction(0))
    assert_same(q_mul(Fraction(0, 1), 5), Fraction(0))
    assert_same(q_mul(6, Fraction(5, 4)), Fraction(15, 2))
    assert_same(q_neg(Fraction(0, 1)), Fraction(0))
    assert_same(q_inv(Fraction(-big, 2)), Fraction(-2, big))
    assert_same(q_inv(-1), Fraction(-1))
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            q_inv(zero)


# -- elimination with large fractional entries -----------------------------------

big_entries = st.builds(Fraction, st.integers(-2**70, 2**70).filter(bool),
                        st.integers(1, 2**70)).map(QQ.of_fraction)


@st.composite
def big_systems(draw):
    """Rows with large fractional entries, some of them combinations of others, and a right side."""
    ncols = draw(st.integers(1, 5))
    cell = st.one_of(st.just(0), st.just(0), big_entries, scalars)
    rows = [[draw(cell) for _ in range(ncols)] for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c1, c2 = draw(big_entries), draw(big_entries)
        rows.append([QQ.add(QQ.mul(c1, u), QQ.mul(c2, v)) for u, v in zip(r1, r2)])
    b = [draw(st.one_of(st.just(0), big_entries)) for _ in rows]
    return rows, ncols, b


@settings(max_examples=150, deadline=None)
@given(big_systems())
def test_large_fractional_elimination_matches_fraction_reference(system):
    rows, ncols, b = system
    A = _matrix(rows, ncols)
    assert A.rank() == dense_rank_oracle(rows)
    assert A.nullspace() == dense_nullspace_oracle(rows, ncols)
    x, cert = solve_linear(A, b)
    want_x, want_cert = dense_solve_oracle(rows, ncols, b)
    if want_cert is None:
        assert cert is None and x == want_x and all_canonical(x)
    else:
        assert x is None and (cert.row_combination, cert.first_row) == want_cert
        assert all_canonical(cert.row_combination.values()) and verify_certificate(A, b, cert)


def test_inconsistent_large_fractional_system_is_certified():
    u, v = Fraction(2**67 + 3, 2**65 + 7), Fraction(-(3**41), 5**29)
    rows = [[u, v, 0], [QQ.mul(u, Fraction(7, 3)), QQ.mul(v, Fraction(7, 3)), 0], [0, 0, v]]
    b = [1, 2, u]
    A = _matrix(rows, 3)
    assert A.rank() == dense_rank_oracle(rows) == 2
    x, cert = solve_linear(A, b)
    assert x is None and verify_certificate(A, b, cert)
    assert (cert.row_combination, cert.first_row) == dense_solve_oracle(rows, 3, b)[1]
    # λ = (7, -3): λᵀA = 0 and λᵀb = 1, the RREF row monic at the b column
    assert cert.row_combination == {0: 7, 1: -3} and cert.first_row == 0
