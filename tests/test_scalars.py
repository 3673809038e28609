"""ℚ scalars stay canonical: an int, or a Fraction whose denominator is not 1."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgres.algebra import DGAlgebra
from dgres.linalg import SliceMatrix, echelon, solve_linear, verify_certificate
from dgres.sampling import random_homogeneous_tensor
from dgres.scalars import Field
from dgres.tensor import tensor_differential

from oracles import dense_rank_oracle

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
