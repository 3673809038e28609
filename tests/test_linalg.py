import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgres.algebra import DGAlgebra
from dgres.errors import DgresError
from dgres.linalg import InfeasibilityCertificate, SliceMatrix, echelon, solve_linear, verify_certificate
from dgres.scalars import Field

from oracles import (dense_nullspace_oracle, dense_rank_oracle, dense_rref_oracle, dense_solve_oracle,
                     reduced_slice_matrix)


def _from_rows(field, rows, ncols=None):
    M = SliceMatrix(field, len(rows), len(rows[0]) if ncols is None else ncols)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != field.zero:
                M.set(i, j, v)
    return M


def _dense(M):
    rows = [[M.field.zero] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    return rows


def test_rank_examples():
    QQ = Field.rationals()
    assert _from_rows(QQ, [[Fraction(1), Fraction(1)]]).rank() == 1
    assert SliceMatrix(QQ, 3, 4).rank() == 0


def test_rank_against_dense_oracle_fp():
    F = Field.prime(101)
    rng = random.Random(7)
    for _ in range(5):
        rows = [[rng.randrange(0, 101) for _ in range(20)] for _ in range(20)]
        M = _from_rows(F, rows)
        assert M.rank() == dense_rank_oracle(rows, p=101)


def test_rank_against_dense_oracle_qq():
    QQ = Field.rationals()
    rng = random.Random(13)
    for _ in range(5):
        rows = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(12)]
                for _ in range(9)]
        M = _from_rows(QQ, rows)
        assert M.rank() == dense_rank_oracle(rows)


def test_nullspace_is_kernel():
    QQ = Field.rationals()
    rng = random.Random(3)
    rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(8)] for _ in range(5)]
    M = _from_rows(QQ, rows)
    null = M.nullspace()
    assert len(null) == M.ncols - M.rank()
    for vec in null:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_consistent_and_certificate():
    QQ = Field.rationals()
    A = _from_rows(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    x, cert = solve_linear(A, [Fraction(3), Fraction(6)])
    assert cert is None
    assert x[0] + 2 * x[1] == 3
    b = [Fraction(3), Fraction(7)]
    x2, cert2 = solve_linear(A, b)
    assert x2 is None and cert2 is not None
    # certificate is a genuine dual witness: λᵀA = 0, λᵀb != 0
    lam = cert2.row_combination
    rows = _dense(A)
    for j in range(A.ncols):
        assert sum(lam.get(i, 0) * rows[i][j] for i in range(A.nrows)) == 0
    assert sum(lam.get(i, 0) * b[i] for i in range(A.nrows)) != 0
    assert verify_certificate(A, b, cert2)


def test_tampered_certificate_fails_verification():
    QQ = Field.rationals()
    A = _from_rows(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    b = [Fraction(3), Fraction(7)]
    _, cert = solve_linear(A, b)
    assert cert.row_combination == {0: Fraction(-2), 1: Fraction(1)} and cert.first_row == 0
    bad = [
        InfeasibilityCertificate({0: Fraction(1), 1: Fraction(1)}, 0),   # λᵀA != 0
        InfeasibilityCertificate({1: Fraction(1)}, 1),                   # λᵀA != 0
        InfeasibilityCertificate({0: Fraction(-2), 1: Fraction(1)}, 1),  # wrong first row
        InfeasibilityCertificate({0: Fraction(-2), 2: Fraction(1)}, 0),  # row outside A
        InfeasibilityCertificate({}, 0),
    ]
    for c in bad:
        assert not verify_certificate(A, b, c)
    # a left null vector of A that misses b is no certificate: λᵀb = 0
    assert not verify_certificate(A, [Fraction(3), Fraction(6)], cert)


def test_rank_invariance_permutation_and_base_change():
    QQ = Field.rationals()
    rng = random.Random(29)
    rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(6)] for _ in range(6)]
    M = _from_rows(QQ, rows)
    perm = list(range(6))
    rng.shuffle(perm)
    permuted = _from_rows(QQ, [rows[i] for i in perm])
    assert M.rank() == permuted.rank()
    # invertible upper-triangular base change on the right
    U = [[Fraction(1 if i == j else rng.randrange(-2, 3) if j > i else 0) for j in range(6)]
         for i in range(6)]
    prod = [[sum(rows[i][k] * U[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    assert _from_rows(QQ, prod).rank() == M.rank()


def test_fp_rank_matches_rational_generic():
    # a matrix with entries small enough that no pivot degenerates mod 101
    QQ = Field.rationals()
    F = Field.prime(101)
    rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    rq = _from_rows(QQ, [[Fraction(v) for v in row] for row in rows]).rank()
    rp = _from_rows(F, rows).rank()
    assert rq == rp == 3


# -- property tests against the dense oracles ----------------------------------


@st.composite
def systems(draw):
    """(p, rows, ncols, b) over ℚ (p=None) or F_101.

    Shapes cover 0×n, n×0, zero rows, duplicate and scaled rows, and tall
    matrices that are mostly empty.
    """
    p = draw(st.sampled_from([None, 101]))
    value = (st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
             if p is None else st.integers(1, 100))
    zero = Fraction(0) if p is None else 0
    ncols = draw(st.integers(0, 7))
    nrows = draw(st.integers(8, 30) if draw(st.booleans()) else st.integers(0, 7))
    density = draw(st.sampled_from([2, 4, 8]))  # a cell is nonzero with chance 1/density
    rows = [[draw(value) if draw(st.integers(0, density - 1)) == 0 else zero for _ in range(ncols)]
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        pick = draw(st.integers(0, len(rows)))
        if pick == len(rows):
            rows.insert(draw(st.integers(0, len(rows))), [zero] * ncols)
        else:
            c = draw(value)
            row = [v * c if p is None else v * c % p for v in rows[pick]]
            rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):
        # consistent right-hand side A·x0
        x0 = [draw(value) for _ in range(ncols)]
        b = [sum((a * x for a, x in zip(row, x0)), zero) for row in rows]
        b = b if p is None else [v % p for v in b]
    else:
        b = [draw(value) if draw(st.booleans()) else zero for _ in rows]
    return p, rows, ncols, b


def _field(p):
    return Field.rationals() if p is None else Field.prime(p)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_and_nullspace_match_dense_oracle(system):
    p, rows, ncols, _ = system
    M = _from_rows(_field(p), rows, ncols)
    assert M.rank() == len(dense_rref_oracle(rows, ncols, p)[1])
    null = M.nullspace()
    assert null == dense_nullspace_oracle(rows, ncols, p)
    # the canonical basis does not depend on the order of the rows
    assert _from_rows(_field(p), rows[::-1], ncols).nullspace() == null


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_matches_dense_oracle(system):
    p, rows, ncols, b = system
    A = _from_rows(_field(p), rows, ncols)
    x, cert = solve_linear(A, b)
    x_o, cert_o = dense_solve_oracle(rows, ncols, b, p)
    assert x == x_o
    if cert_o is None:
        assert cert is None
    else:
        assert (cert.row_combination, cert.first_row) == cert_o
        assert verify_certificate(A, b, cert)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_compose_matches_dense_products(system):
    # A∘Aᵀ summed in plain ints or Fractions and reduced once, against the
    # textbook product
    p, rows, ncols, _ = system
    f = _field(p)
    A = _from_rows(f, rows, ncols)
    T = _from_rows(f, [[row[j] for row in rows] for j in range(ncols)], len(rows))
    P = A.compose(T)
    dense = [[sum((a * b for a, b in zip(r1, r2)), Fraction(0)) for r2 in rows] for r1 in rows]
    dense = dense if p is None else [[v % p for v in row] for row in dense]
    assert _dense(P) == dense
    assert all(v and (v < p if p else type(v) is int or v.denominator != 1) for v in P.entries.values())


def test_exterior_reduced_bar_ranks_match_dense_oracle():
    # every reduced-bar slice of Λ(a,b,c), |a| = |b| = |c| = 1, through degree 4
    alg = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    total = 0
    for d in range(5):
        for n in range(1, d + 1):
            M = reduced_slice_matrix(alg, n, d)
            assert M.rank() == dense_rank_oracle(_dense(M)), (n, d)
            total += M.rank()
    assert total > 0


def test_echelon_fails_when_a_pivot_step_keeps_its_lead(monkeypatch):
    # with neg returning its argument, row += c·piv doubles the lead instead of
    # clearing it; echelon must raise within a second rather than loop forever
    def too_slow(signum, frame):
        raise TimeoutError("echelon ran past 1 s")

    monkeypatch.setattr(Field, "neg", lambda self, a: a)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(DgresError, match="left column 0 in place"):
            echelon([{0: 1, 1: 2}, {0: 1, 1: 3}], Field.rationals())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
