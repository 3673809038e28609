"""Randomized towers.  Koszul type: A = k[x_1..x_r] with zero differential
and d e_i a random element of A of degree |e_i| - 1, so d² = 0 by
construction.  Exterior: Λ on 1-3 odd generators with d = 0."""

import argparse

import pytest
from hypothesis import given, settings, strategies as st

from dgres.algebra import DGAlgebra, validate_dg
from dgres.bar import check_reduced_exactness, checked_reduced_columns
from dgres.cli import cmd_semifree
from dgres.homology import (
    alpha_chain_map,
    bb_dd_matrix,
    bb_homotopy_defect,
    dd_square,
    prefix_image,
    quasi_iso_check,
    reduced_bar_table,
)
from dgres.linalg import SliceMatrix
from dgres.probfile import ProblemFile
from dgres.scalars import Field
from dgres.semifree import DD, bb_basis_element, bb_coords, bb_total_basis, dd_column
from dgres.tensor import _caches
from oracles import bb_rank_table, full_column_checks, reduced_bar_rank_table
from test_bar import assert_reduced_columns_are_flat_merges

FIELDS = [Field.rationals(), Field.prime(101)]


@st.composite
def koszul_towers(draw, field):
    base = [(f"x{i}", d) for i, d in enumerate(draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=3)))]
    ext = [(f"e{i}", d) for i, d in enumerate(draw(st.lists(st.sampled_from((1, 3, 5)), min_size=1, max_size=3)))]
    A = DGAlgebra(field, base_gens=base)
    diffs = {}
    for name, degree in ext:
        monos = A.basis("B", degree - 1)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        diffs[name] = [(c, {g.name: k for g, k in zip(A.gens, m.exps) if k})
                       for c, m in zip(coeffs, monos) if c]
    return DGAlgebra(field, base_gens=base, ext_gens=ext, diff_terms=diffs)


@st.composite
def exterior_towers(draw, field):
    degrees = draw(st.lists(st.sampled_from((1, 3)), min_size=1, max_size=3))
    return DGAlgebra(field, ext_gens=[(f"u{i}", d) for i, d in enumerate(degrees)])


TOWERS = {"koszul": koszul_towers, "exterior": exterior_towers}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_closed_form_matches_flat_oracle_on_random_towers(field, data):
    alg = data.draw(koszul_towers(field))
    assert validate_dg(alg, 7).passed
    for t in range(8):
        for label in bb_total_basis(alg, t):
            assert dd_column(alg, label) == bb_coords(DD(bb_basis_element(alg, label))), label


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_semifree_passes_on_random_towers(field, data):
    alg = data.draw(koszul_towers(field))
    problem = ProblemFile(alg.field, alg)
    rep = cmd_semifree(argparse.Namespace(max_degree=6), problem)
    assert rep.all_passed, [c for c in rep.checks if c["status"] != "PASS"]
    names = {c["name"] for c in rep.checks}
    assert {"DD-squared-zero", "anticommutation", "alpha-chain-map", "quasi-isomorphism"} <= names


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reduced_closed_form_matches_flat_oracle_on_random_towers(field, data):
    alg = data.draw(koszul_towers(field))
    for d in range(8):
        for n in range(1, d + 1):
            assert_reduced_columns_are_flat_merges(alg, n, d)
    assert checked_reduced_columns(alg, 7)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_homotopy_identities_and_dimension_tables_on_random_towers(kind, field, data):
    # both contracting homotopy identities hold, and the tables they license
    # agree with dense ranks on a small window
    alg = data.draw(TOWERS[kind](field))
    assert checked_reduced_columns(alg, 4) and check_reduced_exactness(alg, 4).passed
    qi = quasi_iso_check(alg, 5)
    assert qi.passed, qi.details
    assert qi.table.rows() == bb_rank_table(alg, 5)
    assert reduced_bar_table(alg, 5).rows() == reduced_bar_rank_table(alg, 5)


def prefix_one_checks(alg, D):
    """The product checks of `quasi_iso_check`, on the prefix-1 columns, in the form of `full_column_checks`."""
    squares = [dd_square(alg, t) for t in range(2, D + 1)]
    return (all(s for s, _ in squares), all(a for _, a in squares),
            all(alpha_chain_map(alg, t) for t in range(1, D + 1)), bb_homotopy_defect(alg, D - 1))


def install_perturbed_dd(alg, D, pick, scale):
    """Fresh caches holding a 𝔻 with one entry of one prefix-1 column scaled.

    Every column with prefix b != 1 follows from its prefix-1 column by the
    prefix lemma (`prefix_image`), as in a certified 𝔻, so the product
    lemma of `quasi_iso_check` applies to it.
    """
    one = alg.one_mono
    real = [bb_dd_matrix(alg, t) for t in range(D + 1)]
    targets = [(lb, key) for M in real for lb, col in zip(M.col_labels, M.columns())
               if lb[1][0] == one for key in col]
    target, key = targets[pick % len(targets)]
    alg._tensor_caches = None
    fake = {}
    for t, M in enumerate(real):
        columns = []
        for label, col in zip(M.col_labels, M.columns()):
            n, (b, m, ws) = label
            if b != one:
                col = prefix_image(alg, label, fake[(n, (one, m, ws))], {})[0]
            else:
                if label == target:
                    col = {**col, key: alg.field.mul(col[key], scale)}
                fake[label] = col
            columns.append(col)
        _caches(alg)["dd_matrix"][t] = SliceMatrix.from_columns(alg.field, M.row_labels, M.col_labels, columns)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_prefix_one_product_checks_match_the_full_columns(kind, field, data):
    # dd_square, alpha_chain_map and bb_homotopy_defect read the right factor
    # on its prefix-1 columns only; on the true 𝔻, and on a 𝔻 with one entry
    # scaled that keeps the prefix structure of a certified 𝔻, they decide
    # what the checks on every column decide, and name the same first label
    alg = data.draw(TOWERS[kind](field))
    D = 6  # every tower has a nonzero prefix-1 column by total degree 6
    assert prefix_one_checks(alg, D) == full_column_checks(alg, D) == (True, True, True, None)
    install_perturbed_dd(alg, D, data.draw(st.integers(0, 10**6)),
                         alg.field.of_int(data.draw(st.sampled_from((-1, 2, 3)))))
    assert prefix_one_checks(alg, D) == full_column_checks(alg, D)
