from dgres.bar import certify_reduced_bar
from dgres.fixtures import koszul_K, module_B
from dgres.homology import dB_matrix, homology_dims, quasi_iso_check, reduced_bar_table
from dgres.modules import modtensor_basis
from dgres.semifree import pi_column
from dgres.tensor import prefixed_basis_labels, tensor_basis
from oracles import bar_slice_matrix, dN_matrix, full_dd_matrix, reduced_bar_rank_table


def test_homology_of_B_examples(E1, E2, E3):
    t3 = homology_dims(E3, 9)
    assert t3.homology(0) == 1
    assert all(t3.homology(m) == 0 for m in range(1, 9))
    t1 = homology_dims(E1, 8)
    assert [t1.homology(m) for m in range(8)] == [1, 1, 0, 0, 0, 0, 0, 0]
    t2 = homology_dims(E2, 8)
    assert [t2.homology(m) for m in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_quasi_iso_all_fixtures(fixture_algebras):
    for name, alg in fixture_algebras.items():
        rep = quasi_iso_check(alg, 8)
        assert rep.passed, (name, rep.rows)
        for (m, hbb, hb, rank) in rep.rows:
            assert hbb == hb == rank


def test_reduced_bar_acyclic(fixture_algebras):
    # the table from dimensions against the dense ranks of π and the d̄ slices
    for alg in fixture_algebras.values():
        assert certify_reduced_bar(alg, 6) == ([None] * 7, True)
        t = reduced_bar_table(alg, 7)
        assert all(t.homology(m) == 0 for m in range(7))
        assert t.rows() == reduced_bar_rank_table(alg, 7)


def test_slice_matrices_are_built_once_per_degree():
    # d^B is cached per algebra: `semifree --max-degree 8` needs it in
    # degrees 0..8 and builds (stores) it once there; 𝔻 and α are read
    # column by column in one pass, and no matrix or column of them is cached
    import argparse

    from dgres.cli import cmd_semifree
    from dgres.fixtures import e3
    from dgres.probfile import ProblemFile

    builds = []

    class Counted(dict):
        def __setitem__(self, degree, matrix):
            builds.append(degree)
            super().__setitem__(degree, matrix)

    alg = e3()
    caches = alg._memo_tables
    caches["dB_matrix"] = Counted()
    assert cmd_semifree(argparse.Namespace(max_degree=8), ProblemFile(alg.field, alg)).all_passed
    assert sorted(caches["dB_matrix"]) == list(range(9)) and len(builds) == 9
    assert set(caches) <= {"dB_matrix", "bb_basis", "delta_factors", "label_counts", "tensor_basis", "delta_word"}


def test_barN_complex_acyclic(E2, E3):
    # N <- N ⊗ B^{⊗2} <- ... is exact at each position of word length 1..4 in
    # degrees 0..5: the cycles out of a position (all of N, which maps to
    # zero) number the boundaries into it
    for alg, N in ((E2, koszul_K(E2)), (E3, module_B(E3))):
        for d in range(6):
            dims = [len(modtensor_basis(N, length, d)) for length in range(1, 5)]
            ranks = [dN_matrix(N, length, d).rank() for length in range(2, 6)]
            assert [dim - r for dim, r in zip(dims, [0] + ranks)] == ranks, (alg, d)


def test_slice_matrix_examples(E1, E3):
    M = dB_matrix(E3, 3)
    assert (M.nrows, M.ncols) == (1, 1) and M.get(0, 0) == E3.field.one
    Z = dB_matrix(E3, 1)
    assert Z.is_zero()
    # π on the C_0 labels of degree 1, e ⊗ 1 and 1 ⊗ e
    e = E1.mono({"e": 1})
    assert [pi_column(E1, lb) for lb in prefixed_basis_labels(E1, 0, 1)] == [{e: 1}, {e: 1}]


def test_split_exact_dimension_count(fixture_algebras):
    # h-splitting: dim B^{⊗(n+2)} = dim ker d_{n-1} + dim (target hit by d_{n-1})
    for alg in fixture_algebras.values():
        for n in (0, 1, 2):
            for d in range(0, 6):
                M = bar_slice_matrix(alg, n, d)
                dim_src = len(tensor_basis(alg, n + 2, d))
                assert dim_src == (dim_src - M.rank()) + M.rank()
                # exactness: kernel here equals image from one level up
                up = bar_slice_matrix(alg, n + 1, d)
                assert dim_src - M.rank() == up.rank()


def test_dd_matrix_squares_to_zero(fixture_algebras):
    # on every label, from the closed form: the product lemma is not used
    for alg in fixture_algebras.values():
        for t in range(2, 7):
            A = full_dd_matrix(alg, t)
            B = full_dd_matrix(alg, t - 1)
            assert B.compose(A).is_zero()
