"""Randomized towers.  Koszul type: A = k[x_1..x_r] with zero differential
and d e_i a random element of A of degree |e_i| - 1, so d² = 0 by
construction.  Exterior: Λ on 1-3 odd generators with d = 0.  Polynomial:
B = A[x_1..x_s] on 1-2 even generators over A = k or k[y], with d = 0.
Leibniz type, for the monomial kernels only: A on odd and even generators
with d = 0, and ext generators of both parities with d into A, so that odd
base generators cross in products and d(u^k) = k·u^(k-1)·du reaches k ≡ 0
(mod p)."""

import argparse
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dgres.algebra import DGAlgebra, validate_dg
from dgres.bar import certify_reduced_bar, check_reduced_exactness
from dgres.cli import cmd_semifree
import dgres.homology as homology
from dgres.homology import certify_contraction, prefix_image, quasi_iso_check, reduced_bar_table
from dgres.modules import DN, SemifreeModule, beta_N, check_rho, naive_lift_solve, validate_module
from dgres.probfile import ProblemFile, parse_problem
from dgres.report import Report
from dgres.sampling import random_homogeneous_element, random_homogeneous_modtensor
from dgres.scalars import Field
from dgres.semifree import DD, BBElement, append_tail, bb_basis_element, bb_total_basis, dbar_column, dd_column, homotopy
from dgres.tensor import prefixed_basis_dim, prefixed_basis_labels
from oracles import (
    basis_oracle,
    bb_coords,
    bb_rank_table,
    chain_walk_beta_N,
    dn_by_word_length,
    full_column_checks,
    merge_sign_oracle,
    modtensor_repr_oracle,
    naive_lift_solve_oracle,
    nt_element,
    recursive_diff_mono,
    reduced_bar_rank_table,
    reduced_full_checks,
    summed_differential,
    validate_module_oracle,
)
from test_bar import assert_nJ_cycles_span_the_kernel, assert_reduced_columns_are_flat_merges
from test_modules import assert_dN_cycles_span_the_kernel, report_lines

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


@st.composite
def polynomial_towers(draw, field):
    ext = draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=2))
    base = draw(st.lists(st.sampled_from((2, 4)), max_size=1))
    return DGAlgebra(field, base_gens=[(f"y{i}", d) for i, d in enumerate(base)],
                     ext_gens=[(f"x{i}", d) for i, d in enumerate(ext)])


TOWERS = {"koszul": koszul_towers, "exterior": exterior_towers, "polynomial": polynomial_towers}


@st.composite
def leibniz_towers(draw, field):
    base = [(f"a{i}", d) for i, d in enumerate(draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=3)))]
    ext = [(f"u{i}", d) for i, d in enumerate(draw(st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=2)))]
    A = DGAlgebra(field, base_gens=base)
    diffs = {}
    for name, degree in ext:
        monos = A.basis("B", degree - 1)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        diffs[name] = [(c, {g.name: k for g, k in zip(A.gens, m.exps) if k})
                       for c, m in zip(coeffs, monos) if c]
    return DGAlgebra(field, base_gens=base, ext_gens=ext, diff_terms=diffs)


MONOMIAL_TOWERS = dict(TOWERS, leibniz=leibniz_towers)
MONOMIAL_FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(101)]


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
    rep = Report("semifree", "")
    cmd_semifree(rep, argparse.Namespace(max_degree=6), problem)
    assert rep.passed, [(c.name, c.details) for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert {"DD-squared-zero", "anticommutation", "alpha-chain-map", "quasi-isomorphism"} <= names


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reduced_closed_form_matches_flat_oracle_on_random_towers(field, data):
    alg = data.draw(koszul_towers(field))
    for d in range(8):
        for n in range(1, d + 1):
            assert_reduced_columns_are_flat_merges(alg, n, d)
    assert certify_reduced_bar(alg, 7) is not None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_homotopy_identities_and_dimension_tables_on_random_towers(kind, field, data):
    # both contracting homotopy identities hold, and the tables they license
    # agree with dense ranks on a small window
    alg = data.draw(TOWERS[kind](field))
    assert check_reduced_exactness(alg, 4).passed
    qi = quasi_iso_check(alg, 5)
    assert qi.passed, qi.details
    assert qi.table.rows() == bb_rank_table(alg, 5)
    assert reduced_bar_table(alg, 5).rows() == reduced_bar_rank_table(alg, 5)


def prefix_one_checks(alg, D):
    """The product checks of `quasi_iso_check`, on the prefix-1 columns, in the form of `full_column_checks`."""
    square, anti, chain, defects = certify_contraction(alg, tuple(D - n for n in range(D + 1)))
    return square, anti, chain, defects[0][0] if defects else None


def perturbed_dd(alg, D, pick, scale):
    """`dd_column` with one entry of one prefix-1 column scaled.

    Every column with prefix b != 1 follows from its prefix-1 column by the
    prefix lemma (`prefix_image`), as in a certified 𝔻, so the product
    lemma of `homology.certify_contraction` applies to it.
    """
    one = alg.one_mono
    targets = [(lb, key) for t in range(D + 1) for lb in bb_total_basis(alg, t) if lb[1][0] == one
               for key in dd_column(alg, lb)]
    target, key = targets[pick % len(targets)]

    def dd(alg, label):
        n, (b, m, ws) = label
        if b != one:
            return prefix_image(alg, label, dd(alg, (n, (one, m, ws))), {})[0]
        col = dd_column(alg, label)
        return {**col, key: alg.field.mul(col[key], scale)} if label == target else col
    return dd


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_prefix_one_product_checks_match_the_full_columns(kind, field, data):
    # the certificate reads the products on the prefix-1 columns only; on the
    # true 𝔻, and on a 𝔻 with one entry
    # scaled that keeps the prefix structure of a certified 𝔻, they decide
    # what the checks on every column decide, and name the same first label
    alg = data.draw(TOWERS[kind](field))
    D = 6  # every tower has a nonzero prefix-1 column by total degree 6
    assert prefix_one_checks(alg, D) == full_column_checks(alg, D) == (True, True, True, None)
    scale = alg.field.of_int(data.draw(st.sampled_from((-1, 2, 3))))
    dd = perturbed_dd(alg, D, data.draw(st.integers(0, 10**6)), scale)

    def flat_dd(v):  # the flat 𝔻v that the column check compares with, read off dd
        (label,) = bb_coords(v)
        out = BBElement(v.alg)
        for row, c in dd(v.alg, label).items():
            out = out + bb_basis_element(v.alg, row).scale(c)
        return out

    # the column checks, made to accept dd: the flat 𝔻v and the tail lemma read it too
    with mock.patch.object(homology, "dd_column", dd), mock.patch.object(homology, "DD", flat_dd), \
            mock.patch.object(homology, "tail_image", lambda alg, label, *cols: dd(alg, label)):
        assert prefix_one_checks(alg, D) == full_column_checks(alg, D, dd)


def homotopy_mutations(alg, D, pick):
    """Wrong heads of `semifree.homotopy` on alg, each from one drawn choice.

    h is written on the heads (b, m, ()) and appends the label's δ-factors,
    and it copies b, so it is left B-linear.  A mutation that can be
    written changes the heads of one m alike for every prefix b, and is
    appended to every tail alike.  "scaled" doubles h(b, m0, ws), "dropped"
    makes it zero and "outside" sends it to (b, m0, (m0,) + ws), a label of
    too high a degree; "boundary" adds d̄(b·y) + ws to h(b, m1, ws) for a
    prefix-1 label y of C_2 and an m1 of its degree.
    """
    f, one = alg.field, alg.one_mono
    ms = [m for d in range(1, D + 1) for m in alg.basis("W", d)]
    m0 = ms[pick % len(ms)]
    c2 = [lb for d in range(2, D + 1) for lb in prefixed_basis_labels(alg, 2, d) if lb[0] == one and dbar_column(alg, lb)]
    y = c2[pick % len(c2)] if c2 else None
    degree = None if y is None else y[1].degree + sum(w.degree for w in y[2])
    m1 = next((m for m in ms if m.degree == degree), None)

    def at(m, change):
        def mutated(alg, label):
            return change(label) if label[1] == m else homotopy(alg, label)
        return mutated

    def boundary(label):
        out = dict(homotopy(alg, label))
        for key, c in append_tail(dbar_column(alg, (label[0],) + y[1:]), label[2]).items():
            out[key] = f.add(out.get(key, f.zero), c)
        return {k: c for k, c in out.items() if c != f.zero}

    return {
        "scaled": at(m0, lambda label: {k: f.mul(c, f.of_int(2)) for k, c in homotopy(alg, label).items()}),
        "dropped": at(m0, lambda label: {}),
        "outside": at(m0, lambda label: {(label[0], m0, (m0,) + label[2]): f.one}),
        "boundary": at(m1, boundary),
    }


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_streamed_reduced_checks_match_every_slice(kind, field, data):
    # d̄² = 0 from the products at n = 2 and the first bad label of each
    # degree from B, C_0, C_1 and the tail lemma agree with the checks on
    # every slice (`reduced_full_checks`, which evaluates h and the helper
    # appending its tails on every n), for the true homotopy and for wrong heads
    alg = data.draw(TOWERS[kind](field))
    D = 5
    defects, square = certify_reduced_bar(alg, D)
    assert (square, defects) == reduced_full_checks(alg, D) == (True, [None] * (D + 1))
    mutations = homotopy_mutations(alg, D, data.draw(st.integers(0, 10**6)))
    name = data.draw(st.sampled_from(sorted(mutations)))
    with mock.patch.object(homology, "homotopy", mutations[name]):
        defects, square = certify_reduced_bar(alg, D)
    assert (square, defects) == reduced_full_checks(alg, D, homotopy=mutations[name]), name
    assert name == "boundary" or any(defects), name  # "boundary" is h itself when y or m1 is missing


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_label_count_matches_the_labels_on_random_towers(kind, data):
    alg = data.draw(TOWERS[kind](Field.rationals()))
    for n in range(5):
        for d in range(9):
            assert prefixed_basis_dim(alg, n, d) == len(prefixed_basis_labels(alg, n, d)), (n, d)


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=repr)
@pytest.mark.parametrize("kind", sorted(MONOMIAL_TOWERS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_monomial_kernels_match_their_oracles_on_random_towers(kind, field, data):
    # the basis walk against the exponent box, the one-pass Leibniz d against
    # the recursion it replaced, the bit-mask product sign against bubble
    # sorting, and d on elements against the sum of scaled monomial images
    alg = data.draw(MONOMIAL_TOWERS[kind](field))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assert validate_dg(alg, 8).passed
    monos = []
    for d in range(9):
        for which in ("A", "B", "Bbar", "W"):
            got = alg.basis(which, d)
            assert [m.exps for m in got] == basis_oracle(alg, which, d), (which, d)
            assert all(m.degree == d for m in got)
        monos += alg.basis("B", d)
        for m in alg.basis("B", d):
            assert alg.diff_mono(m) == recursive_diff_mono(alg, m), m
        for _ in range(3):
            u = random_homogeneous_element(alg, rng, d, max_terms=4)
            assert alg.d(u) == summed_differential(alg, u)
    for _ in range(300):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        want = merge_sign_oracle(alg, m1, m2)
        got = alg.mono_mul(m1, m2)
        assert (got is None) if want is None else (got[0], got[1].exps) == want, (m1, m2)


def render_expression(alg, el) -> str:
    """An element of B as `.dgres` expression text: c*g^k*... terms joined by ' + '."""
    def term(m, c):
        powers = [g.name if k == 1 else f"{g.name}^{k}" for g, k in zip(alg.gens, m.exps) if k]
        return "*".join([str(c)] + powers)
    return " + ".join(term(m, c) for m, c in el.sorted_terms())


def render_problem(alg, module=None) -> str:
    """The `.dgres` text of a tower, and of one module [module M] over it given as (degrees, entries)."""
    field = "field rationals" if alg.field.p is None else f"field prime {alg.field.p}"
    lines = [field, "", "[algebra]"]
    lines += [f"{'base' if i < alg.n_base else 'ext'} {g.name} {g.degree}" for i, g in enumerate(alg.gens)]
    lines += [f"d {g.name} = {render_expression(alg, alg.diff_images[i])}"
              for i, g in enumerate(alg.gens) if not alg.diff_images[i].is_zero()]
    if module is not None:
        degrees, entries = module
        lines += ["", "[module M]"] + [f"generator g{i} {d}" for i, d in enumerate(degrees)]
        lines += [f"entry g{j} g{i} = {render_expression(alg, b)}" for (i, j), b in entries.items()]
    return "\n".join(lines) + "\n"


def draw_element(draw, alg, which, degree, coeff=st.integers(-2, 2)):
    """A random element of the degree slice of B or A ("B", "A"), one drawn coefficient per monomial."""
    monos = alg.basis(which, degree)
    coeffs = draw(st.lists(coeff, min_size=len(monos), max_size=len(monos)))
    return alg.element([(c, {g.name: k for g, k in zip(alg.gens, m.exps) if k}) for c, m in zip(coeffs, monos) if c])


@st.composite
def triangular_modules(draw, alg, max_steps=2):
    """2 to max_steps + 1 generators, each 1-4 degrees above the last, and random entries b_ij
    (i < j) of degree |g_j| − |g_i| − 1; the module need not satisfy ∂² = 0, since `lift` must
    then fail its checks, not the input."""
    base, steps = draw(st.integers(0, 2)), draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_steps))
    degrees = [base + sum(steps[:k]) for k in range(len(steps) + 1)]
    entries = {}
    for j in range(len(degrees)):
        for i in range(j):
            b = draw_element(draw, alg, "B", degrees[j] - degrees[i] - 1)
            if not b.is_zero():
                entries[(i, j)] = b
    return degrees, entries


NONZERO = st.sampled_from((-2, -1, 1, 2))


@st.composite
def closed_modules(draw, alg):
    """Modules with ∂² = 0 by construction, as (degrees, entries) like `triangular_modules`.

    The coefficient of g_i in ∂²g_j is Σ_k b_ik·b_kj + (−1)^|g_i|·d(b_ij).
    - Triangle, on any tower: b_01 = c, a d-cycle of degree p, b_12 = d(y)
      for y of degree q, and b_02 = −(−1)^(p + |g_0|)·c·y.  At (0, 1) and
      (1, 2) the coefficient is d(c) = 0 and d²(y) = 0.  At (0, 2) it is
      c·d(y) + (−1)^|g_0|·d(b_02), and d(c·y) = (−1)^p·c·d(y) since
      d(c) = 0, so the two cancel.  c is a + d(x) for a in A, on which every
      tower here has d = 0, or any element of B when d = 0 on all of B.
    - Chain, on a tower with d = 0 and an odd generator u: g_0 → ... → g_k
      with b_{i,i+1} = u·y_i and no other entry; consecutive entries multiply
      to ±u²·y_i·y_{i+1} = 0.
    Coefficients are nonzero and p runs over the degrees with a monomial of
    B, so that most draws have an entry.
    """
    flat = alg.d_is_zero
    odd = [g for g in alg.gens if g.degree % 2]
    g0 = draw(st.integers(0, 2))
    if flat and odd and draw(st.booleans()):
        u = draw(st.sampled_from(odd))
        degrees, entries = [g0], {}
        for i, q in enumerate(draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))):
            degrees.append(degrees[-1] + 1 + u.degree + q)
            entries[(i, i + 1)] = alg.gen(u.name) * draw_element(draw, alg, "B", q, NONZERO)
    else:
        p = draw(st.sampled_from([p for p in range(4) if alg.basis("B", p)]))
        q = draw(st.integers(1, 3))
        c = draw_element(draw, alg, "B", p, NONZERO) if flat else \
            draw_element(draw, alg, "A", p, NONZERO) + alg.d(draw_element(draw, alg, "B", p + 1, NONZERO))
        y = draw_element(draw, alg, "B", q, NONZERO)
        degrees = [g0, g0 + 1 + p, g0 + 1 + p + q]
        entries = {(0, 1): c, (1, 2): alg.d(y), (0, 2): (c * y).scale_int(-(-1) ** (p + g0))}
    return degrees, {k: b for k, b in entries.items() if not b.is_zero()}


def as_module(alg, drawn):
    """The module of drawn = (degrees, entries) over alg, generators g0, g1, ..."""
    degrees, entries = drawn
    return SemifreeModule(alg, [(f"g{i}", d) for i, d in enumerate(degrees)],
                          {(f"g{i}", f"g{j}"): b for (i, j), b in entries.items()})


def draw_closed_module(data, kind):
    """A valid module drawn by `closed_modules` over a random tower of the kind."""
    alg = data.draw(TOWERS[kind](data.draw(st.sampled_from(FIELDS))))
    N = as_module(alg, data.draw(closed_modules(alg)))
    assert validate_module(N).passed, N
    return N


# E1 = Λ(e) and E2 = ℚ[x] with d = 0, E3 = ℚ[y]⟨e⟩ with d e = y, odd_base, with an odd base
# generator in its differentials, and Λ(a,b,c) with d = 0
NAMED_TOWERS = {name: parse_problem((Path(__file__).parent / "golden" / f"{name}.dgres").read_text()).algebra
                for name in ("e1", "e2", "e3", "odd_base", "lam3")}


@pytest.mark.parametrize("name", ["e1", "e2", "odd_base", "lam3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_validate_module_matches_the_triple_loop_on_drawn_modules(name, data):
    # 2-5 generators with random entries, most of which fail ∂² through a path
    # i < k < j or, over odd_base, through d(b_ij): the three lines, and the
    # details up to the 4-pair cut, equal the triple loop's
    N = as_module(NAMED_TOWERS[name], data.draw(triangular_modules(NAMED_TOWERS[name], max_steps=4)))
    assert report_lines(validate_module(N)) == report_lines(validate_module_oracle(N)), N


@pytest.mark.parametrize("name", ["e3", "odd_base", "lam3", "koszul"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lift_system_matches_the_element_columns_on_closed_modules(name, data):
    # the columns built from the tensor kernels on one word, routed by index,
    # against those read off whole elements of N ⊗_A B: the same rows, columns
    # and entries in the same order, right-hand side, verdict, certificate and
    # ρ; over e3, odd_base and the Koszul towers d ≠ 0 reaches the ∂ part
    alg = NAMED_TOWERS.get(name) or data.draw(koszul_towers(data.draw(st.sampled_from(FIELDS))))
    N = as_module(alg, data.draw(closed_modules(alg)))
    got, want = naive_lift_solve(N), naive_lift_solve_oracle(N)
    for res in (got, want):
        res.system = (res.system.row_labels, res.system.col_labels, list(res.system.entries.items()))
        res.certificate = res.certificate and (res.certificate.row_combination, res.certificate.first_row)
    assert vars(got) == vars(want), N
    if got.liftable:
        assert check_rho(N, got.rho)[1] == [(g, modtensor_repr_oracle(got.rho[g])) for g in N.names]


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_beta_recursion_matches_the_chain_walk_on_closed_modules(kind, data):
    # β_N built from the β_N(e_μ) of the entries equals the sum over chains
    # with its stored signs, on every generator; the draws reach entries out
    # of odd-degree generators, where the two signs (-1)^{|e_h|+m} and
    # (-1)^{|e_μ|} part
    N = draw_closed_module(data, kind)
    for name in N.names:
        assert beta_N(N, name) == chain_walk_beta_N(N, name), (name, N)


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_DN_matches_the_word_length_reference_on_closed_modules(kind, data):
    # DN, 𝔻 on each y_j, equals the differential written by word length on
    # random elements of word lengths 0-3 of N ⊗_A T; the draws reach odd
    # generators, where (-1)^{|e_j|} and the twist of b_ij by n part
    N = draw_closed_module(data, kind)
    rng = data.draw(st.randoms(use_true_random=False))
    comps = {n: random_homogeneous_modtensor(N, rng, n + 2, data.draw(st.integers(0, 8)))
             for n in data.draw(st.sets(st.integers(0, 3), min_size=1))}
    assert DN(nt_element(N, comps)) == nt_element(N, dn_by_word_length(N, comps)), (N, comps)


@pytest.mark.parametrize("kind", sorted(TOWERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_contracted_cycles_span_the_dense_kernels_on_random_towers(kind, data):
    # ^nJ for n = 1, 2, 3 read from "prepend 1", and the 𝐝^N cycles of word
    # lengths 2 and 3 read from "append 1", have the dense oracle's kernel dimension
    N = draw_closed_module(data, kind)
    assert_nJ_cycles_span_the_kernel(N.alg, 3)
    assert_dN_cycles_span_the_kernel(N, 4)


VALID_INPUT_RUNS = [["validate", "--max-degree", "4"], ["bar", "--reduced", "--max-degree", "4"],
                    ["bar", "--max-n", "2", "--max-degree", "3"], ["semifree", "--max-degree", "4"],
                    ["homology", "--max-degree", "4"], ["derivations", "--max-degree", "3"],
                    ["lift", "--module", "M", "--max-degree", "3", "--samples", "5"]]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_valid_random_inputs_round_trip_and_never_exit_2(tmp_path_factory, data):
    # a tower rendered to text parses back to the same generators and
    # differentials, and every command on it ends in a report: exit 0 or 1
    from dgres.cli import main
    from dgres.probfile import parse_problem

    kind = data.draw(st.sampled_from(sorted(TOWERS)))
    alg = data.draw(TOWERS[kind](data.draw(st.sampled_from(FIELDS))))
    module = data.draw(triangular_modules(alg))
    text = render_problem(alg, module)
    back = parse_problem(text)
    assert (back.algebra.gens, back.algebra.n_base, back.algebra.field.p) == (alg.gens, alg.n_base, alg.field.p)

    def terms(b):
        return [(m.exps, c) for m, c in b.sorted_terms()]
    assert [terms(back.algebra.diff_images[i]) for i in range(len(alg.gens))] == \
        [terms(alg.diff_images[i]) for i in range(len(alg.gens))], text
    assert back.modules["M"].degrees == tuple(module[0])
    assert {k: terms(b) for k, b in back.modules["M"].diff.items()} == {k: terms(b) for k, b in module[1].items()}, text
    path = tmp_path_factory.mktemp("tower") / "tower.dgres"
    path.write_text(text)
    with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
        codes = [main([run[0], str(path)] + run[1:]) for run in VALID_INPUT_RUNS]
    assert all(code in (0, 1) for code in codes), (codes, text)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_lift_runs_past_validation_on_closed_modules(tmp_path_factory, data):
    # modules with ∂² = 0 by construction pass `validate_module`, and the
    # `lift` run of VALID_INPUT_RUNS on them reaches the β table and the
    # naive lift instead of stopping at the module checks
    import io
    from contextlib import redirect_stdout

    from dgres.cli import main
    from dgres.probfile import parse_problem

    kind = data.draw(st.sampled_from(sorted(TOWERS)))
    alg = data.draw(TOWERS[kind](data.draw(st.sampled_from(FIELDS))))
    text = render_problem(alg, data.draw(closed_modules(alg)))
    rep = validate_module(parse_problem(text).modules["M"])
    assert rep.passed, ([c.details for c in rep.failures()], text)
    path = tmp_path_factory.mktemp("closed") / "closed.dgres"
    path.write_text(text)
    run = VALID_INPUT_RUNS[-1]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([run[0], str(path)] + run[1:])
    assert code in (0, 1) and "table lift:" in out.getvalue(), (code, text)
