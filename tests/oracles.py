"""Independent brute-force oracles used to derive expected test values.

Everything here deliberately avoids the package's own sign/elimination
machinery: signs come from literal bubble-sort transposition counting, ranks
from textbook dense elimination, and basis counts from exhaustive
enumeration over exponent boxes.  The module references keep the
straightforward forms of three jobs of `modules`: ∂² of N multiplied out
over every triple, the naive-lift system built from whole elements, and
each element's text spelt term by term.  Two later sections hold maps of the
paper that no command runs, κ_n and its inverse among them, and the slice
matrices of the bar differentials, whose ranks and nullspaces the tests
read; they are built from the package's kernel and serve the tests as
constructions and references.  The last holds the one-shot report
renderers, which the streamed renderers of `dgres.report` must match byte
for byte.
"""

from fractions import Fraction
from typing import NamedTuple


def sorted_letters(alg, mono):
    """A monomial as the sorted word of its generator indices (with multiplicity)."""
    out = []
    for i, e in enumerate(mono.exps):
        out.extend([i] * e)
    return out


def merge_sign_oracle(alg, m1, m2):
    """(sign, exps) of a monomial product by bubble-sorting the concatenation.

    Swapping two adjacent odd letters contributes -1; two equal odd letters
    make the product zero.  Independent of DGAlgebra.mono_mul.
    """
    word = sorted_letters(alg, m1) + sorted_letters(alg, m2)
    parity = alg.parvec
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a > b:
                if parity[a] and parity[b]:
                    sign = -sign
                word[k], word[k + 1] = b, a
                changed = True
    for k in range(len(word) - 1):
        if word[k] == word[k + 1] and parity[word[k]]:
            return None
    exps = [0] * len(alg.gens)
    for i in word:
        exps[i] += 1
    return sign, tuple(exps)


def basis_oracle(alg, which, degree):
    """Exponent vectors of the A, B, Bbar or W basis in one degree, in canonical order.

    Every vector of the box 0 <= e_i <= degree (e_i <= 1 for odd generators)
    is tried; a selector zeroes the generators outside it, and the survivors
    are sorted by exponent vector.  Independent of DGAlgebra.basis.
    """
    from itertools import product

    nb, n = alg.n_base, len(alg.gens)
    keep = {"A": range(nb), "B": range(n), "Bbar": range(n), "W": range(nb, n)}[which]
    box = [range((1 if alg.parvec[i] else degree) + 1) if i in keep else (0,) for i in range(n)]
    out = [exps for exps in product(*box)
           if sum(e * d for e, d in zip(exps, alg.degvec)) == degree and (which != "Bbar" or any(exps[nb:]))]
    return sorted(out)


def word_basis_oracle(alg, length, degree):
    """The words of the degree slice of B^{⊗_A length} as tuples of exponent vectors, in canonical order.

    Every tuple of `basis_oracle` vectors, a B-vector in slot 0 and
    W-vectors in the others, is tried; those whose degrees add up to
    `degree` are sorted by the literal (degree, exponent vector) of each
    slot in turn.  Independent of `tensor.TensorSlice`.
    """
    from itertools import product

    def deg(exps):
        return sum(e * d for e, d in zip(exps, alg.degvec))

    slots = [[exps for d in range(degree + 1) for exps in basis_oracle(alg, "W" if i else "B", d)]
             for i in range(length)]
    words = [w for w in product(*slots) if sum(map(deg, w)) == degree]
    return sorted(words, key=lambda w: [(deg(exps), exps) for exps in w])


def modtensor_basis_oracle(N, length, degree):
    """The keys (index, word) of the degree slice of N ⊗_A B^{⊗_A (length-1)}, index first.

    Generators in their order in N (not by degree), each with the
    `word_basis_oracle` words of the remaining degree.
    """
    return [(i, w) for i, d in enumerate(N.degrees) for w in word_basis_oracle(N.alg, length, degree - d)]


def recursive_diff_mono(alg, m):
    """d m by peeling off the first generator present: d(g^k·rest) = d(g^k)·rest ± g^k·d(rest).

    This is how DGAlgebra.diff_mono computed d before it made one pass over
    the generators: element products and sums, k taken in the field, and no
    memo.  Only `mono_mul` (through AlgElement products) is shared.
    """
    from dgres.algebra import Monomial

    n = len(alg.gens)
    for i, e in enumerate(m.exps):
        if e == 0:
            continue
        g_deg = alg.degvec[i]
        head = Monomial(tuple(e if j == i else 0 for j in range(n)), e * g_deg)
        rest = Monomial(tuple(0 if j == i else m.exps[j] for j in range(n)), m.degree - e * g_deg)
        lower = Monomial(tuple(e - 1 if j == i else 0 for j in range(n)), (e - 1) * g_deg)
        result = alg.from_monomial(lower, alg.field.of_int(e)) * alg.diff_images[i] * alg.from_monomial(rest)
        if any(rest.exps):
            sign_head = -1 if (e * g_deg) % 2 else 1
            result = result + alg.from_monomial(head).scale_int(sign_head) * recursive_diff_mono(alg, rest)
        return result
    return alg.zero()


def summed_differential(alg, u):
    """d u as the element sum of diff_mono(m).scale(c) over the terms c·m of u."""
    out = alg.zero()
    for m, c in u.terms.items():
        out = out + alg.diff_mono(m).scale(c)
    return out


def tensor_sign_oracle(degrees_u, degrees_v):
    """Sign of (u_1⊗...⊗u_m)(v_1⊗...⊗v_m) by moving each v_i left step by step."""
    sign = 1
    for i in range(len(degrees_v)):
        for j in range(i + 1, len(degrees_u)):
            if degrees_v[i] % 2 and degrees_u[j] % 2:
                sign = -sign
    return sign


def count_monomials_oracle(degrees, parities, target):
    """Number of exponent vectors with given degree, odd exponents <= 1."""
    count = 0

    def rec(i, remaining):
        nonlocal count
        if i == len(degrees):
            if remaining == 0:
                count += 1
            return
        max_e = 1 if parities[i] else (remaining // degrees[i] if degrees[i] else 0)
        for e in range(max_e + 1):
            if e * degrees[i] <= remaining:
                rec(i + 1, remaining - e * degrees[i])

    rec(0, target)
    return count


def _field_ops(p):
    """(normalize, inverse) for ℚ (p=None, values become Fractions) or F_p."""
    if p is None:
        return Fraction, lambda x: Fraction(1) / x
    return (lambda x: x % p), (lambda x: pow(x, -1, p))


def dense_rref_oracle(rows, ncols, p=None):
    """Textbook dense Gauss-Jordan elimination: (RREF rows, pivot columns).

    Pivots scan columns left to right and rows top to bottom.  Values are
    Fractions over ℚ (p=None) and ints in [0, p) over F_p.
    """
    norm, inv = _field_ops(p)
    m = [[norm(x) for x in row] for row in rows]
    nr = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = inv(m[r][c])
        m[r] = [norm(x * s) for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                fac = m[i][c]
                m[i] = [norm(a - fac * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def dense_rank_oracle(rows, p=None):
    """Rank by dense elimination, over ℚ (p=None) or F_p."""
    return len(dense_rref_oracle(rows, len(rows[0]) if rows else 0, p)[1])


def dense_nullspace_oracle(rows, ncols, p=None):
    """Kernel basis from the dense RREF, one vector per free column in column order."""
    rref, pivots = dense_rref_oracle(rows, ncols, p)
    norm, _ = _field_ops(p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [norm(0)] * ncols
        vec[j] = norm(1)
        for row, pc in zip(rref, pivots):
            vec[pc] = norm(-row[j])
        basis.append(vec)
    return basis


def dense_solve_oracle(rows, ncols, b, p=None):
    """Solve A x = b through the dense RREF of [A | b | I].

    Returns (x, None) with free variables zero, or (None, (combination,
    first_row)) read from the identity block of the RREF row whose lead is
    the b column.
    """
    nr = len(rows)
    norm, _ = _field_ops(p)
    aug = [list(rows[i]) + [b[i]] + [1 if k == i else 0 for k in range(nr)] for i in range(nr)]
    rref, pivots = dense_rref_oracle(aug, ncols + 1 + nr, p)
    for row, pc in zip(rref, pivots):
        if pc == ncols:
            comb = {k: row[ncols + 1 + k] for k in range(nr) if row[ncols + 1 + k] != 0}
            return None, (comb, min(comb))
    x = [norm(0)] * ncols
    for row, pc in zip(rref, pivots):
        if pc < ncols:
            x[pc] = row[ncols]
    return x, None


def fraction_random_scalar(field, rng):
    """`sampling.random_scalar` as it was before the ℚ kernel: a new list per call, a normalising Fraction."""
    if field.is_prime_field:
        return rng.randrange(1, field.p)
    num = rng.choice([n for n in range(-6, 7) if n])
    den = rng.randrange(1, 5)
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def enumerating_random_tensor(alg, rng, length, degree, max_terms=3):
    """The tensor sampler as it was before slices were unranked: sample the enumerated basis."""
    from dgres.algebra import add_term
    from dgres.tensor import TensorElement, tensor_basis

    basis = tensor_basis(alg, length, degree)
    out = TensorElement(alg, length)
    if not basis:
        return out
    for w in rng.sample(list(basis), min(len(basis), rng.randrange(1, max_terms + 1))):
        add_term(alg.field, out.terms, w, fraction_random_scalar(alg.field, rng))
    return out


def enumerating_random_modtensor(N, rng, length, degree, max_terms=3):
    """The module-tensor sampler as it was before slices were unranked."""
    from dgres.modules import ModTensorElement, modtensor_basis

    basis = modtensor_basis(N, length, degree)
    if not basis:
        return ModTensorElement(N, length)
    keys = rng.sample(list(basis), min(len(basis), rng.randrange(1, max_terms + 1)))
    return ModTensorElement(N, length, {key: fraction_random_scalar(N.alg.field, rng) for key in keys})


def dense_map(M):
    """A SliceMatrix as (number of columns, dense rows), for `complex_table_oracle`."""
    rows = [[0] * M.ncols for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    return M.ncols, rows


def complex_table_oracle(degrees, p=None):
    """Rows (degree, cycles, boundaries, homology) of a complex, with dense ranks.

    Degree m is a list of maps f_0..f_k, each (number of columns, dense
    rows), f_i going out of position i: the positions are the sources of
    f_0..f_{k-1}.  Over ℚ (p=None) or F_p.
    """
    out = []
    for m, maps in enumerate(degrees):
        ranks = [dense_rank_oracle(rows, p) for _, rows in maps]
        cycles = sum(ncols - r for (ncols, _), r in zip(maps[:-1], ranks))
        boundaries = sum(ranks[1:])
        out.append((m, cycles, boundaries, cycles - boundaries))
    return out


def reduced_bar_rank_table(alg, D):
    """The table of the augmented reduced bar B ← C_0 ← ... ← C_d ← 0 in degrees 0..D-1, by dense ranks.

    π comes from the monomial products of the C_0 labels, d̄_n from
    `reduced_slice_matrix`.
    """
    from dgres.tensor import prefixed_basis_labels

    degrees = []
    for d in range(D):
        B = alg.basis("B", d)
        c0 = prefixed_basis_labels(alg, 0, d)
        pi = [[0] * len(c0) for _ in B]
        for j, (b, m, _) in enumerate(c0):
            sm = alg.mono_mul(b, m)
            if sm is not None:
                pi[B.index(sm[1])][j] = sm[0]
        maps = [(len(B), []), (len(c0), pi)] + [dense_map(reduced_slice_matrix(alg, n, d))
                                                for n in range(1, d + 1)]
        degrees.append(maps + [(0, [])])
    return complex_table_oracle(degrees, alg.field.p)


def full_dd_matrix(alg, t, dd=None):
    """𝔻 from total degree t to t-1 on every label of `bb_total_basis`, column by column from
    `dd_column` (or the function dd): the reference for the prefix-1 matrices of `homology`."""
    from dgres.linalg import SliceMatrix
    from dgres.semifree import bb_total_basis, dd_column

    src = bb_total_basis(alg, t)
    return SliceMatrix.from_columns(alg.field, bb_total_basis(alg, t - 1), src,
                                    ((dd or dd_column)(alg, lb) for lb in src))


def full_alpha_matrix(alg, t):
    """α from the 𝔹 slice of total degree t to the B slice on every label, from `pi_column`."""
    from dgres.linalg import SliceMatrix
    from dgres.semifree import bb_total_basis, pi_column

    src = bb_total_basis(alg, t)
    return SliceMatrix.from_columns(alg.field, alg.basis("B", t), src,
                                    ({} if n else pi_column(alg, lb) for n, lb in src))


def bb_rank_table(alg, D):
    """The table of (𝔹, 𝔻) in total degrees 0..D-1, by dense ranks of `full_dd_matrix`."""
    return complex_table_oracle([[dense_map(full_dd_matrix(alg, m)), dense_map(full_dd_matrix(alg, m + 1))]
                                 for m in range(D)], alg.field.p)


def full_column_checks(alg, D, dd_col=None):
    """The product checks of `quasi_iso_check` on every column of `full_dd_matrix` and `full_alpha_matrix`.

    Returns (𝔻² = 0 over total degrees 2..D, 𝔇∂ + ∂𝔇 = 0 there,
    α∘𝔻 = d^B∘α over 1..D, the first label at which 𝔻h + h𝔻 + σα = id or
    α∘σ = id fails in degrees 0..D-1, or None): the reference for the
    checks on the prefix-1 columns.  The 𝔻 columns come from `dd_column`,
    or from the function dd_col.  Images are summed label by label from the
    matrix columns, with no matrix product.
    """
    from dgres.homology import dB_matrix
    from dgres.semifree import homotopy

    f = alg.field

    def cols(M):
        return dict(zip(M.col_labels, M.columns()))

    def apply(columns, vec):
        return _sum(f, [{row: f.mul(c, v) for row, v in columns[lb].items()} for lb, c in vec.items()])

    dd = {t: cols(full_dd_matrix(alg, t, dd_col)) for t in range(D + 1)}
    al = {t: cols(full_alpha_matrix(alg, t)) for t in range(D + 1)}
    dB = {t: cols(dB_matrix(alg, t)) for t in range(D + 1)}
    square = anti = True
    for t in range(2, D + 1):
        for (n, _), col in dd[t].items():
            img = apply(dd[t - 1], col)
            square = square and not img
            anti = anti and all(k != n - 1 for k, _ in img)
    chain = all(apply(al[t - 1], col) == apply(dB[t], al[t][lb])
                for t in range(1, D + 1) for lb, col in dd[t].items())

    def h(vec):
        return _sum(f, [{(n + 1, lb2): f.mul(c, c2) for lb2, c2 in homotopy(alg, lb).items()}
                        for (n, lb), c in vec.items()])

    def sigma(vec):
        return {(0, (b, alg.one_mono, ())): c for b, c in vec.items()}

    defect = None
    for t in range(D):
        for lb, col in dd[t].items():
            if _sum(f, [apply(dd[t + 1], h({lb: f.one})), h(col), sigma(al[t][lb]), {lb: f.neg(f.one)}]):
                defect = lb
                break
        if defect is None:
            defect = next((b for b in alg.basis("B", t) if apply(al[t], sigma({b: f.one})) != {b: f.one}), None)
        if defect is not None:
            break
    return square, anti, chain, defect


def reduced_full_checks(alg, D, homotopy=None):
    """The reduced bar checks on every n, from every slice of `reduced_slice_matrix`.

    Returns (d̄_{n-1}∘d̄_n = 0 for every n >= 2 in degrees 0..D, and per
    degree d = 0..D the first label at which πσ = id, d̄_1h_0 + σπ = id or
    d̄_{n+1}h_n + h_{n-1}d̄_n = id fails, in the order B, C_0, C_1, ...,
    each in basis order, or None): the reference for the checks of `bar`,
    which take products only for n <= 2 and read longer labels through the
    helper `semifree.append_tail`, evaluated here on every n.  `homotopy` defaults to
    `semifree.homotopy`; a label it sends outside C_{n+1} fails.  Images
    are summed label by label from the matrix columns, with no matrix
    product.
    """
    from dgres.semifree import homotopy as real_homotopy
    from dgres.semifree import pi_column, section
    from dgres.tensor import prefixed_basis_labels

    f = alg.field
    h = homotopy or real_homotopy

    def cols(M):
        return dict(zip(M.col_labels, M.columns()))

    def apply(columns, vec):
        return _sum(f, [{row: f.mul(c, v) for row, v in columns[lb].items()} for lb, c in vec.items()])

    dbar = {(n, d): cols(reduced_slice_matrix(alg, n, d)) for d in range(D + 1) for n in range(1, d + 2)}
    square = all(not apply(dbar[(n - 1, d)], col) for d in range(D + 1) for n in range(2, d + 1)
                 for col in dbar[(n, d)].values())
    firsts = []
    for d in range(D + 1):
        pi = {lb: pi_column(alg, lb) for lb in prefixed_basis_labels(alg, 0, d)}
        bad = next((b for b in alg.basis("B", d) if apply(pi, section(alg, b)) != {b: f.one}), None)
        for n in range(d + 1):
            if bad is not None:
                break
            up = dbar[(n + 1, d)]
            for lb in prefixed_basis_labels(alg, n, d):
                hx = h(alg, lb)
                down = pi[lb] if n == 0 else dbar[(n, d)][lb]
                back = (_sum(f, [{(b, alg.one_mono, ()): c} for b, c in down.items()]) if n == 0
                        else _sum(f, [{row: f.mul(c, v) for row, v in h(alg, lb2).items()} for lb2, c in down.items()]))
                if any(lb2 not in up for lb2 in hx) or _sum(f, [apply(up, hx), back, {lb: f.neg(f.one)}]):
                    bad = lb
                    break
        firsts.append(bad)
    return square, firsts


def prefixed_coords(t, n):
    """Coordinates of t ∈ B ⊗_A J^{⊗_B n} over `prefixed_basis_labels`, from `delta_coords`.

    Returns dict[(b, m, ws) -> scalar], or raises NotInJn when t is outside
    the subspace: the flat reference that the closed forms on labels are
    compared against.
    """
    from dgres.tensor import delta_coords

    out = {}
    for ws, val in delta_coords(t, n).items():
        for w, c in val.terms.items():
            assert len(w) == 2, "prefixed coordinates expect length-2 residue"
            out[(w[0], w[1], ws)] = c
    return out


def bb_coords(t):
    """Coordinates of a BBElement over the stored basis labels (n, (b, m, ws)), by `prefixed_coords`."""
    return {(n, lb): c for n, te in t.components.items() for lb, c in prefixed_coords(te, n).items()}


def _sum(f, vecs):
    """Σ of sparse vectors {label: value} over the field f, zeros dropped."""
    out = {}
    for vec in vecs:
        for lb, v in vec.items():
            out[lb] = f.add(out.get(lb, f.zero), v)
    return {lb: v for lb, v in out.items() if v != f.zero}


def normalizing_concat_B(t1, t2):
    """`concat_B` as it was before it normalised the junction slot alone: every product word goes through `normalize_word`."""
    from dgres.tensor import TensorElement

    alg = t1.alg
    f = alg.field
    out = TensorElement(alg, t1.length + t2.length - 1)
    for w1, c1 in t1.terms.items():
        for w2, c2 in t2.terms.items():
            sm = alg.mono_mul(w1[-1], w2[0])
            if sm is not None:
                c = f.mul(c1, c2)
                out._add_raw(w1[:-1] + (sm[1],) + w2[1:], f.neg(c) if sm[0] < 0 else c)
    return out


def normalizing_right_mult(t, u):
    """`right_mult` with every product word sent through `normalize_word`."""
    from dgres.tensor import TensorElement

    alg = t.alg
    f = alg.field
    out = TensorElement(alg, t.length)
    for w, cw in t.terms.items():
        for mu, cu in u.terms.items():
            sm = alg.mono_mul(w[-1], mu)
            if sm is not None:
                c = f.mul(cw, cu)
                out._add_raw(w[:-1] + (sm[1],), f.neg(c) if sm[0] < 0 else c)
    return out


def normalizing_bar_homotopy(t):
    """`bar_homotopy` (prepend a 1-slot) with every word sent through `normalize_word`."""
    from dgres.tensor import TensorElement

    out = TensorElement(t.alg, t.length + 1)
    for w, c in t.terms.items():
        out._add_raw((t.alg.one_mono,) + w, c)
    return out


def normalizing_bar_action(t, s):
    """`bar_action` with every word sent through `normalize_word`: b into the first slot across the rest, b' into the last."""
    from dgres.tensor import TensorElement

    alg = t.alg
    f = alg.field
    out = TensorElement(alg, t.length)
    for w, cw in t.terms.items():
        tail_par = sum(m.degree for m in w[1:]) % 2
        for (mb, mbp), cs in s.terms.items():
            sign = -1 if mb.degree % 2 and tail_par else 1
            first = alg.mono_mul(w[0], mb)
            if first is None:
                continue
            last = alg.mono_mul(first[1] if t.length == 1 else w[-1], mbp)
            if last is None:
                continue
            word = (last[1],) if t.length == 1 else (first[1],) + w[1:-1] + (last[1],)
            c = f.mul(cw, cs)
            out._add_raw(word, f.neg(c) if sign * first[0] * last[0] < 0 else c)
    return out


def normalizing_delta(b):
    """δ(b) = 1 ⊗ b − b ⊗ 1, each word of either term sent through `normalize_word`."""
    from dgres.tensor import TensorElement

    alg = b.alg
    out = TensorElement(alg, 2)
    for m, c in b.terms.items():
        out._add_raw((alg.one_mono, m), c)
        out._add_raw((m, alg.one_mono), alg.field.neg(c))
    return out


def normalizing_bb_word(alg, prefix, factors):
    """`semifree.bb_word` built word by word: each prefix monomial b, signed (-1)^{n|b|}, is prepended
    to each word of the δ-chain of the factors (`normalizing_concat_B` of `normalizing_delta`s, signed
    psi_sign(n, 0, τ)), and the word goes through `normalize_word`."""
    from dgres.semifree import BBElement, psi_sign
    from dgres.tensor import TensorElement

    f = alg.field
    n = len(factors)
    chain = TensorElement.unit(alg, 1)
    for u in factors:
        chain = normalizing_concat_B(chain, normalizing_delta(u))
    if chain.is_zero():
        return BBElement(alg)
    sign = psi_sign(n, 0, [u.homogeneous_degree() for u in factors])
    out = TensorElement(alg, n + 2)
    for b, cb in prefix.terms.items():
        for w, cw in chain.terms.items():
            c = f.mul(cb, cw)
            out._add_raw((b,) + w, f.neg(c) if sign * (-1) ** (n * b.degree) < 0 else c)
    return BBElement(alg, {n: out})


def alternating_merges(t, n):
    """The classical bar differential Σ_i (-1)^i merge_at(t, i), summed element by element."""
    from dgres.tensor import merge_at

    out = merge_at(t, 0)
    for i in range(1, n + 1):
        piece = merge_at(t, i)
        out = out + (piece if i % 2 == 0 else -piece)
    return out


def nsex_split_check(N, D):
    """Second decision path for naive liftability: slicewise splitting solve.

    The reference that `modules.naive_lift_solve` is checked against.  Seeks a degreewise linear s : N_d → (N ⊗_A B)_d for d <= D with
    π_N s = id, the chain condition, and right-linearity under each algebra
    generator inside the window.  With D at least the top basis degree this
    is equivalent to `naive_lift_solve` returning Liftable, but the system
    is parameterized by slice matrices rather than basis images, so it
    exercises an independent code path for the consistency check between
    the two decision procedures; consistency is decided by dense rank.
    """
    from dgres.errors import NotValidated
    from dgres.modules import (ModTensorElement, mod_merge_at, mod_right_mult, modtensor_basis,
                               module_differential, validate_module)

    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    alg = N.alg
    f = alg.field
    slices = {d: modtensor_basis(N, 1, d) for d in range(D + 1)}
    targets = {d: modtensor_basis(N, 2, d) for d in range(D + 1)}
    var_index = {}
    count = 0
    for d in range(D + 1):
        for src in slices[d]:
            for tgt in targets[d]:
                var_index[(d, src, tgt)] = count
                count += 1
    rows = []

    def image_columns(d, src):
        return [(var_index[(d, src, tgt)], tgt) for tgt in targets[d]]

    # π s = id on each slice
    for d in range(D + 1):
        for src in slices[d]:
            want = ModTensorElement(N, 1, {src: f.one})
            per_key = {}
            for col, tgt in image_columns(d, src):
                img = mod_merge_at(ModTensorElement(N, 2, {tgt: f.one}), 0)
                for key, c in img.terms.items():
                    per_key.setdefault(key, {})[col] = c
            for key in set(per_key) | set(want.terms):
                rows.append((per_key.get(key, {}), want.terms.get(key, f.zero)))
    # chain condition: s(∂x) = ∂(s(x)) whenever both degrees are in window
    for d in range(1, D + 1):
        for src in slices[d]:
            lhs_cols: dict = {}
            dx = module_differential(ModTensorElement(N, 1, {src: f.one}))
            for key, c in dx.terms.items():
                for col, tgt in image_columns(d - 1, key):
                    img = ModTensorElement(N, 2, {tgt: f.one})
                    for kk, cc in img.terms.items():
                        lhs_cols.setdefault(kk, {})
                        cur = lhs_cols[kk].get(col, f.zero)
                        lhs_cols[kk][col] = f.add(cur, f.mul(c, cc))
            for col, tgt in image_columns(d, src):
                img = module_differential(ModTensorElement(N, 2, {tgt: f.one}))
                for kk, cc in img.terms.items():
                    lhs_cols.setdefault(kk, {})
                    cur = lhs_cols[kk].get(col, f.zero)
                    lhs_cols[kk][col] = f.add(cur, f.neg(cc))
            for kk, cols in lhs_cols.items():
                cols = {c: v for c, v in cols.items() if v != f.zero}
                if cols:
                    rows.append((cols, f.zero))
    # right-linearity: s(x·g) = s(x)·g inside the window
    for d in range(D + 1):
        for src in slices[d]:
            for g in alg.gens:
                d2 = d + g.degree
                if d2 > D:
                    continue
                ge = alg.gen(g.name)
                shifted = mod_right_mult(ModTensorElement(N, 1, {src: f.one}), ge)
                per_key: dict = {}
                for key, c in shifted.terms.items():
                    for col, tgt in image_columns(d2, key):
                        img = ModTensorElement(N, 2, {tgt: f.one})
                        for kk, cc in img.terms.items():
                            per_key.setdefault(kk, {})
                            cur = per_key[kk].get(col, f.zero)
                            per_key[kk][col] = f.add(cur, f.mul(c, cc))
                for col, tgt in image_columns(d, src):
                    img = mod_right_mult(ModTensorElement(N, 2, {tgt: f.one}), ge)
                    for kk, cc in img.terms.items():
                        per_key.setdefault(kk, {})
                        cur = per_key[kk].get(col, f.zero)
                        per_key[kk][col] = f.add(cur, f.neg(cc))
                for kk, cols in per_key.items():
                    cols = {c: v for c, v in cols.items() if v != f.zero}
                    if cols:
                        rows.append((cols, f.zero))

    # consistent exactly when appending the right-hand side keeps the rank
    dense = [[cols.get(c, f.zero) for c in range(count)] for cols, _ in rows]
    return dense_rank_oracle(dense, f.p) == dense_rank_oracle([r + [rhs] for r, (_, rhs) in zip(dense, rows)], f.p)


def _beta_stored_sign(m: int, mu_degree_sum: int, entry_degrees: list[int]) -> int:
    """Stored-coordinate sign of a depth-m β-series term.

    `mu_degree_sum` is Σ |e_{μ_j}| over the chain μ_m < ... < μ_1 < λ and
    `entry_degrees` lists the coefficient degrees along the δ-word, leftmost
    factor first (so entry_degrees[0] = |b_{μ_m μ_{m-1}}|).  The second sum
    is the suspension-shuffle relabeling of the stored coordinates; the
    first makes β a chain map for the transported differential.  Pinned by
    exact solves over pure, jump, and mixed-parity chains.
    """
    shuffle = sum((m - i) * entry_degrees[i - 1] for i in range(1, m))
    exp = mu_degree_sum + shuffle
    return -1 if exp % 2 else 1


def nt_element(N, comps: dict):
    """The element of N ⊗_A T = N ⊗_B 𝔹 whose component n, of word length n + 2,
    is the `ModTensorElement` comps[n]: its y_j holds the part at e_j of
    every comps[n] (`modules.NTElement` is keyed by generator)."""
    from dgres.modules import NTElement
    from dgres.semifree import BBElement

    parts: dict = {}
    for n, t in comps.items():
        for j, x in t.components.items():
            parts.setdefault(j, {})[n] = x
    return NTElement(N, {j: BBElement(N.alg, ys) for j, ys in parts.items()})


def _index_signed(t, n: int):
    """t with its part at each index j signed (-1)^{|e_j|+n}."""
    return t._like({j: -x if (t.owner.degrees[j] + n) % 2 else x for j, x in t.components.items()})


def _internal_part(t, n: int):
    """The part of the internal differential of N ⊗_A T that keeps component n, on t in it.

    On e_j ⊗ x_j: (-1)^{|e_j|+n} e_j ⊗ d(x_j) plus e_i ⊗ b'_ij·x_j for i < j,
    where b'_ij is b_ij twisted by n, each monomial b signed (-1)^{n|b|}.
    """
    from dgres.modules import ModTensorElement
    from dgres.semifree import _add_to
    from dgres.tensor import left_mult, tensor_differential

    mod = t.module
    parts: dict = {}
    for j, x in t.components.items():
        d = tensor_differential(x)
        _add_to(parts, j, -d if (mod.degrees[j] + n) % 2 else d)
        for i in range(j):
            b = mod.diff.get((i, j))
            if b is not None:
                _add_to(parts, i, left_mult(b.twisted(n), x))
    return ModTensorElement._of_parts(mod, t.length, parts)


def dn_by_word_length(N, comps: dict) -> dict:
    """The differential of N ⊗_A T written by word length, on {n: ModTensorElement}.

    On e_j ⊗ x_j in component n: `_internal_part`, which keeps component n,
    plus (-1)^{|e_j|} e_j ⊗ merge01(x_j) in component n-1.  The reference
    that `modules.DN`, which applies `semifree.DD` to each y_j of
    Σ_j e_j ⊗ y_j, is checked against (through `nt_element`).
    """
    from dgres.modules import mod_merge_at
    from dgres.semifree import _add_to

    out: dict = {}
    for n, te in comps.items():
        _add_to(out, n, _internal_part(te, n))
        if n:
            _add_to(out, n - 1, _index_signed(mod_merge_at(te, 0), 0))
    return out


def chain_walk_beta_N(N, lam: str):
    """The splitting series β_N(e_λ) = e_λ⊗1 + Σ e_μ ⊗ δ(b)-chains.

    Depth-first over strictly decreasing chains below λ; δ-words are built
    by extending memoized suffixes on the left.  The component of a chain is
    `bar_homotopy` of its δ-word, scaled by the stored sign.  The reference
    that `modules.beta_N`, built by its recursion over the generators, is
    checked against.
    """
    from dgres.bar import bar_homotopy
    from dgres.errors import NotValidated
    from dgres.modules import ModTensorElement, validate_module
    from dgres.tensor import TensorElement, concat_B, delta

    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    alg = N.alg
    j = N.index[lam]
    out = nt_element(N, {0: ModTensorElement(N, 2, {
        (j, (alg.one_mono, alg.one_mono)): alg.field.one})})
    memo: dict[tuple, TensorElement] = {}

    def chain_word(chain: tuple[int, ...]) -> TensorElement:
        # chain = (mu_m, ..., mu_1) indices descending towards lam at the right
        got = memo.get(chain)
        if got is not None:
            return got
        if len(chain) == 1:
            w = delta(N.diff[chain[0], j])
        else:
            w = concat_B(delta(N.diff[chain[0], chain[1]]), chain_word(chain[1:]))
        memo[chain] = w
        return w

    def rec(chain: tuple[int, ...]):
        nonlocal out
        head = chain[0]
        word = chain_word(chain)
        if not word.is_zero():
            m = len(chain)
            full = chain + (j,)
            entry_degs = [N.diff[a, b].homogeneous_degree() for a, b in zip(full, full[1:])]
            sign = _beta_stored_sign(m, sum(N.degrees[i] for i in chain), entry_degs)
            comp = ModTensorElement._of_parts(N, m + 2, {head: bar_homotopy(word).scale_int(sign)})
            out = out + nt_element(N, {m: comp})
        for i in range(head):
            if (i, head) in N.diff:
                rec((i,) + chain)

    for i in range(j):
        if (i, j) in N.diff:
            rec((i,))
    return out


def validate_module_oracle(N):
    """The report of `modules.validate_module`, with ∂² read off every triple i < k < j.

    The coefficient of e_i in ∂²(e_j) is Σ_{i<k<j} b_ik·b_kj plus
    (-1)^{|e_i|}·d(b_ij), multiplied out for every pair i < j, zero entries
    included; the bad pairs are listed j first, then i.  Unlike
    `validate_module`, it does not mark N validated.
    """
    from dgres.algebra import ValidationReport

    rep = ValidationReport()
    alg = N.alg
    ok_deg = []
    for (i, j), b in N.diff.items():
        want = N.degrees[j] - N.degrees[i] - 1
        degs = b.degrees()
        if degs != {want}:
            ok_deg.append(f"({N.names[i]},{N.names[j]}): degrees {sorted(degs)} != {want}")
    rep.add("entry-degrees", not ok_deg, "; ".join(ok_deg))
    rep.add("strict-triangularity", all(i < j for (i, j) in N.diff), "")
    bad = []
    for j in range(len(N.names)):
        for i in range(j):
            acc = alg.zero()
            for k in range(i + 1, j):
                acc = acc + N.diff.get((i, k), alg.zero()) * N.diff.get((k, j), alg.zero())
            sign = -1 if N.degrees[i] % 2 else 1
            acc = acc + alg.d(N.diff.get((i, j), alg.zero())).scale_int(sign)
            if not acc.is_zero():
                bad.append(f"({N.names[i]},{N.names[j]})")
    rep.add("d-squared-zero", not bad, "" if not bad else "∂² != 0 at " + ", ".join(bad[:4]))
    return rep


def naive_lift_solve_oracle(N):
    """`modules.naive_lift_solve` with each column built from whole elements of N ⊗_A B.

    The unknown (j, (i, w)) is the element e_i ⊗ w, and its column holds
    its π_N image at the rows ("pi", j, ·), minus its module differential at
    ("chain", j, ·), and its right multiple by b_jk at ("chain", k, ·) for
    each k > j, each read off the `terms` of a `ModTensorElement`.  The
    module differential is `_internal_part` on word length 2, written apart
    from `modules._over_e`.  Rows, columns, right-hand side, solve and ρ are
    as in `naive_lift_solve`.
    """
    from dgres.linalg import SliceMatrix, solve_linear
    from dgres.modules import LiftResult, ModTensorElement, mod_merge_at, mod_right_mult, modtensor_basis

    f = N.alg.field
    unit = (N.alg.one_mono,)

    def column(j: int, lab) -> dict:
        el = ModTensorElement(N, 2, {lab: f.one})
        col = {("pi", j, key): c for key, c in mod_merge_at(el, 0).terms.items()}
        col.update((("chain", j, key), f.neg(c)) for key, c in _internal_part(el, 0).terms.items())
        for i in range(j + 1, len(N.names)):
            b = N.diff.get((j, i))
            if b is not None:
                col.update((("chain", i, key), c) for key, c in mod_right_mult(el, b).terms.items())
        return col

    degrees = tuple(enumerate(N.degrees))
    cols = tuple((j, lab) for j, d in degrees for lab in modtensor_basis(N, 2, d))
    rows = tuple([("pi", j, key) for j, d in degrees for key in modtensor_basis(N, 1, d)]
                 + [("chain", j, key) for j, d in degrees for key in modtensor_basis(N, 2, d - 1)])
    A = SliceMatrix.from_columns(f, rows, cols, (column(j, lab) for j, lab in cols))
    rhs = [f.one if kind == "pi" and key == (j, unit) else f.zero for kind, j, key in rows]
    x, cert = solve_linear(A, rhs)
    if x is None:
        return LiftResult(False, None, cert, A.nrows, A.ncols, A, rhs)
    parts: dict = {j: {} for j in range(len(N.names))}
    for (j, lab), c in zip(cols, x):
        if c != f.zero:
            parts[j][lab] = c
    rho = {name: ModTensorElement(N, 2, parts[j]) for j, name in enumerate(N.names)}
    return LiftResult(True, rho, None, A.nrows, A.ncols, A, rhs)


def modtensor_repr_oracle(t) -> str:
    """The text of a `ModTensorElement`, each term keyed and spelt on its own.

    Index ascending, then the words of each part by `sorted_terms`; a term
    is name.m_0(x)m_1(x)..., prefixed c* unless c is 1.
    """
    if not t.components:
        return "0"
    alg = t.owner.alg
    parts = []
    for i in sorted(t.components):
        for w, c in t.components[i].sorted_terms():
            body = t.owner.names[i] + "." + "(x)".join(alg.mono_repr(m) for m in w)
            parts.append(f"{c}*{body}" if c != alg.field.one else body)
    return " + ".join(parts)


def nt_repr_oracle(t) -> str:
    """The text of an `NTElement`: by word length n, "[n] " and the `modtensor_repr_oracle` of component n."""
    from dgres.modules import ModTensorElement

    by_length: dict = {}
    for j, y in t.components.items():
        for n, x in y.components.items():
            by_length.setdefault(n, {})[j] = x
    return " ++ ".join(f"[{n}] {modtensor_repr_oracle(ModTensorElement._of_parts(t.owner, n + 2, parts))}"
                       for n, parts in sorted(by_length.items())) or "0"


# -- maps of the paper that only the tests call ------------------------------------


class JnView(NamedTuple):
    """Coordinates of an element of J^{⊗_B n} over the standard left-B basis."""

    n: int
    left_coords: dict  # tuple[Monomial,...] -> AlgElement


def jn_basis_labels(alg, n, degree):
    """Labels (b, (w_1..w_n)) of the left-B basis of the J^{⊗_B n} slice.

    Sorted by b, then w_1..w_n, each by its `sort_key`.
    """
    from dgres.tensor import _delta_factors

    return tuple((b, ws) for db in range(degree + 1) for b in alg.basis("B", db)
                 for ws in _delta_factors(alg, n, degree - db))


def jn_basis_element(alg, label):
    from dgres.tensor import delta_word, left_mult

    b, ws = label
    return left_mult(alg.from_monomial(b), delta_word(alg, ws))


def jn_membership(t, n):
    """Decide t ∈ J^{⊗_B n}; returns (bool, JnView | residual-info)."""
    from dgres.errors import LengthMismatch, NotInJn
    from dgres.tensor import as_algebra_element, delta_coords

    if t.length != n + 1:
        raise LengthMismatch(f"expected length {n + 1}, got {t.length}")
    try:
        coords = delta_coords(t, n)
    except NotInJn as exc:
        return False, str(exc)
    return True, JnView(n, {ws: as_algebra_element(v) for ws, v in coords.items() if not v.is_zero()})


def kappa_n(alg, n, left_coords):
    """Left-B coordinates → flat element of J^{⊗_B n} ⊆ B^{⊗_A (n+1)}."""
    from dgres.algebra import AlgElement, Monomial
    from dgres.errors import LengthMismatch
    from dgres.tensor import TensorElement, delta_word, left_mult

    out = TensorElement(alg, n + 1)
    for ws, f in left_coords.items():
        if len(ws) != n:
            raise LengthMismatch("coordinate tuple of wrong length")
        if isinstance(f, AlgElement):
            coeff = f
        elif isinstance(f, Monomial):
            coeff = alg.from_monomial(f)
        else:
            coeff = alg.element([(f, {})])
        out = out + left_mult(coeff, delta_word(alg, tuple(ws)))
    return out


def kappa_n_inverse(t, n):
    from dgres.errors import NotInJn

    ok, view = jn_membership(t, n)
    if not ok:
        raise NotInJn(view)
    return view


def derivation_from_generator_images(alg, gen_images, cutoff):
    """Extend images of the generators to a derivation table by D(bb') = D(b)b' + bD(b')."""
    from dgres.algebra import Monomial
    from dgres.bar import DerivationTable
    from dgres.tensor import TensorElement, left_mult, right_mult

    images = {alg.one_mono: TensorElement(alg, 2)}

    def build(m):
        got = images.get(m)
        if got is not None:
            return got
        for i, e in enumerate(m.exps):
            if e == 0:
                continue
            g = alg.gens[i]
            g_mono = alg.mono({g.name: 1})
            rest_exps = tuple(m.exps[k] - (1 if k == i else 0) for k in range(len(alg.gens)))
            rest = Monomial(rest_exps, m.degree - g.degree)
            dg = gen_images.get(g.name, TensorElement(alg, 2))
            # the split m = g * rest is canonical-order, so it carries sign +1
            out = right_mult(dg, alg.from_monomial(rest)) + left_mult(alg.from_monomial(g_mono), build(rest))
            images[m] = out
            return out
        return images[alg.one_mono]

    for d in range(cutoff + 1):
        for m in alg.basis("B", d):
            build(m)
    return DerivationTable(alg, cutoff, {m: t for m, t in images.items() if not t.is_zero()})


# -- slice matrices that only the tests read ----------------------------------------


def matrix_of_map(alg, images, col_labels):
    """Matrix of a linear map given by the images of an ordered source basis.

    The rows are the distinct words of the images in canonical word order,
    which is their relative order in the ambient word basis, and those words
    become the row labels.
    """
    from dgres.linalg import SliceMatrix
    from dgres.tensor import _word_key

    row_labels = tuple(sorted({w for img in images for w in img.terms}, key=_word_key))
    return SliceMatrix.from_columns(alg.field, row_labels, col_labels, (img.terms for img in images))


def bar_slice_matrix(alg, n, degree):
    """Matrix of 𝐝_{n-1} on the degree slice.

    Columns are the canonical word basis of B^{⊗_A (n+2)}; rows are the words
    of B^{⊗_A (n+1)} that occur in the images (see `matrix_of_map`).
    """
    from dgres.bar import bar_differential
    from dgres.tensor import TensorElement, tensor_basis

    src = tensor_basis(alg, n + 2, degree)
    return matrix_of_map(alg, [bar_differential(TensorElement.from_word(alg, w), n) for w in src], src)


def nJ_kernel_basis(alg, n, degree):
    """Basis of the degree slice of ^nJ = ker 𝐝_{n-2} ⊆ B^{⊗_A (n+1)}: the nullspace of `bar_slice_matrix`.

    The reference for the cycles that `bar.contracted_cycles` reads from "prepend 1".
    """
    from dgres.tensor import TensorElement, tensor_basis

    src = tensor_basis(alg, n + 1, degree)
    return [TensorElement(alg, n + 1, {w: c for w, c in zip(src, vec) if c != alg.field.zero})
            for vec in (bar_slice_matrix(alg, n - 1, degree).nullspace() if src else ())]


def reduced_slice_matrix(alg, n, degree):
    """Matrix of d̄_n on the degree slice, over the δ-labels.

    Columns are the labels (b, m, ws) of B ⊗_A J^{⊗_B n}
    (`prefixed_basis_labels`), rows the labels of n − 1, and column j is
    `dbar_column` of label j: the column of its head (b, m, (w_1,)) with
    ws[1:] appended (`semifree.append_tail`).  The map ι_{n−1} taking a
    label to its flat element of B^{⊗_A (n+1)} is injective, so the ranks
    are those of the matrix of merge_at(·, 0) in ambient word coordinates.
    A label outside the rows gets an extra row (`SliceMatrix.from_columns`).
    """
    from dgres.linalg import SliceMatrix
    from dgres.semifree import dbar_column
    from dgres.tensor import prefixed_basis_labels

    labels = prefixed_basis_labels(alg, n, degree)
    return SliceMatrix.from_columns(alg.field, prefixed_basis_labels(alg, n - 1, degree), labels,
                                    (dbar_column(alg, lb) for lb in labels))


def dN_matrix(N, length, degree):
    """Matrix of 𝐝^N from the degree slice of word length `length` to length-1.

    Columns and rows are the `modtensor_basis` labels of the two slices.
    """
    from dgres.linalg import SliceMatrix
    from dgres.modules import ModTensorElement, bar_dN_any, modtensor_basis

    f = N.alg.field
    src = tuple(modtensor_basis(N, length, degree))
    return SliceMatrix.from_columns(f, tuple(modtensor_basis(N, length - 1, degree)), src,
                                    (bar_dN_any(ModTensorElement(N, length, {key: f.one})).terms
                                     for key in src))


def kernel_dim_oracle(M):
    """dim ker M, from the dense rank of its entries."""
    return M.ncols - dense_rank_oracle(dense_map(M)[1], M.field.p)


def span_rank_oracle(elements, p=None):
    """The dimension of the span of elements of one slice, by the dense rank of their coordinates."""
    keys = list(dict.fromkeys(k for x in elements for k in x.terms))
    return dense_rank_oracle([[x.terms.get(k, 0) for x in elements] for k in keys], p)


# -- one-shot report renderers ------------------------------------------------------


def render_machine(report) -> str:
    """The machine report as one string: `json.dumps` of the payload, then a newline."""
    import json

    payload = {
        "version": report.version,
        "command": report.command,
        "input_sha256": report.input_sha256,
        "options": {k: report.options[k] for k in sorted(report.options)},
        "checks": report.checks,
        "tables": {k: report.tables[k] for k in sorted(report.tables)},
        "verdict": "PASS" if report.all_passed else "FAIL",
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def render_text(report) -> str:
    """The text report as one string: every line collected in a list, then joined."""
    lines = []
    lines.append(f"dgres {report.version}")
    lines.append(f"command: {report.command}")
    lines.append(f"input sha256: {report.input_sha256}")
    if report.options:
        opts = " ".join(f"{k}={report.options[k]}" for k in sorted(report.options))
        lines.append(f"options: {opts}")
    lines.append("")
    width = max((len(c["name"]) for c in report.checks), default=0)
    for c in report.checks:
        line = f"  {c['status']:<4}  {c['name']:<{width}}"
        if c.get("window"):
            line += f"  [{c['window']}]"
        lines.append(line.rstrip())
        if c.get("counterexample"):
            lines.append(f"        counterexample: {c['counterexample']}")
    for tname in sorted(report.tables):
        lines.append("")
        lines.append(f"table {tname}:")
        for row in report.tables[tname]:
            lines.append("  " + "  ".join(str(x) for x in row))
    lines.append("")
    lines.append(f"verdict: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
