"""Homology tables, and the one certificate of a label contraction of (𝔹, 𝔻).

All claims are window-annotated: a homology dimension at degree m is sound
only when the differentials into and out of the slice are fully enumerated,
which needs basis data through degree m+1.  The tables therefore only
report degrees <= D-1 when built through D.  `certify_contraction` checks
that (h, σ) contracts (𝔹, 𝔻) onto (B, d^B) on a window of labels, in one
pass over the total degrees.  It has two instances: `quasi_iso_check`, on
the labels of total degree <= D, and `bar.certify_reduced_bar`, which runs
it on B with d forgotten, where (𝔹, 𝔻) is the augmented reduced bar
resolution.  The tables of the reduced bar and of (𝔹, 𝔻) then follow from
dimensions.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import DGAlgebra, add_term
from .errors import DgresError, WindowIncomplete
from .linalg import SliceMatrix
from .semifree import (
    DD,
    BBElement,
    alpha,
    dd_column,
    defect_details,
    homotopy,
    pi_column,
    prefix_one_labels,
    section,
)
from .tensor import TensorElement, _memo, prefixed_basis_dim, prefixed_basis_element

BAD_COLUMNS = "a DD column differs from dv + Dv, the flat images of its basis element"


class HomologyTable:
    """degree -> (dim cycles, dim boundaries, dim homology)."""

    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries

    def add(self, degree: int, cycles: int, boundaries: int):
        if boundaries > cycles:
            raise DgresError("boundaries exceed cycles; inconsistent ranks")
        self.entries[degree] = (cycles, boundaries, cycles - boundaries)

    def homology(self, degree: int) -> int:
        return self.entries[degree][2]

    def rows(self):
        return [(d,) + self.entries[d] for d in sorted(self.entries)]


def _window(D: int) -> str:
    return f"degrees 0..{D - 1} (built through {D})"


def dB_matrix(alg: DGAlgebra, degree: int) -> SliceMatrix:
    """Matrix of d^B from the degree slice to the one below; cached per algebra."""
    src = alg.basis("B", degree)
    return _memo(alg, "dB_matrix", degree, lambda: SliceMatrix.from_columns(
        alg.field, alg.basis("B", degree - 1), src, (alg.diff_mono(m).terms for m in src)))


def _prefix_one(alg: DGAlgebra, total_degree: int) -> tuple:
    """The labels (n, (1, m, ws)) of one total degree t, every n."""
    return tuple(lb for n in range(total_degree // 2 + 1) for lb in prefix_one_labels(alg, n, total_degree - n))


def bb_dd_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of 𝔻 on the prefix-1 labels of total degree t, from the closed form `dd_column`.

    Its rows are the prefix-1 labels of degree t-1, then the labels with
    b != 1 that the columns hit, in the order first hit.
    `certify_contraction` reads the same columns one by one.
    """
    cols = _prefix_one(alg, total_degree)
    return SliceMatrix.from_columns(alg.field, _prefix_one(alg, total_degree - 1), cols,
                                    (dd_column(alg, lb) for lb in cols))


def bb_alpha_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of the augmentation α from the prefix-1 labels of 𝔹 to the B slice.

    On the labels α(0, λ) = π(λ) (`semifree.pi_column`), and α is zero on
    every component n >= 1.
    """
    cols = _prefix_one(alg, total_degree)
    return SliceMatrix.from_columns(alg.field, alg.basis("B", total_degree), cols,
                                    ({} if lb[0] else pi_column(alg, lb[1]) for lb in cols))


def prefix_image(alg: DGAlgebra, label, dd_col: dict, alpha_col: dict) -> tuple[dict, dict]:
    """The 𝔻 and α columns of label = (n, (b, m, ws)) by the prefix lemma of
    `certify_contraction`, from the columns dd_col and alpha_col of (n, (1, m, ws))."""
    n, (b, m, ws) = label
    f = alg.field
    dd: dict = {}
    for mm, c in alg.diff_mono(b).terms.items():  # (-1)^n·(db)·X
        add_term(f, dd, (n, (mm, m, ws)), c, n % 2)
    odd_b = b.degree % 2
    for (k, (b2, m2, ws2)), c in dd_col.items():  # (-1)^{|b|}·b·∂X + b·𝔇X
        sm = alg.mono_mul(b, b2)
        if sm is not None:
            add_term(f, dd, (k, (sm[1], m2, ws2)), c, (sm[0] < 0) ^ (k == n and odd_b))
    alpha_b = {}
    for mono, c in alpha_col.items():  # α(b·X) = b·α(X)
        sm = alg.mono_mul(b, mono)
        if sm is not None:
            alpha_b[sm[1]] = f.neg(c) if sm[0] < 0 else c
    return dd, alpha_b


def tail_image(alg: DGAlgebra, label, head_col: dict, last_col: dict) -> dict:
    """The 𝔻 column of label = (n, (1, m, ws)), n >= 2, by the tail lemma of
    `certify_contraction`, from the 𝔻 columns head_col of (n - 1, (1, m, ws[:-1]))
    and last_col of (1, (1, 1, (w_n,)))."""
    n, (_, m, ws) = label
    f = alg.field
    w, init = ws[-1], ws[:-1]
    dd: dict = {}
    for (k, (b2, m2, ws2)), c in head_col.items():  # -concat_B(∂X, δw) + concat_B(𝔇X, δw)
        add_term(f, dd, (k + 1, (b2, m2, ws2 + (w,))), c, k == n - 1)
    x = m.degree + sum(u.degree for u in init)  # |X|
    for (k, (a, _, e1)), c in last_col.items():  # (-1)^{n+|X|}·concat_B(X, δ(dw)), e1 = (e,)
        if k == 1:
            add_term(f, dd, (n, (a, m, init + e1)), c, (n + x + a.degree * x + 1) % 2)
    return dd


def certify_contraction(alg: DGAlgebra, tops: tuple):
    """(h, σ) contracts (𝔹, 𝔻) onto (B, d^B) on a window of labels, in one pass over the total degrees.

    The window holds the labels (n, λ) with n < len(tops) and internal
    degree |λ| <= tops[n]; tops does not increase with n, so the rows of a
    window column, in component n or n - 1 and of no larger internal
    degree, are window labels.  `quasi_iso_check`
    takes every label of total degree <= D, tops[n] = D - n, and
    `bar.certify_reduced_bar` the labels with n <= 2 and |λ| <= D.  Returns
    None when a column fails its check.  Otherwise returns (square, anti,
    chain, defects):
    - square: 𝔻² = 0 on every prefix-1 column of the window, and
      d^B∘d^B = 0 on B through degree tops[0];
    - anti: 𝔇∂ + ∂𝔇 = 0 on those columns;
    - chain: α∘𝔻 = d^B∘α on those columns;
    - defects, in order of total degree: each prefix-1 column X at which
      𝔻h + h𝔻 + σα = id fails, among those whose h-image (n + 1, |λ|) lies
      in the window, and then each monomial b with |b| <= tops[1] at which
      α∘σ = id fails.  Each comes with its defect: the nonzero entries of
      the identity's sum, unreduced, and the labels that h or σ sends
      outside the window.

    In total degree t the pass lists the window's prefix-1 labels, computes
    and certifies their columns, `dd_column` and, for n = 0, `pi_column`,
    and reads the products at them.  It then checks the identities on the
    columns of degree t - 1, whose h-images it has just certified.  It
    keeps the certified prefix-1 columns of every degree; a label with
    b != 1, a row of degree t - 1 or an h-image of degree t, is certified
    in the step that reads it, and dropped after it.

    Write ι_n(b, m, ws) for the flat basis element of the label (n, (b, m,
    ws)) and b· for left multiplication of slot 0 by b.  In order of t, each
    column is compared with its flat image or with certified columns of
    lower total degree, so by induction every column that the products read
    is the coordinate vector of 𝔻v and αv.

    Membership: each row (k, (b, m, ws)) of a prefix-1 column of degree t
    is a basis label of degree t-1: a prefix-1 label certified at t-1, or
    b·(k, (1, m, ws)) with b a B-monomial, |b| >= 1, and (k, (1, m, ws))
    certified at t-1-|b|.  This fixes the component, the W-monomials m and
    w_i != 1, and the degree.  The flat comparison would miss a row whose
    flat element is zero, such as one with a factor w_i = 1.

    Flat: n <= 1.  The column of v = (n, (1, m, ws)), expanded over the
    flat basis elements of degree t-1, must be exactly the flat
    𝔻v = ∂v + 𝔇v, and its α column exactly α(v); the flat elements of its
    rows are built when a column of the degree first needs them.  The
    expansion is injective, so then the column is the coordinate vector of
    its image.

    Tail lemma: n >= 2 (`tail_image`).  Let X = ι_{n-1}(1, m, ws[:-1]), of
    degree |X| = |m| + Σ_{j<n} |w_j|, and w = w_n.  Then:
    - ι_n(1, m, ws) = concat_B(X, δ(w)), and concat_B(ι_{k}(λ), δ(w)) is the
      basis element of λ with w appended, for every label λ of any k;
    - the flat differential d obeys the slotwise Leibniz rule over concat_B,
      d·concat_B(Y, Z) = concat_B(dY, Z) + (-1)^{|Y|}·concat_B(Y, dZ), and
      d(δ(w)) = δ(dw);
    - δ(a·e) = a·δ(e) for a in A, and δ vanishes on A;
    - concat_B(X, a·Z) = concat_B(X·a, Z), and moving a from the last slot
      of X to slot 0 costs (-1)^{|a||X|}; as the prefix of X is 1,
      a·X = ι_{n-1}(a, m, ws[:-1]);
    - 𝔇 = merge_at(·, 0) commutes with ⊗_B-concatenation on the right of a
      word of length >= 3, and X has n + 1 >= 3 slots.
    With ∂ = (-1)^k·d on component k this gives
        ∂ι_n = -concat_B(∂X, δw) + (-1)^{n+|X|}·concat_B(X, δ(dw)),
        𝔇ι_n = concat_B(𝔇X, δw),
    and concat_B(X, δ(dw)) = Σ c·(-1)^{|a||X|}·ι_n(a, m, ws[:-1] + (e,)) over
    the terms c·a·e of dw with e != 1.  The certified column of (1, (1, 1,
    (w,))) holds these terms: ∂ι_1(1, 1, (w,)) = -(1 ⊗ δ(dw)), so its rows in
    component 1 are (1, (a, 1, (e,))) with the coefficient -c.  So the
    column of ι_n is -(the ∂ rows of the head column (n - 1, (1, m,
    ws[:-1])), w appended) + (its 𝔇 rows, w appended) + the term
    (-1)^{n+|X|+|a||X|+1}·c at (n, (a, m, ws[:-1] + (e,))) for each row
    (1, (a, 1, (e,))) of the last column with coefficient c.  α vanishes on
    n >= 1.  Both columns used have lower total degree than t, as every
    |w_j| >= 1, and lie in the window.

    Prefix lemma: b != 1 (`prefix_image`), from the certified columns of
    (n, (1, m, ws)), of lower total degree; the image must also equal
    `dd_column` and `pi_column` on the label:
    - ι_n(b, m, ws) = b·ι_n(1, m, ws), as b is the whole of slot 0;
    - b·ι(b', m', ws') = s·ι(bb', m', ws') with (s, bb') = mono_mul(b, b'),
      and 0 when the product vanishes;
    - the flat ∂ on component n is (-1)^n times the slotwise Leibniz rule, in
      which slot 0 comes first, and 𝔇 = merge_at(·, 0) is left linear, so for
      X in component n
          𝔻(b·X) = (-1)^n·(db)·X + (-1)^{|b|}·b·∂X + b·𝔇X;
      ∂X lies in component n and 𝔇X in n - 1, so the column of 𝔻X is signed
      row by row by its component;
    - α = π_B on component 0 is left linear: α(b·X) = b·α(X).
    The h-images with b != 1 and the σ-labels (0, (b, 1, ())) that the
    identities read are certified the same way.

    Product lemma: the checks read only the prefix-1 columns X = (n, (1, m,
    ws)), plus d^B∘d^B = 0.  Every label is b·X for such an X, of total
    degree lower by |b| >= 1 when b != 1.  Applying the prefix lemma twice,
    the (db) terms cancel, as ∂ keeps the component and 𝔇 lowers it by one:
        𝔻²(bX) = (d²b)·X + b·∂²X + (-1)^{|b|}·b·(∂𝔇 + 𝔇∂)X + b·𝔇²X.
    As α(b·Y) = b·α(Y), α vanishes off component 0 and d^B is a derivation,
        (α𝔻 − d^Bα)(bX) = ±b·(α𝔻 − d^Bα)X,
    with + for n = 1 and (-1)^{|b|} for n = 0.  As h and σα commute with b·
    on the labels (h(b, m, ws) = (b, 1, (m,) + ws) copies b),
        (𝔻h + h𝔻 + σα − id)(bX) = (-1)^{|b|}·b·(∂h + h∂)X + b·(𝔇h + h𝔇 + σα − id)X.
    The parts of 𝔻²X lie in the components n, n - 1 and n - 2, and
    (∂h + h∂)X in n + 1 against n for the rest, so each part vanishes when
    the identity holds at X.  Hence each identity holds on every column of
    the window once it holds on its prefix-1 columns (and d² = 0 on B for
    𝔻²).  Conversely the prefix-1 columns are columns, and 𝔻²(b·σ(1)) =
    (0, (d²b, 1, ())), as b·σ(1) = (0, (b, 1, ())) and 𝔻σ(1) = 0.  So each
    check passes exactly when the full check passes.  A failure at bX with
    b != 1 gives one at X, of lower total degree, so at the lowest failing
    total degree only prefix-1 columns fail, and the first failing label is
    the same.

    d = 0: then ∂ = 0, so 𝔻 = 𝔇 and `dd_column` is `dbar_column` moved to
    component n - 1, and α = π on component 0.  Neither d̄, nor h, σ or π
    reads d, so (𝔹, 𝔻) of B with d forgotten is the augmented reduced bar
    resolution B ← C_0 ← C_1 ← ... of B on the same labels, C_n being
    component n, and 𝔻h + h𝔻 + σα = id is d̄_{n+1}h_n + h_{n−1}d̄_n = id on
    C_n (h_{−1} = σ; the σπ term is the σα of C_0).  Its identity defect at
    bX is then exactly b·(the defect at X), as d̄, h, σ and π are left
    B-linear with no sign: as b· is injective on the labels it does not
    kill, bX fails exactly when b·b' != 0 for some row (k, (b', m', ws')) of
    X's defect.  The labels h sends outside the window go along, b·λ being
    outside whenever λ is.
    """
    f, one = alg.field, alg.one_mono
    p = f.p

    def nonzero(acc: dict) -> dict:
        return {k: x for k, x in acc.items() if (x % p if p is not None else x)}

    def apply(acc: dict, col: dict, c):
        """acc += c·col, summed in plain ints or Fractions and reduced by `nonzero`."""
        for r, x in col.items():
            acc[r] = acc.get(r, 0) + c * x

    done: list[dict] = []  # per total degree: certified prefix-1 label -> (𝔻 column, α column)
    same = {}.setdefault  # one object per row label, as the collector walks every tuple kept
    prefixes: set = set()  # the B-monomials of degrees 1..t
    square = anti = chain = True
    defects: list = []
    for t in range(max(n + top for n, top in enumerate(tops)) + 1):
        extra: dict = {t - 1: {}, t: {}}  # per degree: labels with b != 1, certified on first use
        flat: dict = {}  # label -> its flat element, built on first use in this degree
        prefixes.update(alg.basis("B", t) if t else ())

        def certified(label, d):
            """The certified columns of a label of degree d: None when it is no label of degree
            d, False when the prefix lemma and the closed forms disagree on it."""
            got = done[d].get(label) or extra[d].get(label)
            if got is None:
                k, (b, m, ws) = label
                head = done[d - b.degree].get((k, (one, m, ws))) if b in prefixes and b.degree <= d else None
                if head is not None:
                    got = prefix_image(alg, label, *head)
                    if got != (dd_column(alg, label), {} if k else pi_column(alg, label[1])):
                        return False
                    extra[d][label] = got
            return got

        def flat_of(label):
            te = flat.get(label)
            if te is None:
                te = flat[label] = prefixed_basis_element(alg, label[1])
            return te

        def identity(key, acc: dict, reads) -> bool:
            """Record key, with its defect, when acc plus c·(part of the certified column of
            λ) over reads (λ, c, d, part) is nonzero, or a λ is no label of degree d; False
            when a closed form is wrong."""
            outside = {}
            for label, c, d, part in reads:
                got = certified(label, d)
                if got is False:
                    return False
                if got is None:
                    outside[label] = c
                else:
                    apply(acc, got[part], c)
            bad = {**nonzero(acc), **outside}
            if bad:
                defects.append((key, bad))
            return True

        cols: dict = {}
        for n, top in enumerate(tops):
            for X in prefix_one_labels(alg, n, t - n) if 0 <= t - n <= top else ():
                dd, al = dd_column(alg, X), {} if n else pi_column(alg, X[1])
                rows = [certified(row, t - 1) for row in dd]
                if not all(rows):
                    return None
                if n >= 2:
                    _, m, ws = X[1]
                    w = ws[-1].degree
                    head = done[t - 1 - w].get((n - 1, (one, m, ws[:-1])))
                    last = done[1 + w].get((1, (one, one, ws[-1:])))
                    if head is None or last is None or dd != tail_image(alg, X, head[0], last[0]):
                        return None
                else:
                    comps: dict = {}
                    for lab, c in dd.items():
                        acc = comps.get(lab[0])
                        if acc is None:
                            acc = comps[lab[0]] = TensorElement(alg, lab[0] + 2)
                        for w, cw in flat_of(lab).terms.items():
                            add_term(f, acc.terms, w, f.mul(c, cw))
                    v = BBElement(alg, {n: flat_of(X)})
                    if BBElement(alg, comps) != DD(v) or al != alpha(v).terms:
                        return None
                cols[X] = {same(r, r): c for r, c in dd.items()}, al
                sq: dict = {}  # 𝔻²X
                ch: dict = {}  # α𝔻X − d^BαX
                for (dd_r, al_r), c in zip(rows, dd.values()):
                    apply(sq, dd_r, c)
                    apply(ch, al_r, c)
                for mm, a in al.items():
                    apply(ch, alg.diff_mono(mm).terms, -a)
                sq = nonzero(sq)
                square = square and not sq
                anti = anti and all(r[0] != n - 1 for r in sq)
                chain = chain and not nonzero(ch)
        done.append(cols)
        if 2 <= t <= tops[0]:
            square = square and dB_matrix(alg, t - 1).compose(dB_matrix(alg, t)).is_zero()
        for X, (dd, al) in done[t - 1].items() if t else ():  # 𝔻h + h𝔻 + σα = id at X, of degree t-1
            n = X[0]
            if n + 1 < len(tops) and t - 1 - n <= tops[n + 1]:
                acc = {X: -1}
                for (k, lb), c in dd.items():
                    for lb2, c2 in homotopy(alg, lb).items():
                        acc[(k + 1, lb2)] = acc.get((k + 1, lb2), 0) + c * c2
                for b, c in al.items():
                    for lb, c2 in section(alg, b).items():
                        acc[(0, lb)] = acc.get((0, lb), 0) + c * c2
                if not identity(X, acc, [((n + 1, lb), c, t, 0) for lb, c in homotopy(alg, X[1]).items()]):
                    return None
        if len(tops) > 1 and 1 <= t <= tops[1] + 1:  # α∘σ = id on B in degree t-1
            for b in alg.basis("B", t - 1):
                if not identity(b, {b: -1}, [((0, lb), c, t - 1, 1) for lb, c in section(alg, b).items()]):
                    return None
    return square, anti, chain, defects


def homology_dims(alg: DGAlgebra, D: int) -> HomologyTable:
    """H(B, d^B) in degrees 0..D-1 (the window rule), from the ranks of d^B.

    Degree m has dim B_m − rank d^B_m cycles and rank d^B_{m+1} boundaries.
    """
    if D < 1:
        raise WindowIncomplete("need D >= 1")
    table = HomologyTable()
    for m in range(D):
        out_of, into = dB_matrix(alg, m), dB_matrix(alg, m + 1)
        table.add(m, out_of.ncols - out_of.rank(), into.rank())
    return table


def reduced_bar_table(alg: DGAlgebra, D: int) -> HomologyTable:
    """H of the augmented reduced bar complex B ← C_0 ← ... ← C_d in degrees 0..D-1, from dimensions.

    Sound once `bar.certify_reduced_bar` finds no defect and d̄² = 0
    through D-1 (π∘d̄_1 = 0 then too: d̄_1 = d̄_1(d̄_2h_1 + h_0d̄_1) =
    (id − σπ)d̄_1, and σ is injective).  The complex is exact, so rank π =
    dim B_d, rank d̄_n = dim C_{n−1} − rank d̄_{n−1}, and the cycles and the
    boundaries both number Σ_n rank d̄_n, with d̄_0 = π.  dim C_n is
    `prefixed_basis_dim`, counted with no label or δ-word listed.
    """
    table = HomologyTable()
    for d in range(D):
        dims = [len(alg.basis("B", d))] + [prefixed_basis_dim(alg, n, d) for n in range(d)]
        rank = sum(accumulate(dims, lambda r, dim: dim - r))
        table.add(d, rank, rank)
    return table


def bb_homology_table(alg: DGAlgebra, D: int) -> HomologyTable:
    """H(𝔹, 𝔻) in total degrees 0..D-1, from dimensions and the ranks of d^B.

    Sound once `quasi_iso_check` holds: 𝔹 is then the direct sum of the
    subcomplexes σ(B) ≅ B and K = ker α, which h contracts (αh = 0).  So
    rank 𝔻_m = rank d^B_m + r_m, with r_0 = 0 and, K being exact,
    r_{m+1} = dim K_m − r_m = dim 𝔹_m − dim B_m − r_m.  dim 𝔹_m is the sum
    over the components n of `prefixed_basis_dim`; no label is listed.
    """
    dims = [sum(prefixed_basis_dim(alg, n, m - n) for n in range(m // 2 + 1)) for m in range(D + 1)]
    r = [0]
    for m in range(D):
        r.append(dims[m] - len(alg.basis("B", m)) - r[m])
    ranks = [dB_matrix(alg, m).rank() + r[m] for m in range(D + 1)]
    table = HomologyTable()
    for m in range(D):
        table.add(m, dims[m] - ranks[m], ranks[m + 1])
    return table


class QuasiIsoReport:
    """The verdict of `quasi_iso_check`; `details` names its first failure."""

    def __init__(self, passed: bool, rows: list, window: str, details: str = "",
                 checks: dict | None = None, table: HomologyTable | None = None):
        self.passed = passed
        self.rows = rows  # (degree, dim H(BB), dim H(B), induced rank)
        self.window = window
        self.details = details
        self.checks = {} if checks is None else checks  # report name -> verdict, once the columns are checked
        self.table = table  # H(𝔹, 𝔻), when passed


def quasi_iso_check(alg: DGAlgebra, D: int) -> QuasiIsoReport:
    """α: (𝔹, 𝔻) → (B, d^B) is a homotopy equivalence through degree D-1.

    The certificate of `semifree` and `homology`: `certify_contraction` on
    the labels of total degree <= D checks every column the products read,
    𝔻² = 0 and α∘𝔻 = d^B∘α through D, and 𝔻h + h𝔻 + σα = id and α∘σ = id
    through D-1, on the prefix-1 columns (its product lemma).  Then σ is a
    chain map: composing the identity with 𝔻 on either side and using
    𝔻² = 0 gives 𝔻σα = 𝔻 − 𝔻h𝔻 = σα𝔻 = σd^Bα, and composing with σ on the
    right, α∘σ = id gives 𝔻σ = σd^B.  So α and σ are inverse homotopy
    equivalences and H(α) is an isomorphism: the "induced rank" is dim H(B).
    No rank of 𝔻 is taken; the H(𝔹) table is `bb_homology_table`.  The
    first failing label of the identities, in order of total degree, is a
    prefix-1 column or a monomial of B.
    """
    window = _window(D)
    cert = certify_contraction(alg, tuple(D - n for n in range(D + 1)))
    if cert is None:
        return QuasiIsoReport(False, [], window, BAD_COLUMNS)
    square, anti, chain, defects = cert
    checks = {"DD-squared-zero": square, "anticommutation": anti, "alpha-chain-map": chain}
    if not (square and chain):
        return QuasiIsoReport(False, [], window, "DD squared is not zero, or alpha is not a chain map", checks)
    if defects:
        return QuasiIsoReport(False, [], window, defect_details(alg, defects[0][0]), checks)
    tb, tbb = homology_dims(alg, D), bb_homology_table(alg, D)
    rows = [(m, tbb.homology(m), tb.homology(m), tb.homology(m)) for m in range(D)]
    return QuasiIsoReport(True, rows, window, "", checks, tbb)
