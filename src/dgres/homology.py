"""Homology tables and the quasi-isomorphism verdict for the resolutions.

All claims are window-annotated: a homology dimension at degree m is sound
only when the differentials into and out of the slice are fully enumerated,
which needs basis data through degree m+1.  The tables therefore only
report degrees <= D-1 when built through D.  The tables of the reduced bar
and of (𝔹, 𝔻) follow from dimensions once `semifree.homotopy` contracts them.
"""

from __future__ import annotations

from itertools import accumulate

from .algebra import DGAlgebra, add_term
from .errors import DgresError, WindowIncomplete
from .linalg import SliceMatrix, identity_defect
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

    def __init__(self, entries: dict | None = None, window: str = ""):
        self.entries = {} if entries is None else entries
        self.window = window

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


def bb_column(alg: DGAlgebra, label) -> tuple[dict, dict]:
    """The 𝔻 and α columns of one label, memoised per algebra: `dd_column` and
    `pi_column` for (n, (1, m, ws)), else `prefix_image` of the columns of
    (n, (1, m, ws)).  Equal row labels are stored as one object, as the
    collector walks every tuple that holds a monomial.
    """
    return _memo(alg, "bb_columns", label, _bb_column, alg, label)


def _bb_column(alg: DGAlgebra, label) -> tuple[dict, dict]:
    n, (b, m, ws) = label
    if b == alg.one_mono:
        dd, al = dd_column(alg, label), ({} if n else pi_column(alg, label[1]))
    else:
        dd, al = prefix_image(alg, label, *bb_column(alg, (n, (alg.one_mono, m, ws))))
    same = alg._memo_tables["bb_labels"].setdefault
    return {same(row, row): c for row, c in dd.items()}, al


def bb_dd_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of 𝔻 on the prefix-1 labels of total degree t (`prefix_one_labels`); cached per algebra.

    Its rows are the prefix-1 labels of degree t-1, then the labels with
    b != 1 that the columns hit, in the order first hit: the left factor of
    a product needs only these (`dd_square`).
    """
    cols = prefix_one_labels(alg, total_degree)
    return _memo(alg, "dd_matrix", total_degree, lambda: SliceMatrix.from_columns(
        alg.field, prefix_one_labels(alg, total_degree - 1), cols, (bb_column(alg, lb)[0] for lb in cols)))


def bb_alpha_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of the augmentation α from the prefix-1 labels of 𝔹 to the B slice; cached per algebra.

    On the labels α(0, λ) = π(λ) (`semifree.pi_column`), and α is zero on
    every component n >= 1.
    """
    cols = prefix_one_labels(alg, total_degree)
    return _memo(alg, "alpha_matrix", total_degree, lambda: SliceMatrix.from_columns(
        alg.field, alg.basis("B", total_degree), cols, (bb_column(alg, lb)[1] for lb in cols)))


def prefix_image(alg: DGAlgebra, label, dd_col: dict, alpha_col: dict) -> tuple[dict, dict]:
    """The 𝔻 and α columns of label = (n, (b, m, ws)) by the prefix lemma of
    `checked_dd_columns`, from the columns dd_col and alpha_col of (n, (1, m, ws))."""
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
    `checked_dd_columns`, from the 𝔻 columns head_col of (n - 1, (1, m, ws[:-1]))
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


def checked_dd_columns(alg: DGAlgebra, D: int) -> bool:
    """Every column of 𝔻 and α that a product reads, through total degree D, is right.

    Write ι_n(b, m, ws) for the flat basis element of the label (n, (b, m, ws))
    and b· for left multiplication of slot 0 by b.  The columns of
    `bb_column` are checked on the prefix-1 labels (n, (1, m, ws)) of total
    degree t <= D, on the labels with b != 1 that their 𝔻 columns hit (the
    rows of `bb_dd_matrix`) and on the σ-labels (0, (b, 1, ())).  In order of
    t, each is compared with its flat image or with certified columns of
    lower total degree, so by induction every column that the products of
    `quasi_iso_check` read is the coordinate vector of 𝔻v and αv.

    Membership: each row (k, (b, m, ws)) of a prefix-1 column of degree t is
    a basis label of degree t-1: a prefix-1 label certified at t-1, or
    b·(k, (1, m, ws)) with b a B-monomial, |b| >= 1, and (k, (1, m, ws))
    certified at t-1-|b|.  This fixes the component, the W-monomials m and
    w_i != 1, and the degree.  The flat comparison would miss a row whose
    flat element is zero, such as one with a factor w_i = 1.

    Flat: prefix 1 and n <= 1.  The column of v = (n, (1, m, ws)), expanded
    over the flat basis elements of degree t-1, must be exactly the flat
    𝔻v = ∂v + 𝔇v, and its α column exactly α(v); the flat elements of its
    rows are built when a column first needs them.  The expansion is
    injective, so then the column is the coordinate vector of its image.

    Tail lemma: prefix 1 and n >= 2 (`tail_image`).  Let X = ι_{n-1}(1, m,
    ws[:-1]), of degree |X| = |m| + Σ_{j<n} |w_j|, and w = w_n.  Then:
    - ι_n(1, m, ws) = concat_B(X, δ(w)), and concat_B(ι_{k}(λ), δ(w)) is the
      basis element of λ with w appended, for every label λ of any k;
    - the flat differential d obeys the slotwise Leibniz rule over concat_B,
      d·concat_B(Y, Z) = concat_B(dY, Z) + (-1)^{|Y|}·concat_B(Y, dZ), and
      d(δ(w)) = δ(dw);
    - δ(a·e) = a·δ(e) for a in A, and δ vanishes on A;
    - concat_B(X, a·Z) = concat_B(X·a, Z), and moving a from the last slot
      of X to slot 0 costs (-1)^{|a||X|}; as the prefix of X is 1,
      a·X = ι_{n-1}(a, m, ws[:-1]);
    - 𝔇 = merge_at(·, 0) commutes with right concatenation, as in the head
      lemma of `bar.certify_reduced_bar` (X has n + 1 >= 3 slots).
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
    n >= 1, so the α column must be empty.  Both columns used have lower
    total degree than t: t >= n + (n - 1) + |w|, as every |w_j| >= 1.

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
    """
    f = alg.field
    one = alg.one_mono
    flat: dict = {}  # label -> its flat component, built on first use
    certified: list[set] = [set() for _ in range(D + 1)]  # per total degree: the labels whose `bb_column` is checked

    def flat_of(label):
        te = flat.get(label)
        if te is None:
            te = flat[label] = prefixed_basis_element(alg, label[1])
        return te

    prefixes = {b for d in range(1, D + 1) for b in alg.basis("B", d)}

    def in_basis(row, t) -> bool:
        """row is a certified label of total degree t; a label b·X, b != 1, is certified on first use."""
        if row in certified[t]:
            return True
        k, (b, m, ws) = row
        if b not in prefixes or b.degree > t or (k, (one, m, ws)) not in certified[t - b.degree]:
            return False
        if bb_column(alg, row) != (dd_column(alg, row), {} if k else pi_column(alg, row[1])):
            return False
        certified[t].add(row)
        return True

    for t in range(D + 1):
        for label in prefix_one_labels(alg, t):
            dd_col, alpha_col = bb_column(alg, label)
            if not all(t and in_basis(row, t - 1) for row in dd_col):
                return False
            n, (_, m, ws) = label
            if n >= 2:
                w, head, last = ws[-1].degree, (n - 1, (one, m, ws[:-1])), (1, (one, one, ws[-1:]))
                if (head not in certified[t - 1 - w] or last not in certified[1 + w] or alpha_col
                        or dd_col != tail_image(alg, label, bb_column(alg, head)[0], bb_column(alg, last)[0])):
                    return False
            else:
                v = BBElement(alg, {n: flat_of(label)})
                comps: dict = {}
                for lab, c in dd_col.items():
                    k = lab[0]
                    acc = comps.get(k)
                    if acc is None:
                        acc = comps[k] = TensorElement(alg, k + 2)
                    for w, cw in flat_of(lab).terms.items():
                        add_term(f, acc.terms, w, f.mul(c, cw))
                if BBElement(alg, comps) != DD(v) or alpha_col != alpha(v).terms:
                    return False
            certified[t].add(label)
        if not all(in_basis((0, (b, one, ())), t) for b in alg.basis("B", t)):  # the σ-labels
            return False
    return True


def dd_square(alg: DGAlgebra, total_degree: int) -> tuple[bool, bool]:
    """(𝔻² = 0, 𝔇∂ + ∂𝔇 = 0) on the prefix-1 columns of one total degree t.

    Read off 𝔻_{t-1}∘𝔻_t on the columns (n, (1, m, ws)) of `bb_dd_matrix`,
    with the left factor 𝔻_{t-1} on the rows they hit only (`bb_column`):
    ∂ keeps the word length n and 𝔇 lowers it by one, so the entries of the
    product one component below their column are ∂𝔇 + 𝔇∂; the others are
    ∂² (same component) and 𝔇² (two below).  The first verdict also needs
    d^B_{t-1}∘d^B_t = 0.  Over t = 2..D both verdicts hold exactly when
    they hold on every column of 𝔻_{t-1}∘𝔻_t (the product lemma of
    `quasi_iso_check`).
    """
    M = bb_dd_matrix(alg, total_degree)
    rows = M.row_labels
    P = SliceMatrix.from_columns(alg.field, (), rows, (bb_column(alg, lb)[0] for lb in rows)).compose(M)
    anti = all(P.row_labels[i][0] != P.col_labels[j][0] - 1 for i, j in P.entries)
    dB_square = dB_matrix(alg, total_degree - 1).compose(dB_matrix(alg, total_degree))
    return P.is_zero() and dB_square.is_zero(), anti


def alpha_chain_map(alg: DGAlgebra, total_degree: int) -> bool:
    """α_{t-1}∘𝔻_t = d^B_t∘α_t on the prefix-1 columns of one total degree t.

    The left factor α_{t-1} is taken on the rows of `bb_dd_matrix` only.
    Over t = 1..D this holds exactly when it holds on every column (the
    product lemma of `quasi_iso_check`).
    """
    M = bb_dd_matrix(alg, total_degree)
    rows = M.row_labels
    lhs = SliceMatrix.from_columns(alg.field, alg.basis("B", total_degree - 1), rows,
                                   (bb_column(alg, lb)[1] for lb in rows)).compose(M)
    rhs = dB_matrix(alg, total_degree).compose(bb_alpha_matrix(alg, total_degree))
    return lhs.entries == rhs.entries


def homology_dims(alg: DGAlgebra, D: int) -> HomologyTable:
    """H(B, d^B) in degrees 0..D-1 (the window rule), from the ranks of d^B.

    Degree m has dim B_m − rank d^B_m cycles and rank d^B_{m+1} boundaries.
    """
    if D < 1:
        raise WindowIncomplete("need D >= 1")
    table = HomologyTable(window=_window(D))
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
    table = HomologyTable(window=_window(D))
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
    table = HomologyTable(window=_window(D))
    for m in range(D):
        table.add(m, dims[m] - ranks[m], ranks[m + 1])
    return table


def bb_homotopy_defect(alg: DGAlgebra, top: int):
    """The first label at which 𝔻h + h𝔻 + σα = id or α∘σ = id fails in total degrees 0..top, or None.

    h(n, λ) = (n + 1, hλ) and σ(b) = (0, σb) (`semifree.homotopy`,
    `semifree.section`).  The 𝔹 identity is taken on the prefix-1 columns
    of `bb_dd_matrix` only, so h𝔻 needs h on its rows only: by the product
    lemma of `quasi_iso_check` it then holds on every column, and its first
    failing label is the same.  α∘σ needs α on the σ-labels only (`bb_column`).
    """
    f = alg.field

    def h(label):
        return {(label[0] + 1, lb): c for lb, c in homotopy(alg, label[1]).items()}

    for t in range(top + 1):
        B, M1, up1 = alg.basis("B", t), bb_dd_matrix(alg, t), bb_dd_matrix(alg, t + 1)
        sig = [{(0, lb): c for lb, c in section(alg, b).items()} for b in B]
        # h keeps the prefix: 𝔻h needs only the prefix-1 columns of 𝔻_{t+1}, a label sent elsewhere fails;
        # `from_columns` appends new rows, so up1's rows begin g's and g's begin sigma's (`identity_defects`)
        h1 = SliceMatrix.from_columns(f, up1.col_labels, M1.col_labels, (h(v) for v in M1.col_labels))
        g = SliceMatrix.from_columns(f, up1.row_labels, M1.row_labels, (h(v) for v in M1.row_labels))
        sigma = SliceMatrix.from_columns(f, g.row_labels, B, sig)
        j = identity_defect([(up1, h1), (g, M1), (sigma, bb_alpha_matrix(alg, t))])
        if j is not None:
            return M1.col_labels[j]
        sigma = SliceMatrix.from_columns(f, (), B, sig)
        labels = sigma.row_labels
        j = identity_defect([(SliceMatrix.from_columns(f, B, labels, (bb_column(alg, lb)[1] for lb in labels)), sigma)])
        if j is not None:
            return B[j]
    return None


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

    The certificate of `semifree` and `homology`, read off 𝔻 and α on the
    prefix-1 columns through total degree D and on the rows they hit:
    - each such column is checked (`checked_dd_columns`): its rows are basis
      labels, prefix 1 against the flat 𝔻v and αv (n <= 1) or the tail lemma
      (n >= 2), b != 1 and the σ-labels by the prefix lemma and both closed forms;
    - 𝔻² = 0 (`dd_square`) and α∘𝔻 = d^B∘α (`alpha_chain_map`);
    - 𝔻h + h𝔻 + σα = id and α∘σ = id through degree D-1 (`bb_homotopy_defect`).
    Then σ is a chain map: composing the identity with 𝔻 on either side and
    using 𝔻² = 0 gives 𝔻σα = 𝔻 − 𝔻h𝔻 = σα𝔻 = σd^Bα, and composing with σ on
    the right, α∘σ = id gives 𝔻σ = σd^B.  So α and σ are inverse homotopy
    equivalences and H(α) is an isomorphism: the "induced rank" is dim H(B).
    No rank of 𝔻 is taken; the H(𝔹) table is `bb_homology_table`.

    Product lemma: the three product checks need only the right factors'
    columns X = (n, (1, m, ws)), plus d^B_{t-1}∘d^B_t = 0 for t <= D.  Every
    label is b·X for such an X, of total degree lower by |b| >= 1 when
    b != 1 (`checked_dd_columns`), and 𝔻(b·Y) = (-1)^k·(db)·Y +
    (-1)^{|b|}·b·∂Y + b·𝔇Y for Y in component k.  Applying this twice, the
    (db) terms cancel, as ∂ keeps the component and 𝔇 lowers it by one:
        𝔻²(bX) = (d²b)·X + b·∂²X + (-1)^{|b|}·b·(∂𝔇 + 𝔇∂)X + b·𝔇²X.
    As α(b·Y) = b·α(Y), α vanishes off component 0 and d^B is a derivation,
        (α𝔻 − d^Bα)(bX) = ±b·(α𝔻 − d^Bα)X,
    with + for n = 1 and (-1)^{|b|} for n = 0.  As h and σα commute with b·
    on the labels,
        (𝔻h + h𝔻 + σα − id)(bX) = (-1)^{|b|}·b·(∂h + h∂)X + b·(𝔇h + h𝔇 + σα − id)X.
    The parts of 𝔻²X lie in the components n, n - 1 and n - 2, and
    (∂h + h∂)X in n + 1 against n for the rest, so each part vanishes when
    the identity holds at X.  Hence each identity holds on every column once
    it holds on the prefix-1 columns (and d² = 0 on B for 𝔻²).  Conversely
    the prefix-1 columns are columns, and 𝔻²(b·σ(1)) = (0, (d²b, 1, ())),
    as b·σ(1) = (0, (b, 1, ())) and 𝔻σ(1) = 0.  So each check passes exactly
    when the full check passes.  A failure at bX with b != 1 gives one at
    X, of lower total degree, so at the lowest failing total degree only
    prefix-1 columns fail, and the first failing label is the same.
    """
    window = _window(D)
    if not checked_dd_columns(alg, D):
        return QuasiIsoReport(False, [], window, BAD_COLUMNS)
    squares = [dd_square(alg, t) for t in range(2, D + 1)]  # 𝔻_0 and 𝔻_1 land in degrees with nothing below
    checks = {"DD-squared-zero": all(s for s, _ in squares), "anticommutation": all(a for _, a in squares),
              "alpha-chain-map": all(alpha_chain_map(alg, t) for t in range(1, D + 1))}
    if not (checks["DD-squared-zero"] and checks["alpha-chain-map"]):
        return QuasiIsoReport(False, [], window, "DD squared is not zero, or alpha is not a chain map", checks)
    details = defect_details(alg, bb_homotopy_defect(alg, D - 1))
    if details:
        return QuasiIsoReport(False, [], window, details, checks)
    tb, tbb = homology_dims(alg, D), bb_homology_table(alg, D)
    rows = [(m, tbb.homology(m), tb.homology(m), tb.homology(m)) for m in range(D)]
    return QuasiIsoReport(True, rows, window, "", checks, tbb)
