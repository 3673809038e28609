"""Homology tables and the quasi-isomorphism verdict for the resolutions.

All claims are window-annotated: a homology dimension at degree m is sound
only when the differentials into and out of the slice are fully enumerated,
which needs basis data through degree m+1.  `homology_dims` therefore only
reports degrees <= D-1 when built through D.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import DGAlgebra
from .bar import augmented_reduced_bar
from .errors import DgresError, WindowIncomplete
from .linalg import SliceMatrix
from .semifree import DD, BBElement, alpha, bb_total_basis, dd_column
from .tensor import TensorElement, _caches, prefixed_basis_element


@dataclass
class HomologyTable:
    """degree -> (dim cycles, dim boundaries, dim homology)."""

    entries: dict = dc_field(default_factory=dict)
    window: str = ""

    def add(self, degree: int, cycles: int, boundaries: int):
        if boundaries > cycles:
            raise DgresError("boundaries exceed cycles; inconsistent ranks")
        self.entries[degree] = (cycles, boundaries, cycles - boundaries)

    def homology(self, degree: int) -> int:
        return self.entries[degree][2]

    def rows(self):
        return [(d,) + self.entries[d] for d in sorted(self.entries)]


def dB_matrix(alg: DGAlgebra, degree: int) -> SliceMatrix:
    """Matrix of d^B from the degree slice to the one below."""
    src = alg.basis("B", degree)
    return SliceMatrix.from_columns(alg.field, alg.basis("B", degree - 1), src,
                                    (alg.diff_mono(m).terms for m in src))


def bb_dd_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of 𝔻 from total degree t to t-1, over the stored 𝔹 bases.

    Columns come from the closed form `dd_column`; `checked_dd_columns`
    certifies them against the flat images 𝔻v, and rejects a column with a
    label outside the basis of total degree t-1 (an extra row).
    """
    cache = _caches(alg)["dd_matrix"]
    got = cache.get(total_degree)
    if got is None:
        src = bb_total_basis(alg, total_degree)
        got = cache[total_degree] = SliceMatrix.from_columns(
            alg.field, bb_total_basis(alg, total_degree - 1), src, (dd_column(alg, lab) for lab in src))
    return got


def checked_dd_columns(alg: DGAlgebra, D: int) -> bool:
    """Every column of `bb_dd_matrix` and `bb_alpha_matrix` in total degrees 0..D is right.

    For each stored basis element v, in the order of `bb_total_basis`, the
    𝔻 column expanded over the flat basis elements of degree t-1 must be
    exactly the flat 𝔻v = ∂v + 𝔇v, and the α column exactly α(v).  The
    expansion is injective, so then every column is the coordinate vector of
    its image, and products of the matrices, such as 𝔻_{t-1}∘𝔻_t and
    α_{t-1}∘𝔻_t, are exact statements about 𝔻 and α on every basis element.
    A 𝔻 column with a label outside the basis of degree t-1 fails.
    """
    f = alg.field
    prev: list = []  # (n, flat component) of the basis elements of degree t-1
    for t in range(D + 1):
        M = bb_dd_matrix(alg, t)
        if M.nrows != len(prev):
            return False
        A = bb_alpha_matrix(alg, t)
        dd_cols: list = [{} for _ in range(M.ncols)]
        for (i, j), c in M.entries.items():
            dd_cols[j][i] = c
        alpha_cols: list = [{} for _ in range(A.ncols)]
        for (i, j), c in A.entries.items():
            alpha_cols[j][A.row_labels[i]] = c
        cur = []
        for (n, lb), dd_col, alpha_col in zip(M.col_labels, dd_cols, alpha_cols):
            te = prefixed_basis_element(alg, lb)
            v = BBElement(alg, {n: te})
            comps: dict = {}
            for i, c in dd_col.items():
                k, tk = prev[i]
                acc = comps.get(k)
                if acc is None:
                    acc = comps[k] = TensorElement(alg, k + 2)
                for w, cw in tk.terms.items():
                    acc._add_canonical(w, f.mul(c, cw))
            if BBElement(alg, comps) != DD(v) or alpha_col != alpha(v).terms:
                return False
            cur.append((n, te))
        prev = cur
    return True


def dd_square(alg: DGAlgebra, total_degree: int) -> tuple[bool, bool]:
    """(𝔻² = 0, 𝔇∂ + ∂𝔇 = 0) on one total degree, read off 𝔻_{t-1}∘𝔻_t.

    ∂ keeps the word length n and 𝔇 lowers it by one, so the entries of the
    product one component below their column are ∂𝔇 + 𝔇∂; the others are
    ∂² (same component) and 𝔇² (two below).
    """
    P = bb_dd_matrix(alg, total_degree - 1).compose(bb_dd_matrix(alg, total_degree))
    anti = all(P.row_labels[i][0] != P.col_labels[j][0] - 1 for i, j in P.entries)
    return P.is_zero(), anti


def alpha_chain_map(alg: DGAlgebra, total_degree: int) -> bool:
    """α_{t-1}∘𝔻_t = d^B_t∘α_t on one total degree, read off the matrices."""
    lhs = bb_alpha_matrix(alg, total_degree - 1).compose(bb_dd_matrix(alg, total_degree))
    rhs = dB_matrix(alg, total_degree).compose(bb_alpha_matrix(alg, total_degree))
    return lhs.entries == rhs.entries


def bb_alpha_matrix(alg: DGAlgebra, total_degree: int) -> SliceMatrix:
    """Matrix of the augmentation α from the 𝔹 slice to the B slice.

    On the labels α(0, (b, m, ())) = ±b·m with the `mono_mul` sign (zero when
    the product vanishes), and α is zero on every component n >= 1.
    """
    src = bb_total_basis(alg, total_degree)
    products = (None if n else alg.mono_mul(b, m) for n, (b, m, _) in src)
    columns = ({} if sm is None else {sm[1]: alg.field.of_int(sm[0])} for sm in products)
    return SliceMatrix.from_columns(alg.field, alg.basis("B", total_degree), src, columns)


def homology_dims(alg: DGAlgebra, obj: str, D: int, max_n: int | None = None,
                  module=None) -> HomologyTable:
    """Per-degree homology dimensions of one of the built objects.

    obj = "B":            the algebra itself under d^B.
    obj = "semifree_BB":  (𝔹, 𝔻) under the total grading.
    obj = "reduced_bar":  the augmented reduced bar complex (0 when exact).
    obj = "barN_complex": the augmented complex N ⊗_B (𝐁, 𝐝) with the word
                          length capped at max_n; positions up to max_n - 1
                          are boundary-complete and included.  `module`
                          defaults to B itself.
    Degrees reported: 0 .. D-1 (the window rule).

    Each degree is a list of maps f_0, f_1, ..., f_k with f_i out of
    position i: the positions are the sources of f_0..f_{k-1}, so the cycles
    are Σ_{i<k} (dim - rank f_i) and the boundaries Σ_{i>0} rank f_i.  A
    bottom position of an augmented complex gets a zero map with no rows.
    """
    if D < 1:
        raise WindowIncomplete("need D >= 1")
    f = alg.field
    if obj == "B":
        complexes = ([dB_matrix(alg, m), dB_matrix(alg, m + 1)] for m in range(D))
    elif obj == "semifree_BB":
        complexes = ([bb_dd_matrix(alg, m), bb_dd_matrix(alg, m + 1)] for m in range(D))
    elif obj == "reduced_bar":
        # B <- C_0 <- ... <- C_d <- 0
        complexes = ([SliceMatrix(f, 0, len(alg.basis("B", d)))] + augmented_reduced_bar(alg, d)
                     + [SliceMatrix(f, 0, 0)] for d in range(D))
    elif obj == "barN_complex":
        if max_n is None:
            raise WindowIncomplete("the classical bar complex needs a word-length cap max_n")
        from .modules import SemifreeModule, dN_matrix, modtensor_basis

        N = module if module is not None else SemifreeModule(alg, [("gen", 0)])
        # N <- N ⊗ B^{⊗2} <- ...: position -1 is N itself, positions 0..max_n-1 follow
        complexes = ([SliceMatrix(f, 0, len(modtensor_basis(N, 1, d)))]
                     + [dN_matrix(N, L, d) for L in range(2, max_n + 3)] for d in range(D))
    else:
        raise DgresError(f"unknown homology object {obj!r}")
    table = HomologyTable(window=f"degrees 0..{D - 1} (built through {D})")
    for m, maps in enumerate(complexes):
        table.add(m, sum(M.ncols - M.rank() for M in maps[:-1]), sum(M.rank() for M in maps[1:]))
    return table


@dataclass
class QuasiIsoReport:
    passed: bool
    rows: list  # (degree, dim H(BB), dim H(B), induced rank)
    window: str


def quasi_iso_check(alg: DGAlgebra, D: int) -> QuasiIsoReport:
    """α induces an isomorphism H(𝔹, 𝔻) ≅ H(B) through degree D-1.

    Checks the dimension equality per degree and that H(α) has full rank.
    With Z the cycles of 𝔹_m, the rank of [[𝔻_m, 0], [α_m, d^B_{m+1}]] is
    rank 𝔻_m + dim(α(Z) + im d^B_{m+1}), so the induced rank of H(α) is
    that rank minus rank 𝔻_m and rank d^B_{m+1}; no cycle basis is needed.
    """
    rows = []
    ok = True
    f = alg.field
    tbb, tb = homology_dims(alg, "semifree_BB", D), homology_dims(alg, "B", D)
    for m in range(D):
        hBB, hB = tbb.homology(m), tb.homology(m)
        MBB_out = bb_dd_matrix(alg, m)
        MB_in = dB_matrix(alg, m + 1)
        r0, c0 = MBB_out.nrows, MBB_out.ncols
        block = SliceMatrix(f, r0 + MB_in.nrows, c0 + MB_in.ncols, dict(MBB_out.entries))
        for (i, j), v in bb_alpha_matrix(alg, m).entries.items():
            block.entries[(r0 + i, j)] = v
        for (i, j), v in MB_in.entries.items():
            block.entries[(r0 + i, c0 + j)] = v
        induced = block.rank() - MBB_out.rank() - MB_in.rank()
        rows.append((m, hBB, hB, induced))
        if not (hBB == hB == induced):
            ok = False
    return QuasiIsoReport(ok, rows, tb.window)

