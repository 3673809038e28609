"""Homology tables and the quasi-isomorphism verdict for the resolutions.

All claims are window-annotated: a homology dimension at degree m is sound
only when the differentials into and out of the slice are fully enumerated,
which needs basis data through degree m+1.  `homology_dims` therefore only
reports degrees <= D-1 when built through D.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import DGAlgebra
from .bar import augmentation_slice_matrix, bar_slice_matrix, reduced_slice_matrix
from .errors import DgresError, WindowIncomplete
from .linalg import SliceMatrix
from .semifree import BBElement, bb_total_basis, dd_column
from .tensor import TensorElement, prefixed_basis_element


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
    certifies them against the flat images ∂v and 𝔇v, and rejects a column
    with a label outside the basis of total degree t-1 (an extra row).
    """
    caches = getattr(alg, "_homology_caches", None)
    if caches is None:
        caches = {}
        alg._homology_caches = caches
    got = caches.get(("DD", total_degree))
    if got is not None:
        return got
    src = bb_total_basis(alg, total_degree)
    M = SliceMatrix.from_columns(alg.field, bb_total_basis(alg, total_degree - 1), src,
                                 (dd_column(alg, lab) for lab in src))
    caches[("DD", total_degree)] = M
    return M


def checked_dd_columns(alg: DGAlgebra, D: int, d_internal, d_bar):
    """Check every column of 𝔻 in total degrees 0..D against flat images.

    Yields (v, ∂v, 𝔇v, ok) for each stored basis element v, in the order of
    `bb_total_basis`, with ∂v = d_internal(v) and 𝔇v = d_bar(v) computed on
    flat elements.  ok says that the column of v in `bb_dd_matrix` expands
    over the flat basis elements of degree t-1 to exactly ∂v + 𝔇v.  That
    expansion is injective, so ok means the column is the coordinate vector
    of 𝔻v; once every column passes, products of the matrices, such as
    𝔻_{t-1}∘𝔻_t, are exact statements about 𝔻 on every basis element.
    """
    f = alg.field
    prev: list = []  # (n, flat component) of the basis elements of degree t-1
    for t in range(D + 1):
        M = bb_dd_matrix(alg, t)
        keys = sorted(M.entries, key=lambda ij: ij[1])  # column by column
        pos = 0
        cur = []
        for j, (n, lb) in enumerate(M.col_labels):
            te = prefixed_basis_element(alg, lb)
            v = BBElement(alg, {n: te})
            dv, fv = d_internal(v), d_bar(v)
            comps: dict = {}
            ok = True
            while pos < len(keys) and keys[pos][1] == j:
                i = keys[pos][0]
                c = M.entries[keys[pos]]
                pos += 1
                if i >= len(prev):  # a label outside the basis of degree t-1
                    ok = False
                    continue
                k, tk = prev[i]
                acc = comps.get(k)
                if acc is None:
                    acc = comps[k] = TensorElement(alg, k + 2)
                for w, cw in tk.terms.items():
                    acc._add_canonical(w, f.mul(c, cw))
            yield v, dv, fv, ok and BBElement(alg, comps) == dv + fv
            cur.append((n, te))
        prev = cur


def dd_square(alg: DGAlgebra, total_degree: int) -> tuple[bool, bool]:
    """(𝔻² = 0, 𝔇∂ + ∂𝔇 = 0) on one total degree, read off 𝔻_{t-1}∘𝔻_t.

    ∂ keeps the word length n and 𝔇 lowers it by one, so the entries of the
    product one component below their column are ∂𝔇 + 𝔇∂; the others are
    ∂² (same component) and 𝔇² (two below).
    """
    P = bb_dd_matrix(alg, total_degree - 1).compose(bb_dd_matrix(alg, total_degree))
    anti = all(P.row_labels[i][0] != P.col_labels[j][0] - 1 for i, j in P.entries)
    return P.is_zero(), anti


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
    """
    if D < 1:
        raise WindowIncomplete("need D >= 1")
    table = HomologyTable(window=f"degrees 0..{D - 1} (built through {D})")
    if obj == "B":
        for m in range(D):
            out = dB_matrix(alg, m)
            inc = dB_matrix(alg, m + 1)
            table.add(m, out.ncols - out.rank(), inc.rank())
        return table
    if obj == "semifree_BB":
        for m in range(D):
            out = bb_dd_matrix(alg, m)
            inc = bb_dd_matrix(alg, m + 1)
            table.add(m, out.ncols - out.rank(), inc.rank())
        return table
    if obj == "reduced_bar":
        for d in range(D):
            cycles = boundaries = 0
            n_top = d
            mats = {n: reduced_slice_matrix(alg, n, d) for n in range(1, n_top + 1)}
            aug = augmentation_slice_matrix(alg, d)
            dims = {n: (mats[n].ncols if n >= 1 else aug.ncols) for n in range(0, n_top + 1)}
            # augmented complex: ... -> C_1 -> C_0 -> B -> 0
            cycles += len(alg.basis("B", d)) + (dims[0] - aug.rank())
            boundaries += aug.rank() + (mats[1].rank() if 1 in mats else 0)
            for n in range(1, n_top + 1):
                cycles += dims[n] - mats[n].rank()
                boundaries += mats[n + 1].rank() if (n + 1) in mats else 0
            table.add(d, cycles, boundaries)
        return table
    if obj == "barN_complex":
        if max_n is None:
            raise WindowIncomplete("the classical bar complex needs a word-length cap max_n")
        from .modules import SemifreeModule, dN_matrix, modtensor_basis

        N = module if module is not None else SemifreeModule(alg, [("gen", 0)])
        for d in range(D):
            cycles = boundaries = 0
            mats = {L: dN_matrix(N, L, d) for L in range(2, max_n + 3)}
            cycles += len(modtensor_basis(N, 1, d))      # position -1: N itself
            boundaries += mats[2].rank()                  # image of 𝐝^N_{-1}
            for L in range(2, max_n + 2):                 # positions 0..max_n - 1
                cycles += mats[L].ncols - mats[L].rank()
                boundaries += mats[L + 1].rank()
            table.add(d, cycles, boundaries)
        return table
    raise DgresError(f"unknown homology object {obj!r}")


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
    for m in range(D):
        MBB_out = bb_dd_matrix(alg, m)
        MBB_in = bb_dd_matrix(alg, m + 1)
        hBB = (MBB_out.ncols - MBB_out.rank()) - MBB_in.rank()
        MB_out = dB_matrix(alg, m)
        MB_in = dB_matrix(alg, m + 1)
        hB = (MB_out.ncols - MB_out.rank()) - MB_in.rank()
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
    return QuasiIsoReport(ok, rows, f"degrees 0..{D - 1} (built through {D})")


def assemble_slice(alg: DGAlgebra, map_name: str, degree: int, n: int | None = None) -> SliceMatrix:
    """Matrix of a named map on the canonical bases of one degree slice."""
    if degree < 0:
        raise WindowIncomplete("negative degree")
    if map_name == "dB":
        return dB_matrix(alg, degree)
    if map_name == "pi_B":
        return augmentation_slice_matrix(alg, degree)
    if map_name == "bar":
        if n is None:
            raise DgresError("bar slice needs the word-length index n")
        return bar_slice_matrix(alg, n, degree)
    if map_name == "reduced":
        if n is None:
            raise DgresError("reduced slice needs the component index n")
        return reduced_slice_matrix(alg, n, degree)
    if map_name == "DD":
        return bb_dd_matrix(alg, degree)
    if map_name == "alpha":
        return bb_alpha_matrix(alg, degree)
    raise DgresError(f"unknown map {map_name!r}")
