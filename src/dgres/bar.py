"""Classical and reduced bar complexes over the enveloping algebra.

The classical bar complex lives on B^{⊗_A (n+2)} with the alternating sum of
slot merges as differential and "prepend 1" as contracting homotopy, so
`contracted_cycles` lists the cycles of a slice, ^2J among them, with no
elimination.  The reduced complex lives on B ⊗_A J^{⊗_B n}; in flat
coordinates its differential is exactly "merge slots 0 and 1", which
composes to zero precisely because π_B kills the leading δ-factor.  On the δ-labels
(b, m, ws) of its basis it is the two-term closed form
`semifree.dbar_column`, the same formula as the bar part 𝔇 of the
semifree resolution.  The reduced bar never reads d, so it is (𝔹, 𝔻) of B
with d forgotten, and `certify_reduced_bar` is the one certificate of
(𝔹, 𝔻), `homology.certify_contraction`, on that algebra and the labels
with n <= 2; every check on longer words follows from them.
"""

from __future__ import annotations

from .algebra import AlgElement, DGAlgebra, add_term
from .errors import LengthMismatch, NotInDomain, NotInJn, NotLinear, ObstructionNonzero
from .homology import certify_contraction
from .linalg import SliceMatrix
from .report import ValidationReport
from .semifree import _add_to, defect_details
from .tensor import (
    TensorElement,
    _delta_factors,
    as_algebra_element,
    concat_B,
    delta,
    delta_coords,
    delta_word,
    from_algebra_element,
    left_mult,
    merge_at,
    pi_B,
    prefixed_basis_dim,
    right_mult,
    tensor_basis,
    tensor_differential,
)

# -- classical bar complex ----------------------------------------------------


def bar_differential(t: TensorElement, n: int) -> TensorElement:
    """Alternating sum Σ_i (-1)^i merge_at(t, i) of adjacent-slot merges; word length n+2 -> n+1.

    One pass over the terms: each merge of a canonical word is canonical, and
    goes into the output with its `mono_mul` sign times (-1)^i.
    """
    if t.length != n + 2:
        raise LengthMismatch(f"expected word length {n + 2}, got {t.length}")
    alg = t.alg
    f = alg.field
    out = TensorElement(alg, n + 1)
    for w, c in t.terms.items():
        neg = f.neg(c)
        for i in range(n + 1):
            sm = alg.mono_mul(w[i], w[i + 1])
            if sm is None:
                continue
            s, m = sm
            add_term(f, out.terms, w[:i] + (m,) + w[i + 2:], neg if (s < 0) != (i % 2 == 1) else c)
    return out


def bar_homotopy(t) -> TensorElement:
    """Prepend a 1-slot, concat_B(1 ⊗ 1, t); the right-B-linear contracting homotopy.

    The junction is the new slot 1, the old slot 0, and `concat_B` normalises it.
    """
    if isinstance(t, AlgElement):
        t = from_algebra_element(t)
    return concat_B(TensorElement.unit(t.alg, 2), t)


def contracted_cycles(xs, d, h) -> list | None:
    """The nonzero y = x − h(dx) for the x of `xs`, a basis of a slice, or None when some dy ≠ 0.

    These y span the cycles of the slice exactly, for any linear h: each is
    certified a cycle, and a cycle z = Σ c_x·x has dz = 0, so by linearity
    z = z − h(dz) = Σ c_x·(x − h(dx)).  A linear map therefore vanishes on
    the cycles exactly when it vanishes on every y, and no elimination is
    taken.  A contraction passes the certificate: when d² = 0 and
    dh + hd = id on the slice below, d(hdx) = dx − h(ddx) = dx, so dy = 0.
    """
    out = []
    for x in xs:
        y = x - h(d(x))
        if not y.is_zero():
            if not d(y).is_zero():
                return None
            out.append(y)
    return out


def check_classical_bar(alg: DGAlgebra, max_n: int, max_degree: int) -> ValidationReport:
    """The classical bar complex is a DG resolution contracted by "prepend 1".

    On every basis word x of B^{⊗_A (n+2)}, n <= max_n, of degree <= max_degree,
    one pass checks 𝐝𝐝x = 0 (n >= 1), 𝐝𝐡x + 𝐡𝐝x = x and 𝐝∂x = ∂𝐝x; on every
    B-basis monomial b of degree <= max_degree, π_B(𝐡b) = b.
    """
    ok_dd = ok_h = ok_dg = True
    for n in range(0, max_n + 1):
        for d in range(0, max_degree + 1):
            for w in tensor_basis(alg, n + 2, d):
                x = TensorElement.from_word(alg, w)
                dx = bar_differential(x, n)
                if n >= 1 and not bar_differential(dx, n - 1).is_zero():
                    ok_dd = False
                if bar_differential(bar_homotopy(x), n + 1) + bar_homotopy(dx) != x:
                    ok_h = False
                if bar_differential(tensor_differential(x), n) != tensor_differential(dx):
                    ok_dg = False
    ok_aug = all(pi_B(bar_homotopy(x)) == x for d in range(0, max_degree + 1)
                 for x in map(alg.from_monomial, alg.basis("B", d)))
    rep = ValidationReport()
    rep.add("bar-d-squared-zero", ok_dd)
    rep.add("bar-homotopy-identity", ok_h)
    rep.add("bar-augmentation-homotopy", ok_aug)
    rep.add("bar-commutes-with-internal-differential", ok_dg)
    return rep


def bar_action(t: TensorElement, s: TensorElement) -> TensorElement:
    """Right B^e-action: t·(b ⊗ b') = concat_B(concat_B(b, t'), b'), t' being t twisted by |b|.

    b crosses t to multiply its first slot from the left (`left_mult`),
    which costs (-1)^{|b||w|} on a word w; that junction is slot 0.  b'
    then multiplies the last slot (`right_mult`), the junction that
    `concat_B` normalises.  On a word of length 1 the first slot is the last.
    """
    if s.length != 2:
        raise LengthMismatch("action expects a length-2 (enveloping algebra) element")
    alg = t.alg
    return sum((right_mult(left_mult(alg.from_monomial(mb, c), t.twisted(mb.degree)), alg.from_monomial(mbp))
                for (mb, mbp), c in s.terms.items()), TensorElement(alg, t.length))


def nu(b: AlgElement) -> TensorElement:
    """ν(b) = -𝐡(b ⊗ 1) = -(1 ⊗ b ⊗ 1), b ⊗ 1 being concat_B(b, 1 ⊗ 1); satisfies δ = 𝐝_0 ∘ ν.

    `bar_homotopy` normalises its junction, the slot of b.
    """
    return -bar_homotopy(left_mult(b, TensorElement.unit(b.alg, 2)))


# -- derivations and the correspondence η --------------------------------------


def _in_window(cutoff: int, *factors) -> bool:
    """The one window rule of the correspondence: a relation on a product is
    imposed, and checked, only when the product's degree is within cutoff."""
    return sum(x.degree for x in factors) <= cutoff


class DerivationTable:
    """An A-derivation B -> L ⊆ B^{⊗_A 2}, tabulated on basis monomials."""

    def __init__(self, alg: DGAlgebra, cutoff: int, images: dict):
        self.alg = alg
        self.cutoff = cutoff
        self.images = images  # Monomial -> TensorElement (length 2)

    def apply(self, b: AlgElement) -> TensorElement:
        out = TensorElement(self.alg, 2)
        for m, c in b.terms.items():
            img = self.images.get(m)
            if img is not None:
                out = out + img.scale(c)
        return out

    def validate(self) -> ValidationReport:
        """D vanishes on A, and the derivation law holds on all monomial products within cutoff."""
        alg = self.alg
        bad = []
        for row in _derivation_defect(alg, self.images, _law_pairs(alg, self.cutoff)):
            at = (alg.mono_repr(row[1]),) if row[0] == "A" else (alg.mono_repr(row[0]), alg.mono_repr(row[1]))
            if at not in bad:
                bad.append(at)
        rep = ValidationReport()
        rep.add("derivation-law", not bad, "" if not bad else f"fails at {bad[:3]}")
        return rep


def _law_pairs(alg: DGAlgebra, cutoff: int) -> list:
    """(m1, m2, m1·m2) for the monomial pairs of B with m1, m2 != 1 whose product
    is within cutoff; the product is None where it vanishes (odd squares).  A
    pair with a factor 1 would state D(1) = 0, which vanishing on A states."""
    one = alg.one_mono
    monos = [m for d in range(cutoff + 1) for m in alg.basis("B", d) if m != one]
    return [(m1, m2, alg.mono_mul(m1, m2)) for m1 in monos for m2 in monos if _in_window(cutoff, m1, m2)]


def _derivation_defect(alg: DGAlgebra, images: dict, pairs) -> dict:
    """The failure of a table m ↦ D(m) to be an A-derivation: rows ("A", m, w)
    hold the coordinates of D(m) for m in A, and rows (m1, m2, w) those of
    D(m1 m2) − D(m1)·m2 − m1·D(m2) over `pairs` (from `_law_pairs`)."""
    zero = TensorElement(alg, 2)
    out = {("A", m, w): c for m, img in images.items() if alg.mono_in_A(m) for w, c in img.terms.items()}
    for m1, m2, sm in pairs:
        law = zero if sm is None else images.get(sm[1], zero).scale_int(sm[0])
        law = law - right_mult(images.get(m1, zero), alg.from_monomial(m2)) \
            - left_mult(alg.from_monomial(m1), images.get(m2, zero))
        out.update(((m1, m2, w), c) for w, c in law.terms.items())
    return out


class BeLinearMap:
    """A B^e-linear map J -> L ⊆ B^{⊗_A 2}, given on the δ-basis of J.

    `images` maps the left-B basis labels (b, (w,)) of J with b = 1 to image
    tensors; the value on b·δ(w) follows by left-B-linearity, and
    right-linearity is what `validate` checks.
    """

    def __init__(self, alg: DGAlgebra, cutoff: int, images: dict):
        self.alg = alg
        self.cutoff = cutoff
        self.images = images  # Monomial w -> TensorElement (image of δ(w))

    def apply(self, t: TensorElement) -> TensorElement:
        coords = delta_coords(t, 1)
        out = TensorElement(self.alg, 2)
        for (w,), coeff in coords.items():
            img = self.images.get(w)
            if img is None:
                if w.degree <= self.cutoff:
                    continue  # tabulated as zero
                raise NotInDomain(f"δ({self.alg.mono_repr(w)}) outside the tabulated window")
            for (b,), c in coeff.terms.items():
                out = out + left_mult(self.alg.from_monomial(b, c), img)
        return out

    def validate(self) -> ValidationReport:
        """B^e-linearity within the window: the rows of `_right_linearity_defect`
        vanish.  Left B-linearity needs no check, as `apply` is built left-linear."""
        alg = self.alg
        rows = _right_linearity_defect(alg, self.images, self.cutoff, _right_shifts(alg, self.cutoff))
        bad = list(dict.fromkeys((g, alg.mono_repr(w)) for w, g, _ in rows))
        rep = ValidationReport()
        rep.add("Be-linearity", not bad, "" if not bad else f"fails at {bad[:3]}")
        return rep


def _right_shifts(alg: DGAlgebra, cutoff: int) -> dict:
    """w' -> the (w, g, b') with b'·δ(w') a term of δ(w)·g, over the W-monomials
    w of degrees 1..cutoff and the generators g within the window."""
    labels = [w for d in range(1, cutoff + 1) for w in alg.basis("W", d)]
    shifts = {w: [] for w in labels}
    for w in labels:
        for g in alg.gens:
            if _in_window(cutoff, w, g):
                shifted = right_mult(delta_word(alg, (w,)), alg.gen(g.name))
                for (wp,), coeff in delta_coords(shifted, 1).items():
                    shifts[wp].append((w, g.name, as_algebra_element(coeff)))
    return shifts


def _right_linearity_defect(alg: DGAlgebra, images: dict, cutoff: int, shifts: dict) -> dict:
    """The failure of a table w ↦ f(δ(w)) to be right B-linear: with δ(w)·g =
    Σ b'·δ(w') (`_right_shifts`), the rows (w, g, ww) hold the coordinates of
    f(δ(w))·g − Σ b'·f(δ(w')) for the generators g within the window."""
    law: dict = {}
    for w, t in images.items():
        for g in alg.gens:
            if _in_window(cutoff, w, g):
                _add_to(law, (w, g.name), right_mult(t, alg.gen(g.name)))
        for wv, g, b in shifts.get(w, ()):
            _add_to(law, (wv, g), -left_mult(b, t))
    return {(wv, g, ww): c for (wv, g), img in law.items() for ww, c in img.terms.items()}


def eta(f: BeLinearMap) -> DerivationTable:
    """η(f) = f ∘ δ, tabulated on B-basis monomials within the window."""
    check = f.validate()
    if not check.passed:
        raise NotLinear(check.failures()[0].details or "map is not B^e-linear")
    alg = f.alg
    images = {}
    for d in range(f.cutoff + 1):
        for m in alg.basis("B", d):
            img = f.apply(delta(alg.from_monomial(m)))
            if not img.is_zero():
                images[m] = img
    return DerivationTable(alg, f.cutoff, images)


def eta_inverse(D: DerivationTable) -> BeLinearMap:
    """The inverse correspondence D ↦ -ḡ with g = B ⊗ D ⊗ B.

    g vanishes on ^2J (checked; ObstructionNonzero otherwise), so it factors
    through 𝐝_0 : B^{⊗3} → J, and a preimage of j is 𝐡_0(j) = 1 ⊗ j.  ^2J
    is read from "prepend 1" by `contracted_cycles`; when 𝐡 fails its
    certificate, ^2J is not listed and ObstructionNonzero is raised too.
    """
    alg = D.alg
    check = D.validate()
    if not check.passed:
        raise ObstructionNonzero(check.failures()[0].details or "derivation law fails")

    def g(t3: TensorElement) -> TensorElement:
        out = TensorElement(alg, 2)
        for (b0, b1, b2), c in t3.terms.items():
            img = D.images.get(b1)
            if img is None:
                continue
            piece = left_mult(alg.from_monomial(b0), right_mult(img, alg.from_monomial(b2)))
            out = out + piece.scale(c)
        return out

    for d in range(D.cutoff + 1):
        words = [TensorElement.from_word(alg, w) for w in tensor_basis(alg, 3, d)]
        cycles = contracted_cycles(words, lambda x: bar_differential(x, 1), bar_homotopy)
        if cycles is None:
            raise ObstructionNonzero(f"prepending 1 does not contract B^{{⊗3}} at degree {d}")
        if not all(g(y).is_zero() for y in cycles):
            raise ObstructionNonzero(f"g does not vanish on ^2J at degree {d}")

    images = {}
    for d in range(1, D.cutoff + 1):
        for w in alg.basis("W", d):
            img = -g(bar_homotopy(delta_word(alg, (w,))))
            if not img.is_zero():
                images[w] = img
    return BeLinearMap(alg, D.cutoff, images)


EMPTY_BASIS = "the basis is empty, so nothing was checked"


def check_eta(alg: DGAlgebra, dspace: list, bspace: list) -> ValidationReport:
    """η is a bijection Hom_{B^e}(J, B^e) ≅ Der_A(B, B^e) with inverse `eta_inverse`.

    `dspace` and `bspace` are the bases of `derivation_space` and
    `be_linear_space` on one cutoff.  Their lengths must agree; η∘η⁻¹ = id
    on each basis derivation and η⁻¹∘η = id on each basis map, which
    decides both identities on the spans, as η and η⁻¹ are linear; and the
    first basis derivation, with a word of B^{⊗_A 2} added to the image of a
    monomial of the same degree, is rejected by η⁻¹.  Each map is
    validated once, by the first of η⁻¹ and η it enters.  A line whose
    basis is empty fails.
    """
    zero = TensorElement(alg, 2)

    def same(x, y) -> bool:
        return all(x.images.get(k, zero) == y.images.get(k, zero) for k in set(x.images) | set(y.images))

    def round_trip(x, there, back) -> bool:
        try:  # a derivation that η⁻¹ rejects, or an unlisted ^2J, fails the line
            return same(x, back(there(x)))
        except ObstructionNonzero:
            return False

    ok_d = all(round_trip(Dt, eta_inverse, eta) for Dt in dspace)
    ok_f = all(round_trip(fm, eta, eta_inverse) for fm in bspace)
    ok_reject = None  # no corrupted derivation was checked
    cutoff = dspace[0].cutoff if dspace else 0
    for d in range(1, cutoff + 1):
        words, monos = tensor_basis(alg, 2, d), alg.basis("B", d)
        if words and monos:
            images = dict(dspace[0].images)
            images[monos[0]] = images.get(monos[0], zero) + TensorElement.from_word(alg, words[0])
            bad = DerivationTable(alg, cutoff, images)
            try:
                eta_inverse(bad)
                ok_reject = bad.validate().passed  # only acceptable if it truly is a derivation
            except ObstructionNonzero:
                ok_reject = True
            break
    rep = ValidationReport()
    rep.add("derivation-hom-dim-match", len(dspace) == len(bspace))
    rep.add("eta-of-eta-inverse-identity", ok_d and bool(dspace), "" if dspace else EMPTY_BASIS)
    rep.add("eta-inverse-of-eta-identity", ok_f and bool(bspace), "" if bspace else EMPTY_BASIS)
    rep.add("corrupted-derivation-rejected", bool(ok_reject), "" if ok_reject is not None else EMPTY_BASIS)
    return rep


def _nullspace_tables(alg: DGAlgebra, M: SliceMatrix, make) -> list:
    """One table per nullspace vector of M, whose columns are labelled (key, word).

    A vector's table maps each key to Σ c·word over its nonzero coordinates
    (key, word), a length-2 tensor; `make` wraps that dict.
    """
    out = []
    for vec in M.nullspace():
        images: dict = {}
        for (key, word), c in zip(M.col_labels, vec):
            if c != alg.field.zero:
                images.setdefault(key, {})[word] = c
        out.append(make({key: TensorElement(alg, 2, terms) for key, terms in images.items()}))
    return out


def derivation_space(alg: DGAlgebra, cutoff: int) -> list[DerivationTable]:
    """Exact basis of the space of degree-0 A-derivations B → B^e (tabulated).

    The unknowns are the coordinates (m, w) of the images D(m) of the B-basis
    monomials through the cutoff; the column of (m, w) is the defect of the
    one-entry table m ↦ w.  Its rows ("A", m, w) impose vanishing on A, and
    its rows (m1, m2, ww) the derivation law D(m1 m2) − D(m1)·m2 − m1·D(m2)
    on every monomial pair whose product stays in the window (including
    vanishing odd squares).  Sampling from the nullspace yields genuine
    derivations.
    """
    monos = [m for d in range(cutoff + 1) for m in alg.basis("B", d)]
    touching: dict = {m: [] for m in monos}  # m -> the pairs whose law involves D(m)
    for pair in _law_pairs(alg, cutoff):
        m1, m2, sm = pair
        for m in {m1, m2} if sm is None else {m1, m2, sm[1]}:
            touching[m].append(pair)

    def column(m, w) -> dict:
        return _derivation_defect(alg, {m: TensorElement.from_word(alg, w)}, touching[m])

    cols = tuple((m, w) for m in monos for w in tensor_basis(alg, 2, m.degree))
    # rows in order of first appearance: the RREF, so the nullspace, does not depend on it
    M = SliceMatrix.from_columns(alg.field, (), cols, (column(m, w) for m, w in cols))
    return _nullspace_tables(alg, M, lambda images: DerivationTable(alg, cutoff, images))


def be_linear_space(alg: DGAlgebra, cutoff: int) -> list[BeLinearMap]:
    """Exact basis of degree-0 B^e-linear maps J → B^e given on the δ-basis.

    Left-B-linearity is built into the representation; the solved constraint
    is compatibility with right multiplication by each algebra generator g,
    within the degree window: the rows of `_right_linearity_defect`, which
    `BeLinearMap.validate` reads too.  The unknowns are the coordinates
    (w, word) of the images f(δ(w)); the δ-coordinates are inverted once
    (`_right_shifts`), and the column of each unknown is the defect of the
    one-entry table w ↦ word.
    """
    shifts = _right_shifts(alg, cutoff)

    def column(w, word) -> dict:
        return _right_linearity_defect(alg, {w: TensorElement.from_word(alg, word)}, cutoff, shifts)

    cols = tuple((w, word) for w in shifts for word in tensor_basis(alg, 2, w.degree))
    # rows in order of first appearance, as in `derivation_space`
    M = SliceMatrix.from_columns(alg.field, (), cols, (column(w, word) for w, word in cols))
    return _nullspace_tables(alg, M, lambda images: BeLinearMap(alg, cutoff, images))


# -- reduced bar resolution -----------------------------------------------------


def reduced_bar_differential(t: TensorElement, n: int) -> TensorElement:
    """d̄_n on B ⊗_A J^{⊗_B n} in flat coordinates: merge slots 0 and 1.

    Membership of t in the domain is verified first (NotInDomain otherwise).
    """
    if n < 1:
        raise NotInDomain("use pi_B for the augmentation d̄_0")
    if t.length != n + 2:
        raise LengthMismatch(f"expected word length {n + 2}, got {t.length}")
    try:
        delta_coords(t, n)
    except NotInJn as exc:
        raise NotInDomain(str(exc)) from exc
    return merge_at(t, 0)


def _label_key(label):
    """The basis order of the labels (b, m, ws) of one C_n(d) (`prefixed_basis_labels`)."""
    b, m, ws = label
    return b.sort_key, m.sort_key, tuple(w.sort_key for w in ws)


def _first_failing_tail(alg: DGAlgebra, failing: list, d: int):
    """The first label of C_2(d), C_3(d), ..., each in basis order, whose head (b, m, (w_1,)) is in `failing`."""
    heads = sorted(failing, key=_label_key)
    for n in range(2, d + 1):
        for b, m, head in heads:
            tails = _delta_factors(alg, n - 1, d - b.degree - m.degree - head[0].degree)
            if tails:
                return b, m, head + tails[0]
    return None


def certify_reduced_bar(alg: DGAlgebra, D: int):
    """The reduced bar resolution B ← C_0 ← C_1 ← ... in degrees 0..D, certified as (𝔹, 𝔻) of B with d forgotten.

    Returns None when a d̄ column is not d̄ of its label.  Otherwise returns
    (defects, square): per degree d = 0..D the first label at which a
    contracting homotopy identity fails, or None, and whether
    d̄_{n−1}∘d̄_n = 0 for every n >= 2.  The certificate is
    `homology.certify_contraction` on B♮, the algebra on the generators of
    B with d = 0, and its labels (n, λ) with n <= 2 and |λ| <= D: there
    (𝔹, 𝔻) is the augmented reduced bar of B on the same labels, component
    n being C_n (the d = 0 argument in its docstring).  Monomials are
    hash-consed, so its labels are those of B.  It lists no label with
    n >= 3, and nothing of it is cached on alg.

    Head lemma: write ι_n(b, m, ws) = b ⊗_A m·δ(w_1) ⊗_B ... ⊗_B δ(w_n) for
    the flat element of a label and τ = δ(w_2) ⊗_B ... ⊗_B δ(w_n).  Then
    ι_n(b, m, ws) = concat_B(ι_1(b, m, (w_1,)), τ), and merging slots 0 and 1
    commutes with ⊗_B-concatenation on the right of a word of length >= 3.
    So the column of (b, m, ws) is the column of its head (b, m, (w_1,))
    with ws[1:] appended to every row label.  `dbar_column` computes the
    head's column only and appends ws[1:] with `semifree.append_tail`, so
    every column is right once the columns with n <= 2 are: the
    certificate compares each n = 2 column with its head's, w_2 appended
    (its tail lemma on d = 0), and so reads `append_tail` on a nonempty
    tail in every run.

    d̄² from n = 2: let λ = (b, m, (w_1, w_2)) and τ a tail, so every label
    with n >= 2 is λ + τ.  By the head lemma d̄(λ + τ) = d̄λ + τ, whose
    labels (b', m', (w_2,) + τ) have n − 1 >= 1, so the head lemma applies
    again: d̄(d̄λ + τ) = (d̄d̄λ) + τ.  Appending τ is injective on labels, so
    d̄_{n−1}d̄_n(λ + τ) = 0 exactly when d̄_1d̄_2λ = 0, and λ has degree at
    most that of λ + τ: the products d̄_1∘d̄_2 of every degree decide d̄².

    The homotopy identities, with h_{−1} = σ (`semifree.homotopy`,
    `semifree.section`): πσ = id on B, d̄_1h_0 + σπ = id on C_0 and
    d̄_{n+1}h_n + h_{n−1}d̄_n = id on C_n.  In degree d the labels are taken
    in the order B, C_0, C_1, ..., C_d, each in basis order.  The
    certificate checks πσ = id on every b, and the other identities on the
    prefix-1 labels of C_0 and C_1; the identity fails at b·X exactly when
    b times the defect at X is nonzero (its b·X failure rule), so the
    failing labels of C_0 and C_1 of each degree follow.

    Tail lemma: let λ = (b, m, (w_1,)) and τ a nonempty tail.  h commutes
    with appending tails, h(κ + τ) = h(κ) + τ for every label κ, by
    construction (`semifree.homotopy` appends the label's δ-factors to its
    head's column with `semifree.append_tail`).  By the head lemma,
    d̄(κ + τ) = d̄κ + τ for every κ with n >= 1.  So d̄h(λ + τ) =
    d̄(hλ + τ) = (d̄hλ) + τ and hd̄(λ + τ) = h(d̄λ + τ) = (hd̄λ) + τ, and the
    defect at λ + τ is the defect at λ with τ appended.  Appending τ is
    injective on labels, and h(λ) + τ leaves C_{n+1}(d) exactly when h(λ)
    leaves C_2(d − |τ|).  So the identity fails at λ + τ exactly when it
    fails at λ, in C_1 of degree d − |τ| < d.

    Minimal degree: all failing C_1 labels are kept, degree by degree.  The
    labels of C_n(d) with one head are consecutive, in the order of their
    tails, and the heads come in the order of (b, m, w_1).  So the first
    failing label of C_n(d), n >= 2, is the first kept head with a tail of
    degree d − |λ| and length n − 1, followed by its first tail
    (`_first_failing_tail`).  In the lowest failing degree only B, C_0 or
    C_1 can fail, and every degree names the label that multiplying the
    identity out on every C_n names.
    """
    cert = certify_contraction(DGAlgebra(alg.field, alg.gens[:alg.n_base], alg.gens[alg.n_base:]), (D, D, D))
    if cert is None:
        return None
    square, _, _, bad = cert
    failing: list = []  # the C_1 labels, of the degrees so far, at which the identity fails
    defects = []
    for d in range(D + 1):
        on_b, on_c = [], ([], [])  # the failing monomials of B and labels of C_0, C_1 in degree d
        for x, defect in bad:
            if not isinstance(x, tuple):
                if x.degree == d:
                    on_b.append(x)
                continue
            n, (_, m, ws) = x
            for b in alg.basis("B", d - m.degree - sum(w.degree for w in ws)):
                if any(alg.mono_mul(b, row[1][0]) for row in defect):
                    on_c[n].append((b, m, ws))
        firsts = [min(labels, key=_label_key) for labels in on_c if labels]
        defects.append(on_b[0] if on_b else firsts[0] if firsts else _first_failing_tail(alg, failing, d))
        failing += on_c[1]
    return defects, square


BAD_REDUCED_COLUMNS = "a reduced bar column differs from the flat merge of its basis element"
NO_TWO_FACTOR_LABEL = "the window holds no label with two δ-factors, so nothing was checked"


def check_reduced_bar(alg: DGAlgebra, D: int) -> ValidationReport:
    """The report of `bar --reduced` in degrees 0..D: exactness degree by degree, then d̄² = 0.

    Every line reads one `certify_reduced_bar` pass, and fails when a
    column is wrong.  In internal degree d the complex stops at n = d (each
    δ-factor has degree >= 1).  When every contracting homotopy identity
    holds, π is onto and every cycle x is the boundary d̄(hx), with no rank
    taken; a degree fails with its first bad label.  d̄² = 0 is read on the
    products d̄_1∘d̄_2, so a window without a label of n = 2 checks nothing,
    and that line fails.
    """
    rep = ValidationReport()
    cert = certify_reduced_bar(alg, D)
    if cert is None:
        for d in range(D + 1):
            rep.add(f"reduced:reduced-exactness@deg{d}", False, BAD_REDUCED_COLUMNS)
        rep.add("reduced-d-squared-zero", False, BAD_REDUCED_COLUMNS)
        return rep
    defects, square = cert
    for d, bad in enumerate(defects):
        rep.add(f"reduced:reduced-exactness@deg{d}", bad is None, defect_details(alg, bad))
    checked = any(prefixed_basis_dim(alg, 2, d) for d in range(D + 1))
    rep.add("reduced-d-squared-zero", checked and square, "" if checked else NO_TWO_FACTOR_LABEL)
    return rep


def check_reduced_exactness(alg: DGAlgebra, max_degree: int) -> ValidationReport:
    """The exactness lines of `check_reduced_bar`, one per degree 0..max_degree, without its prefix."""
    rep = ValidationReport()
    for c in check_reduced_bar(alg, max_degree).checks[:-1]:
        rep.add(c.name.removeprefix("reduced:"), c.status == "PASS", c.details)
    return rep
