"""The diagonal tensor resolution: 𝔹 = B ⊗_A T with differential 𝔻 = ∂ + 𝔇.

T is the tensor algebra of the suspended diagonal ideal over B.  Components
are stored unsuspended, in flat B^{⊗_A (n+2)} coordinates, with the word
length n recorded separately; the suspension shuffle is realized purely as
the scalar relabeling `psi_sign` inside the honest-element constructors.

In these stored coordinates the two differentials collapse to something very
concrete: the internal part acts as (-1)^n times the flat slotwise
differential, and the bar part 𝔇 is exactly "merge slots 0 and 1".  Both
identities 𝔇∂ = -∂𝔇 and 𝔻² = 0 are then forced by π_B being a chain map,
and the complex (𝔹, 𝔇) is the reduced bar resolution on the nose.

`GradedElement` is the package's one direct sum: it maps each key to a
nonzero component.  T and 𝔹 key it by word length with `TensorElement`
components (scalar sums, `algebra.ScalarSum`), and `modules.ModTensorElement`
and N ⊗_A T = N ⊗_B 𝔹 (`modules.NTElement`) by module generator, with
`TensorElement` and `BBElement` components; `modules.DN` applies `DD` to
each of the latter.  A word-length subclass fixes only the word length of
component n and the type of its components.  `t_word` builds its δ-chain
with the one builder `tensor.delta_chain`, and `bb_word` is
concat_B(b' ⊗ 1, t_word), b' the prefix twisted by the word length n.
∂ of T and of 𝔹 is the one helper `dBB`.  Both T-concatenations, the product of T (`t_multiply`) and its
right action on 𝔹 (`t_action`), are the one junction product
`tensor.concat_B`(x.twisted(m), y) for x in component k and y in
component m: x with each word w signed (-1)^{m·|w|} (`ScalarSum.twisted`).

Suspension convention: (ΣM)_i = M_{i-1} with ∂(Σm) = -Σ∂(m).  This is the
convention under which the stored formulas above hold; the invariant test
suite (anticommutation, 𝔻² = 0, T-linearity, reduced-bar recovery) pins it.
"""

from __future__ import annotations

from .algebra import AlgElement, DGAlgebra, Monomial, ValidationReport, add_term
from .errors import DgresError, LengthMismatch, MismatchedAlgebra
from .tensor import (
    TensorElement,
    _delta_factors,
    _memo,
    concat_B,
    delta_chain,
    left_mult,
    merge_at,
    pi_B,
    prefixed_basis_element,
    prefixed_basis_labels,
    tensor_differential,
)


def psi_sign(n: int, b_degree: int, tau_degrees) -> int:
    """Sign of the suspension shuffle: (-1)^{n|b| + Σ_{i<n} (n-i)|τ_i|}."""
    taus = list(tau_degrees)
    if len(taus) != n:
        raise LengthMismatch(f"expected {n} tensor factor degrees, got {len(taus)}")
    exp = n * b_degree + sum((n - i) * taus[i - 1] for i in range(1, n))
    return -1 if exp % 2 else 1


def _add_to(parts: dict, key, x):
    """parts[key] += x, a missing key counting as zero."""
    parts[key] = parts[key] + x if key in parts else x


class GradedElement:
    """Direct sum Σ_k x_k of components, one per key k, no zero component stored.

    Here the key n is a word length: component n has word length n +
    `offset`, and a subclass gives only that offset and `part`, the type
    of its components, whose empty element `component` returns for a
    missing key.  `owner` is the algebra (T, 𝔹) or the module the
    components live over.  `modules.ModTensorElement` and `NTElement` key
    them by module generator, of degree `key_degree`, instead, and each
    gives its own `component`; the first gives its own `shape` (the word
    length) and `_like`, the second its own constructor.  Sums of
    different types, owners or shapes raise.
    """

    __slots__ = ("owner", "components")
    offset = 0
    shape = None
    part = TensorElement

    def __init__(self, owner, components: dict | None = None):
        self.owner = owner
        self.components = {}
        for n, t in (components or {}).items():
            if not t.is_zero():
                if t.length != n + self.offset:
                    raise LengthMismatch(f"component {n} must have word length {n + self.offset}")
                self.components[n] = t

    def _like(self, components: dict):
        """A direct sum of the same type, owner and shape; zero components are dropped."""
        return type(self)(self.owner, components)

    def key_degree(self, n: int) -> int:
        return n

    def component(self, n: int):
        t = self.components.get(n)
        return self.part(self.owner, n + self.offset) if t is None else t

    def __add__(self, other):
        if self.owner is not other.owner:
            raise MismatchedAlgebra("elements over different algebras or modules")
        if type(other) is not type(self) or self.shape != other.shape:
            raise LengthMismatch(f"elements of different shapes: lengths {self.shape} and {other.shape}")
        comps = dict(self.components)
        for n, t in other.components.items():
            _add_to(comps, n, t)
        return self._like(comps)

    def __sub__(self, other):
        return self + other.scale_int(-1)

    def __neg__(self):
        return self.scale_int(-1)

    def scale(self, c):
        return self._like({n: t.scale(c) for n, t in self.components.items()})

    def scale_int(self, k: int):
        return self._like({n: t.scale_int(k) for n, t in self.components.items()})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.owner is other.owner and self.shape == other.shape and self.components == other.components

    def degrees(self) -> set[int]:
        return {self.key_degree(n) + d for n, t in self.components.items() for d in t.degrees()}

    def homogeneous_degree(self):
        degs = self.degrees()
        if len(degs) > 1:
            raise DgresError("element is not homogeneous")
        return degs.pop() if degs else None

    def __repr__(self):
        if not self.components:
            return "0"
        return " ++ ".join(f"[{n}] {t!r}" for n, t in sorted(self.components.items()))


class TElement(GradedElement):
    """Element of the tensor algebra T; component m is stored in B^{⊗_A (m+1)}."""

    __slots__ = ()
    offset = 1
    alg = property(lambda self: self.owner)

    @staticmethod
    def one(alg: DGAlgebra) -> "TElement":
        return TElement(alg, {0: TensorElement.unit(alg, 1)})


class BBElement(GradedElement):
    """Element of 𝔹; component n is stored in B^{⊗_A (n+2)}."""

    __slots__ = ()
    offset = 2
    alg = property(lambda self: self.owner)

    @staticmethod
    def one(alg: DGAlgebra) -> "BBElement":
        return BBElement(alg, {0: TensorElement.unit(alg, 2)})


# -- honest-element constructors ------------------------------------------------


def t_word(alg: DGAlgebra, factors) -> TElement:
    """Σδ(u_1) ⊗_B ... ⊗_B Σδ(u_n) for homogeneous u_i ∈ B, in stored form: the
    `tensor.delta_chain` of the u_i, signed psi_sign(n, 0, (|u_1|, ..., |u_n|))."""
    us = [u if isinstance(u, AlgElement) else alg.from_monomial(u) for u in factors]
    degs = [u.homogeneous_degree() for u in us]
    if None in degs:
        return TElement(alg)
    return TElement(alg, {len(us): delta_chain(alg, us).scale_int(psi_sign(len(us), 0, degs))})


def bb_word(alg: DGAlgebra, prefix: AlgElement, factors) -> BBElement:
    """b ⊗_A Σδ(u_1) ⊗_B ... ⊗_B Σδ(u_n) in stored coordinates.

    The prefix may be inhomogeneous.  As psi_sign(n, |b|, τ) =
    (-1)^{n|b|}·psi_sign(n, 0, τ), it is concat_B(b' ⊗ 1, component n of
    `t_word`), b' being the prefix twisted by n; the junction that
    `concat_B` normalises is slot 1, the first slot of the δ-chain.  A zero
    factor gives zero, and an inhomogeneous one raises in `t_word`.
    """
    n = len(factors)
    head = left_mult(prefix.twisted(n), TensorElement.unit(alg, 2))
    return BBElement(alg, {n: concat_B(head, t_word(alg, factors).component(n))})


# -- differentials ---------------------------------------------------------------


def dBB(t):
    """Internal differential ∂ of 𝔹 (or of T) in stored coordinates.

    On component n it is (-1)^n times the flat slotwise differential.
    """
    comps = {}
    for n, te in t.components.items():
        d = tensor_differential(te)
        comps[n] = -d if n % 2 else d
    return type(t)(t.owner, comps)


def frakD(t: BBElement) -> BBElement:
    """Bar part 𝔇 of the differential: merge the prefix into the first δ-factor."""
    return BBElement(t.alg, {n - 1: merge_at(te, 0) for n, te in t.components.items() if n})


def DD(t: BBElement) -> BBElement:
    """The total differential 𝔻 = ∂ + 𝔇."""
    return dBB(t) + frakD(t)


def alpha(t: BBElement) -> AlgElement:
    """Augmentation onto B: multiplication on component 0, zero elsewhere."""
    c0 = t.components.get(0)
    return pi_B(c0) if c0 is not None else t.alg.zero()


def _concat_T(left, right):
    """⊗_B-concatenation of graded elements with the suspension-shuffle sign.

    In stored coordinates a word w concatenated with a component y of T in
    word length m picks up (-1)^{m·|w|}, so the pair of components x, y
    contributes concat_B(x.twisted(m), y).
    """
    comps = {}
    for k, x in left.components.items():
        for m, y in right.components.items():
            _add_to(comps, k + m, concat_B(x.twisted(m), y))
    return type(left)(left.owner, comps)


def t_action(beta: BBElement, s: TElement) -> BBElement:
    """Right action of T on 𝔹 by ⊗_B-concatenation (`_concat_T`)."""
    return _concat_T(beta, s)


def t_multiply(s1: TElement, s2: TElement) -> TElement:
    """Product in T: ⊗_B-concatenation with the suspension-shuffle sign (`_concat_T`)."""
    return _concat_T(s1, s2)


# -- bases and semifree structure -------------------------------------------------


def bb_total_basis(alg: DGAlgebra, total_degree: int):
    """Labels (n, (b, m, ws)) of the stored basis of 𝔹 in one total degree; cached per algebra.

    Each suspended δ-factor contributes its internal degree plus one, so
    components with n > total_degree/2 are empty and the slice is finite.
    """
    return _memo(alg, "bb_basis", total_degree, lambda: tuple(
        (n, lb) for n in range(0, total_degree // 2 + 1) for lb in prefixed_basis_labels(alg, n, total_degree - n)))


def prefix_one_labels(alg: DGAlgebra, n: int, degree: int) -> tuple:
    """The labels (n, (1, m, ws)) of component n and internal degree `degree`, in `bb_total_basis`
    order: 𝔹 is free on them as a left B-module, (n, (b, m, ws)) being b·(n, (1, m, ws)).  Only
    they are listed, from the W-monomials m and the δ-words of `tensor._delta_factors`; not cached."""
    one = alg.one_mono
    return tuple((n, (one, m, ws)) for dm in range(degree + 1) for m in alg.basis("W", dm)
                 for ws in _delta_factors(alg, n, degree - dm))


def bb_basis_element(alg: DGAlgebra, label) -> BBElement:
    n, lb = label
    return BBElement(alg, {n: prefixed_basis_element(alg, lb)})


def dd_column(alg: DGAlgebra, label) -> dict:
    """Coordinates of 𝔻 of one stored basis element, computed on the labels.

    The label (n, (b, m, ws)) is b ⊗_A m·δ(w_1) ⊗_B ... ⊗_B δ(w_n).  ∂ is
    (-1)^n times the Leibniz rule on b, m and each w_i.  The base part a of a
    term a·e of d(m) or d(w_i) moves into the prefix b (δ(a·e) = a·δ(e)),
    passing m and w_1..w_{i-1} with the sign (-1)^{|a|(|m| + Σ_{j<i}|w_j|)};
    a term of d(w_i) with e = 1 drops out, since δ vanishes on A.  𝔇 is
    `dbar_column` on (b, m, ws), moved to component n − 1: all of 𝔻 when
    d = 0.  No flat element is built and no δ-factor is peeled off.
    """
    n, (b, m, ws) = label
    if alg.d_is_zero:
        return {(n - 1, lb): c for lb, c in dbar_column(alg, (b, m, ws)).items()} if n else {}
    f = alg.field
    out: dict = {}
    odd_n = n % 2
    for mm, c in alg.diff_mono(b).terms.items():
        add_term(f, out, (n, (mm, m, ws)), c, odd_n)
    odd_b = (n + b.degree) % 2
    for mm, c in alg.diff_mono(m).terms.items():
        a, e = alg.mono_split(mm)
        sm = alg.mono_mul(b, a)
        if sm is not None:
            add_term(f, out, (n, (sm[1], e, ws)), c, odd_b ^ (sm[0] < 0))
    crossed = m.degree  # |m| + Σ_{j<i} |w_j|
    for i, w in enumerate(ws):
        odd_w = (odd_b + crossed) % 2
        for mm, c in alg.diff_mono(w).terms.items():
            a, e = alg.mono_split(mm)
            if not e.degree:
                continue
            sm = alg.mono_mul(b, a)
            if sm is not None:
                cross = a.degree % 2 and crossed % 2
                add_term(f, out, (n, (sm[1], m, ws[:i] + (e,) + ws[i + 1:])), c, odd_w ^ cross ^ (sm[0] < 0))
        crossed += w.degree
    if n:
        for lb, c in dbar_column(alg, (b, m, ws)).items():
            out[(n - 1, lb)] = c
    return out


def append_tail(col: dict, tail: tuple) -> dict:
    """The column col with the δ-factors tail appended to every row label: (b, m, ws) ↦ (b, m, ws + tail).

    It is the λ ↦ λ + τ of the head lemma (`bar.certify_reduced_bar`) and
    of the tail lemma of `homology.certify_contraction`: `dbar_column` and
    `homotopy` compute the column of a label's head only and return it with
    the label's tail appended by this function.
    """
    return {(b, m, ws + tail): c for (b, m, ws), c in col.items()} if tail else col


def dbar_column(alg: DGAlgebra, label) -> dict:
    """Coordinates of the reduced bar differential d̄ of one δ-label, n >= 1.

    The label (b, m, ws) is b ⊗_A m·δ(w_1) ⊗_B ... ⊗_B δ(w_n) in B ⊗_A J^{⊗_B n}.
    On a head (b, m, (w_1,)), d̄ merges b into the δ-factor:

        d̄(b, m, (w_1,)) = s·(bm, w_1, ()) − s·s'·(bm·w_1, 1, ())

    over the labels of n = 0, with s and s' the `mono_mul` signs of bm and
    bm·w_1; a vanishing product drops its term.  Only this head column is
    computed: the column of (b, m, ws) is it with ws[1:] appended
    (`append_tail`).  This is the 𝔇 part of `dd_column`, all of it when
    d = 0, so `bar.certify_reduced_bar` certifies d̄ as 𝔻 of B with d
    forgotten.
    """
    b, m, ws = label
    sm = alg.mono_mul(b, m)
    if sm is None:
        return {}
    f = alg.field
    s, bm = sm
    w = ws[0]
    c = f.one if s > 0 else f.neg(f.one)
    head = {(bm, w, ()): c}
    sm = alg.mono_mul(bm, w)
    if sm is not None:
        head[(sm[1], alg.one_mono, ())] = f.neg(c) if sm[0] > 0 else c
    return append_tail(head, ws[1:])


def pi_column(alg: DGAlgebra, label) -> dict:
    """π = d̄_0 on a δ-label (b, m, ()): ±b·m with the `mono_mul` sign; α is π on component 0."""
    sm = alg.mono_mul(label[0], label[1])
    return {} if sm is None else {sm[1]: alg.field.of_int(sm[0])}


def section(alg: DGAlgebra, b) -> dict:
    """σ(b) = (b, 1, ()), with πσ = id."""
    return {(b, alg.one_mono, ()): alg.field.one}


def homotopy(alg: DGAlgebra, label) -> dict:
    """The contracting homotopy on δ-labels: h(b, m, ws) = (b, 1, (m,) + ws), 0 when m = 1.

    Only the head column h(b, m, ()) is written: h(b, m, ws) is it with ws
    appended (`append_tail`), so h commutes with appending δ-factors by
    construction.  It reads b only to copy it, so it is left B-linear with
    no sign, as the identity at b·X of `homology.certify_contraction` needs.

    Reduced bar: with s the `mono_mul` sign of b·m, `dbar_column` gives
    d̄h(b, m, ws) = (b, m, ws) − s·(bm, 1, ws) and hd̄(b, m, ws) = s·(bm, 1, ws)
    for m ≠ 1 (a vanishing b·m drops the s-terms), and hd̄(b, 1, ws) =
    (b, 1, ws).  So d̄h + hd̄ = id on C_n for n >= 1, and on C_0
    d̄_1h_0 + σπ = id, as σπ(b, m, ()) = s·(bm, 1, ()); πσ = id.

    𝔹: with h(n, λ) = (n + 1, hλ), ∂h + h∂ = 0.  For m ≠ 1 the terms of
    `dd_column` on (n + 1, (b, 1, (m,) + ws)) are h of those on
    (n, (b, m, ws)), d(m) read as d(w_1): each crossing sign is unchanged,
    as |1| = 0, and each other sign exponent is one higher.  Terms of d(m)
    in A vanish on both sides (δ kills A, h kills m = 1), and for m = 1
    every term of ∂ keeps m = 1.  As 𝔇 is d̄ on λ, 𝔻h + h𝔻 = id − σα.
    """
    b, m, ws = label
    return {} if m == alg.one_mono else append_tail({(b, alg.one_mono, (m,)): alg.field.one}, ws)


def defect_details(alg: DGAlgebra, label) -> str:
    """The counterexample text naming the first label at which a homotopy identity fails; '' for None."""
    def text(x):
        if isinstance(x, Monomial):
            return alg.mono_repr(x)
        return f"({', '.join(map(text, x))})" if isinstance(x, tuple) else str(x)
    return "" if label is None else f"the contracting homotopy identity fails at {text(label)}"


def check_semifree_triangular(alg: DGAlgebra, max_total_degree: int) -> ValidationReport:
    """𝔻 of each basis element is supported on strictly earlier basis elements.

    Basis elements of the underlying free B^e-module are the labels
    (n, (1, 1, ws)); the semifree order compares n + Σ|w_i| (the total degree
    of the basis element), so it suffices that every coordinate label of the
    image has strictly smaller such value.  Only these labels are listed.
    """
    rep = ValidationReport()
    bad = []
    for t in range(max_total_degree + 1):
        for n in range(t // 2 + 1):
            for ws in _delta_factors(alg, n, t - n):  # n + Σ|w_i| = t
                for n2, (_, _, ws2) in dd_column(alg, (n, (alg.one_mono, alg.one_mono, ws))):
                    if n2 + sum(w.degree for w in ws2) >= t:
                        bad.append((t, n, tuple(alg.mono_repr(w) for w in ws)))
                        break
    rep.add("semifree-triangularity", not bad, "" if not bad else f"violations: {bad[:3]}")
    return rep


def check_frakD_T_linearity(alg: DGAlgebra, top: int) -> ValidationReport:
    """𝔇 is right T-linear: 𝔇(v·s) = 𝔇(v)·s for every basis element v of 𝔹 of
    word length >= 1 and total degree <= top, and every generator word s = Σδ(g).
    A window with no such v fails, since its PASS would rest on nothing."""
    ss = [t_word(alg, [alg.gen(g.name)]) for g in alg.gens]
    ok, pairs = True, 0
    for t in range(0, top + 1):
        for label in bb_total_basis(alg, t):
            if label[0] < 1:
                continue
            v = bb_basis_element(alg, label)
            for s in ss:
                pairs += 1
                if frakD(t_action(v, s)) != t_action(frakD(v), s):
                    ok = False
    rep = ValidationReport()
    rep.add("frakD-T-linearity", ok and pairs > 0,
            "" if pairs else "the window holds no label of word length >= 1, so nothing was checked")
    return rep
