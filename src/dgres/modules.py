"""Finitely generated semifree DG B-modules, their bar complexes, the β_N
splitting of the diagonal tensor resolution, and exact naive lifting.

An element Σ_i e_i ⊗ x_i of N ⊗_A B^{⊗_A m} is stored as one `TensorElement`
x_i of word length m+1 per basis index i, and a zero x_i is never stored:
slot 0 of x_i carries the B-coefficient of e_i and slots 1..m the tensor
factors (ext-only, as in `tensor`).  Every slot operation is then the plain
kernel applied to each x_i: right multiplication, merges, ⊗_B-concatenation
and the bar differential (whose i = 0 merge realizes x ⊗ b_1 ↦ x·b_1) keep
the index, and the internal differential adds to (-1)^{|e_j|} times the
slotwise differential of x_j the left multiples b_ij·x_j, moved to index i.
So `ModTensorElement` is the package's direct sum, `semifree.GradedElement`,
keyed by generator index, each x_i a scalar sum (`tensor.TensorElement`);
its `terms` is a flat read-only view keyed by (index, word).

An element Σ_j e_j ⊗ y_j of N ⊗_A T = N ⊗_B 𝔹 is keyed by generator index
too, each y_j a `semifree.BBElement`.  Both internal differentials are then
d_N ⊗ 1 + (-1)^{|e|}·1 ⊗ d, one helper `_over_N`: `module_differential`
with d slotwise, and `DN` with d = 𝔻, taken from `semifree.DD`.  Its
parts at one generator, `_over_e`, also give each column of the
naive-lift system from the kernels on one word.  The splitting β_N is
built by its recursion, in one pass over the generators (`_beta_pass`);
β_N and a naive lift ρ are sections of α_N and π_N, checked by one loop
(`_section_checks`); its rows are spelt per generator by `tensor._spell_terms`
through one memo of word texts (`_render`).  "Append 1" (`dN_homotopy`)
contracts the bar differential 𝐝^N, so the λ-identities read the cycles
of 𝐝^N from it (`bar.contracted_cycles`), with no elimination.
"""

from __future__ import annotations

import random

from .algebra import AlgElement, DGAlgebra
from .bar import bar_differential, contracted_cycles
from .errors import DgresError, NotValidated, ShapeMismatch
from .linalg import InfeasibilityCertificate, SliceMatrix, solve_linear
from .report import ValidationReport
from .sampling import random_homogeneous_modtensor, random_homogeneous_tensor
from .semifree import BBElement, DD, GradedElement, _add_to
from .tensor import (
    TensorElement,
    concat_B,
    delta,
    left_mult,
    merge_at,
    right_mult,
    tensor_basis,
    tensor_differential,
    _spell_terms,
)


class SemifreeModule:
    """Semifree right DG B-module with ordered finite basis.

    `basis` is a list of (name, degree); `diff_entries` maps (mu_name,
    lam_name) to the coefficient b_{μλ} ∈ B of e_μ in ∂(e_λ), raw-term data
    or AlgElement.  Only mu < lam entries are allowed (strict triangularity).
    The nonzero entries b_ij are `diff[i, j]`, and by generator `into[j]`,
    the (i, b_ij) of ∂e_j, and `out_of[i]`, the (j, b_ij) of the ∂e_j with a
    term at e_i, each in ascending order.
    """

    def __init__(self, alg: DGAlgebra, basis, diff_entries=None):
        self.alg = alg
        self.names = tuple(name for name, _ in basis)
        if len(set(self.names)) != len(self.names):
            raise DgresError("module basis names must be unique")
        self.degrees = tuple(int(d) for _, d in basis)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.diff: dict[tuple[int, int], AlgElement] = {}
        for (mu, lam), val in (diff_entries or {}).items():
            i, j = self.index[mu], self.index[lam]
            el = val if isinstance(val, AlgElement) else alg.element(val)
            if el.is_zero():
                continue
            if i >= j:
                raise DgresError(f"entry ({mu},{lam}) violates strict lower triangularity")
            self.diff[(i, j)] = el
        self.into = [[] for _ in self.names]
        self.out_of = [[] for _ in self.names]
        for i, j in sorted(self.diff):
            self.into[j].append((i, self.diff[i, j]))
            self.out_of[i].append((j, self.diff[i, j]))
        self._validated = None

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"SemifreeModule([{gens}], {len(self.diff)} entries)"


def validate_module(N: SemifreeModule) -> ValidationReport:
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
    # the coefficient of e_i in ∂²(e_j) is Σ_k b_ik·b_kj + (-1)^{|e_i|}·d(b_ij):
    # summed over the pairs of entries that share k, and over the entries
    acc: dict = {}
    for (i, k), b in N.diff.items():
        for j, c in N.out_of[k]:
            _add_to(acc, (i, j), b * c)
    for (i, j), b in N.diff.items():
        db = alg.d(b)
        _add_to(acc, (i, j), -db if N.degrees[i] % 2 else db)
    bad = [f"({N.names[i]},{N.names[j]})" for j, i in sorted((j, i) for i, j in acc) if not acc[i, j].is_zero()]
    rep.add("d-squared-zero", not bad, "" if not bad else "∂² != 0 at " + ", ".join(bad[:4]))
    N._validated = rep.passed
    return rep


class ModTensorElement(GradedElement):
    """Element Σ_i e_i ⊗ x_i of N ⊗_A B^{⊗_A (length-1)}; `components` maps i -> x_i.

    Like `TensorElement`, the constructor takes nonzero terms
    {(i, word): scalar} over canonical words.  The key i has degree |e_i|.
    """

    __slots__ = ("length",)
    module = property(lambda self: self.owner)
    shape = property(lambda self: self.length)

    def __init__(self, module: SemifreeModule, length: int, terms: dict | None = None):
        self.owner = module
        self.length = length
        by_index: dict = {}
        for (i, w), c in (terms or {}).items():
            by_index.setdefault(i, {})[w] = c
        self.components = {i: TensorElement(module.alg, length, ws) for i, ws in by_index.items()}

    @classmethod
    def _of_parts(cls, module: SemifreeModule, length: int, parts: dict) -> "ModTensorElement":
        out = cls(module, length)
        out.components = {i: x for i, x in parts.items() if not x.is_zero()}
        return out

    def _like(self, parts: dict) -> "ModTensorElement":
        return ModTensorElement._of_parts(self.owner, self.length, parts)

    def key_degree(self, i: int) -> int:
        return self.owner.degrees[i]

    def component(self, i: int) -> TensorElement:
        x = self.components.get(i)
        return TensorElement(self.owner.alg, self.length) if x is None else x

    @property
    def terms(self) -> dict:
        return {(i, w): c for i, x in self.components.items() for w, c in x.terms.items()}

    def _map(self, kernel, length: int) -> "ModTensorElement":
        """Apply a plain tensor kernel to every part, keeping its index."""
        return ModTensorElement._of_parts(self.owner, length, {i: kernel(x) for i, x in self.components.items()})

    def __repr__(self):
        return self._text({})

    def _text(self, memo: dict) -> str:
        """The text of `__repr__`, each word keyed and spelt through `memo` (see `_render`)."""
        return _render(self.owner, self.components, memo)


def _render(N: SemifreeModule, parts: dict, memo: dict) -> str:
    """Σ_i e_i ⊗ x_i as text: i ascending, the terms of x_i by `_spell_terms` after "e_i.", "0" for no part.

    `memo` is `_spell_terms`' memo, shared by all the parts and elements a caller renders.
    """
    out = []
    for i in sorted(parts):
        out += _spell_terms(parts[i], memo, N.names[i] + ".")
    return " + ".join(out) or "0"


def mod_element(module: SemifreeModule, name: str, coeff=None) -> ModTensorElement:
    """The basis element e_name as an element of N (word length 1)."""
    alg = module.alg
    c = alg.field.one if coeff is None else coeff
    return ModTensorElement(module, 1, {(module.index[name], (alg.one_mono,)): c})


def mod_right_mult(t: ModTensorElement, u: AlgElement) -> ModTensorElement:
    """Right B-action on the last slot."""
    return t._map(lambda x: right_mult(x, u), t.length)


def mod_merge_at(t: ModTensorElement, i: int) -> ModTensorElement:
    return t._map(lambda x: merge_at(x, i), t.length - 1)


def mod_concat_B(t: ModTensorElement, s: TensorElement) -> ModTensorElement:
    """γ ⊗_B β': merge the last slot of γ into the first slot of β'."""
    return t._map(lambda x: concat_B(x, s), t.length + s.length - 1)


def _bar_d(t: TensorElement) -> TensorElement:
    """𝐝 of the matching word length, zero below the augmentation (on word length 1)."""
    if t.length < 2:
        return TensorElement(t.alg, t.length)
    return bar_differential(t, t.length - 2)


def bar_dN_any(t: ModTensorElement) -> ModTensorElement:
    """𝐝^N on any word length: `_bar_d` on each part (zero on N itself)."""
    return t._map(_bar_d, max(t.length - 1, 1))


def dN_homotopy(t: ModTensorElement) -> ModTensorElement:
    """s(x) = (-1)^{L-1}·(x ⊗_A 1) on word length L, a contraction of 𝐝^N: 𝐝^N s + s 𝐝^N = id.

    x ⊗_A 1 is `mod_concat_B(x, 1 ⊗ 1)`.  𝐝^N is `_bar_d` on each part, so
    take a word x of length L.  Merging slots i, i + 1 of x ⊗ 1 gives
    merge_at(x, i) ⊗ 1 for i < L − 1 and x itself for i = L − 1, so
    𝐝(x ⊗ 1) = 𝐝(x) ⊗ 1 + (-1)^{L-1}·x, with 𝐝x = 0 for L = 1.  Then
    𝐝s(x) = x + (-1)^{L-1}·𝐝(x) ⊗ 1 and s𝐝(x) = (-1)^{L-2}·𝐝(x) ⊗ 1,
    which sum to x.
    """
    s = mod_concat_B(t, TensorElement.unit(t.module.alg, 2))
    return s if t.length % 2 else -s


def _over_e(N: SemifreeModule, j: int, y, d, act):
    """d_N ⊗ 1 + (-1)^{|e|}·1 ⊗ d on e_j ⊗ y, as (index, part) pairs: (j, (-1)^{|e_j|}·d(y)),
    then (i, act(b_ij, y)) for the entries of ∂e_j, i ascending, `act` the left B-action on y."""
    dy = d(y)
    yield j, -dy if N.degrees[j] % 2 else dy
    for i, b in N.into[j]:
        yield i, act(b, y)


def _over_N(t, d, act):
    """d_N ⊗ 1 + (-1)^{|e|}·1 ⊗ d on t = Σ_j e_j ⊗ y_j: the parts of `_over_e` on each e_j ⊗ y_j, summed."""
    parts: dict = {}
    for j, y in t.components.items():
        for i, x in _over_e(t.owner, j, y, d, act):
            _add_to(parts, i, x)
    return t._like(parts)


def module_differential(t: ModTensorElement) -> ModTensorElement:
    """Internal DG differential of N ⊗_A B^{⊗_A m} (not the bar differential).

    On e_j ⊗ x_j: (-1)^{|e_j|} e_j ⊗ d(x_j) plus e_i ⊗ b_ij·x_j for i < j.
    """
    return _over_N(t, tensor_differential, left_mult)


# -- N (x) T and the beta splitting ----------------------------------------------


class NTElement(GradedElement):
    """Element Σ_j e_j ⊗ y_j of N ⊗_A T = N ⊗_B 𝔹; `components` maps j -> y_j ∈ 𝔹.

    It prints by word length n first, then as the `ModTensorElement` of component n of every y_j.
    """

    __slots__ = ()
    module = property(lambda self: self.owner)

    def __init__(self, module: SemifreeModule, components: dict | None = None):
        self.owner = module
        self.components = {j: y for j, y in (components or {}).items() if not y.is_zero()}

    def key_degree(self, j: int) -> int:
        return self.owner.degrees[j]

    def component(self, j: int) -> BBElement:
        y = self.components.get(j)
        return BBElement(self.owner.alg) if y is None else y

    def __repr__(self):
        return self._text({})

    def _text(self, memo: dict) -> str:
        """The text of `__repr__`, each word keyed and spelt through `memo` (see `_render`)."""
        by_length: dict = {}
        for j, y in self.components.items():
            for n, x in y.components.items():
                by_length.setdefault(n, {})[j] = x
        return " ++ ".join(f"[{n}] {_render(self.owner, parts, memo)}" for n, parts in sorted(by_length.items())) or "0"


def nt_right_mult(t: NTElement, u: AlgElement) -> NTElement:
    return t._like({j: y._like({n: right_mult(x, u) for n, x in y.components.items()})
                    for j, y in t.components.items()})


def _prefix_action(b: AlgElement, y: BBElement) -> BBElement:
    """b·y on 𝔹: b twisted by n multiplies slot 0 of component n, passing its n suspended factors."""
    return y._like({n: left_mult(b.twisted(n), x) for n, x in y.components.items()})


def DN(t: NTElement) -> NTElement:
    """The differential of N ⊗_A T = N ⊗_B 𝔹: `_over_N` with 𝔻 (`semifree.DD`)."""
    return _over_N(t, DD, _prefix_action)


def alpha_N(t: NTElement) -> ModTensorElement:
    """id_N ⊗ α: multiply out component 0 of each y_j."""
    return ModTensorElement._of_parts(t.module, 1, {j: merge_at(y.component(0), 0) for j, y in t.components.items()})


def _beta_pass(N: SemifreeModule):
    """(j, betas) for j = 0, 1, ..., with betas[j] = β_N(e_j), in one pass.

    β_N(e_λ) = e_λ ⊗ 1 ⊗ 1 + Σ_{μ<λ, b_{μλ} ≠ 0} β_N(e_μ) ⊗_B δ(b_{μλ}),
    component m of y_h in β_N(e_μ) moving to component m + 1 of y_h signed
    (-1)^{|e_h|+m}; `betas` keeps β_N(e_i) only while a later ∂e_k
    has a term at e_i, all that this and a chain-map check at e_j read.
    By induction on λ, this is the sum over the chains μ_m < ... < μ_1 < λ
    of e_h ⊗ 1 ⊗ δ(b_1) ⊗_B ... ⊗_B δ(b_m), h = μ_m, b_1 = b_{μ_m μ_{m-1}},
    b_m = b_{μ_1 λ}, signed (-1)^{Σ_j |e_{μ_j}| + Σ_{i<m} (m-i)|b_i|}: a
    chain of λ is a chain of μ_1 (possibly empty) and the step μ_1 → λ,
    appending δ(b_m) commutes with prepending the 1, and the two signs
    differ by (-1)^{|e_{μ_1}| + Σ_{i<m} |b_i|} = (-1)^{|e_h| + m - 1}, as
    |e_{μ_1}| = |e_h| + Σ_{i<m} |b_i| + m - 1 by homogeneity.
    """
    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    last_use = {i: k for i, k in sorted(N.diff)}
    betas: dict = {}
    for j in range(len(N.names)):
        parts = {j: BBElement.one(N.alg)}
        for i, b in N.into[j]:
            db = delta(b)
            for h, y in betas[i].components.items():
                _add_to(parts, h, y._like({m + 1: concat_B(x, (db, -db)[(N.degrees[h] + m) % 2])
                                           for m, x in y.components.items()}))
        betas[j] = NTElement(N, parts)
        yield j, betas
        for i in [i for i in betas if last_use.get(i, -1) <= j]:
            del betas[i]


def beta_N(N: SemifreeModule, lam: str) -> NTElement:
    """The splitting series β_N(e_λ) = e_λ⊗1 + Σ e_μ ⊗ δ(b)-chains, by `_beta_pass` up to λ."""
    for j, betas in _beta_pass(N):
        if N.names[j] == lam:
            return betas[j]
    raise KeyError(lam)


NO_GENERATOR = "the module has no generator, so nothing was checked"
NO_NULLSPACE_VECTOR = "no nullspace vector in the window, so nothing was checked"
NOT_CONTRACTED = "appending 1 does not contract d^N, so its cycles were not listed"


def _section_checks(N: SemifreeModule, images, aug, right, d, zero) -> tuple[list, bool, bool]:
    """Rows (name, f(e_name)) and whether f is a chain map and a section of `aug`, generator by generator.

    `images` yields (j, f) with f[i] = f(e_i) for i = j and each e_i in ∂e_j.
    The chain map check is Σ_i f(e_i)·b_ij = d(f(e_j)), the b_ij the entries
    of ∂e_j, `right` the right B-action (linear in b) and `zero` the zero
    value.  Both verdicts fail on a module without generators.  A row is
    the `repr` of f(e_j), rendered through one memo for all the rows.
    """
    rows, chain, split, memo = [], True, True, {}
    for j, f in images:
        name = N.names[j]
        split = aug(f[j]) == mod_element(N, name) and split
        chain = sum((right(f[i], b) for i, b in N.into[j]), zero) == d(f[j]) and chain
        rows.append((name, f[j]._text(memo)))
    return rows, chain and bool(rows), split and bool(rows)


def check_beta(N: SemifreeModule) -> tuple[ValidationReport, list]:
    """β_N is a chain map N → N ⊗_A T and α_N∘β_N = id_N, generator by generator.

    Returns the report and the table rows (name, β_N(e_name)).  The β's come
    from one `_beta_pass`, which builds each β_N(e_j) once; the β's it keeps
    at e_j are those the chain map at e_j reads.  A module without generators
    fails both lines.
    """
    rows, chain, split = _section_checks(N, _beta_pass(N), alpha_N, nt_right_mult, DN, NTElement(N))
    no_gen = "" if N.names else NO_GENERATOR
    rep = ValidationReport()
    rep.add("beta-chain-map", chain, no_gen)
    rep.add("alphaN-betaN-identity", split, no_gen)
    return rep, rows


# -- naive lifting ----------------------------------------------------------------


class LiftResult:
    def __init__(self, liftable: bool, rho: dict | None, certificate: InfeasibilityCertificate | None,
                 system_rows: int, system_cols: int, system: SliceMatrix | None = None, rhs: list | None = None):
        self.liftable = liftable
        self.rho = rho                  # basis name -> ModTensorElement (length 2)
        self.certificate = certificate
        self.system_rows = system_rows
        self.system_cols = system_cols
        self.system = system            # A of the solved system A x = b
        self.rhs = rhs                  # b

    def __repr__(self):
        tag = "Liftable" if self.liftable else "NotLiftable"
        return f"{tag}(system {self.system_rows}x{self.system_cols})"


def modtensor_basis(N: SemifreeModule, length: int, degree: int) -> list:
    """Canonical (idx, word) basis of the degree slice of N ⊗_A B^{⊗(length-1)}.

    Index first, in generator order (not by degree), then the words of the
    cached `tensor_basis` slice of degree `degree` − |e_idx|.
    """
    return [(i, w) for i, d in enumerate(N.degrees) if d <= degree for w in tensor_basis(N.alg, length, degree - d)]


def naive_lift_solve(N: SemifreeModule) -> LiftResult:
    """Exact decision: does π_N : N ⊗_A B → N split as DG B-modules?

    ρ is sought via its images ρ(e_λ) in the finite slices (N ⊗_A B)_{|e_λ|},
    subject to π_N ρ(e_λ) = e_λ and ρ(∂ e_λ) = ∂(ρ(e_λ)).  No truncation:
    N is finitely generated and every graded piece of B is finite.

    The unknowns (j, lab) are the coordinates of ρ(e_j).  The rows
    ("pi", j, key) are the coordinates of π_N ρ(e_j) − e_j, and the rows
    ("chain", j, key) those of Σ_μ ρ(e_μ)·b_{μj} − ∂(ρ(e_j)) in degree
    |e_j| − 1; this row order fixes the row indices a certificate reports.
    """
    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    f = N.alg.field
    unit = (N.alg.one_mono,)

    def column(j: int, lab) -> dict:
        """The column of e_i ⊗ w in ρ(e_j), lab = (i, w): the kernels on the one word w, routed by index."""
        i, w = lab
        x = TensorElement(N.alg, 2, {w: f.one})
        col = {("pi", j, (i, v)): c for v, c in merge_at(x, 0).terms.items()}
        for k, y in _over_e(N, i, x, tensor_differential, left_mult):
            col.update((("chain", j, (k, v)), f.neg(c)) for v, c in y.terms.items())
        for k, b in N.out_of[j]:
            col.update((("chain", k, (i, v)), c) for v, c in right_mult(x, b).terms.items())
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


def check_rho(N: SemifreeModule, rho: dict) -> tuple[ValidationReport, list]:
    """A naive lift ρ (generator name -> image) splits π_N and is a chain map,
    generator by generator; a module without generators fails both lines.

    Returns the report and the table rows (name, ρ(e_name)), as `check_beta` does.
    """
    fs = [rho[name] for name in N.names]
    rows, chain, split = _section_checks(N, ((j, fs) for j in range(len(fs))), lambda x: mod_merge_at(x, 0),
                                         mod_right_mult, module_differential, ModTensorElement(N, 2))
    no_gen = "" if N.names else NO_GENERATOR
    rep = ValidationReport()
    rep.add("rho-splits-augmentation", split, no_gen)
    rep.add("rho-chain-map", chain, no_gen)
    return rep, rows


LEMMA_MAX_DEGREE = 6  # the sampled elements of `lemma_sign_check` have degree <= 6
LEMMA_MAX_WORDS = 4   # and 1..4 tensor factors


def lemma_sign_check(N: SemifreeModule, samples: int, seed: int) -> ValidationReport:
    """Bar-differential concatenation identities on random homogeneous elements.

    For β ∈ B^{⊗_A n}, β' ∈ B^{⊗_A m}, γ ∈ N ⊗_A B^{⊗_A n} (n, m >= 1):

        𝐝(β ⊗_B β')  = 𝐝(β) ⊗_B β' + (-1)^{n+1} β ⊗_B 𝐝(β')
        𝐝^N(γ ⊗_B β') = 𝐝^N(γ) ⊗_B β' + (-1)^n  γ ⊗_B 𝐝(β')

    with 𝐝 the bar differential of the matching word length and zero below
    the augmentation.  Counterexamples are reported verbatim.  A sampled
    pair with a zero factor, or with n + m < 3 for the first identity, is
    skipped; an identity that no sampled pair reached fails, since its
    PASS would rest on nothing.
    """
    alg = N.alg
    rng = random.Random(seed)
    rep = ValidationReport()

    bad1 = bad2 = None
    checked1 = checked2 = 0
    for _ in range(samples):
        n = rng.randrange(1, LEMMA_MAX_WORDS + 1)
        m = rng.randrange(1, LEMMA_MAX_WORDS + 1)
        beta = random_homogeneous_tensor(alg, rng, n, rng.randrange(0, LEMMA_MAX_DEGREE + 1))
        betap = random_homogeneous_tensor(alg, rng, m, rng.randrange(0, LEMMA_MAX_DEGREE + 1))
        # 𝐝(β'), read by both identities when m >= 2; it draws nothing from rng
        d_betap = _bar_d(betap) if m >= 2 and not betap.is_zero() else None
        if n + m >= 3 and not beta.is_zero() and not betap.is_zero():
            checked1 += 1
            lhs = _bar_d(concat_B(beta, betap))
            rhs = TensorElement(alg, n + m - 2)
            if n >= 2:
                rhs = rhs + concat_B(_bar_d(beta), betap)
            if m >= 2:
                piece = concat_B(beta, d_betap)
                rhs = rhs + (piece if (n + 1) % 2 == 0 else -piece)
            if lhs != rhs and bad1 is None:
                bad1 = (beta, betap, lhs, rhs)
        gamma = random_homogeneous_modtensor(N, rng, n + 1, rng.randrange(0, LEMMA_MAX_DEGREE + 1))
        if gamma.is_zero() or betap.is_zero():
            continue
        checked2 += 1
        lhs2 = bar_dN_any(mod_concat_B(gamma, betap))
        rhs2 = mod_concat_B(bar_dN_any(gamma), betap)
        if m >= 2:
            piece = mod_concat_B(gamma, d_betap)
            rhs2 = rhs2 + (piece if n % 2 == 0 else piece.scale_int(-1))
        if lhs2 != rhs2 and bad2 is None:
            bad2 = (gamma, betap, lhs2, rhs2)

    def add(name, checked, bad, first):
        if not checked:
            rep.add(name, False, "no sampled pair was checked")
        else:
            rep.add(name, bad is None, "" if bad is None
                    else f"{first}={bad[0]!r} beta'={bad[1]!r} lhs={bad[2]!r} rhs={bad[3]!r}")

    add("concat-identity-bar", checked1, bad1, "beta")
    add("concat-identity-module", checked2, bad2, "gamma")
    return rep


def lambda_n(N: SemifreeModule, rho: dict, n: int, t: ModTensorElement) -> ModTensorElement:
    """λ_n : N ⊗_B B^{⊗_A n} → N ⊗_B B^{⊗_A (n+1)}, x⊗β ↦ ρ(x)⊗_B β."""
    if n < 2:
        raise DgresError("λ_n is defined for n >= 2")
    if t.length != n:
        raise ShapeMismatch(f"expected word length {n}, got {t.length}")
    out = ModTensorElement(N, n + 1)
    for i, x in t.components.items():
        out = out + mod_concat_B(rho[N.names[i]], x)
    return out


def check_lambda_splitting(N: SemifreeModule, rho: dict, max_degree: int) -> ValidationReport:
    """𝐝^N∘λ_n = id on every cycle of 𝐝^N of word length n = 2, 3 and degree <= max_degree.

    The cycles of a slice are spanned by the x − s(𝐝^N x) over its basis
    (`bar.contracted_cycles`, s = `dN_homotopy`), and x ↦ 𝐝^N λ_n(x) − x is
    linear, so it vanishes on every cycle exactly when it vanishes on each
    of them.  A window with no nonzero cycle fails, since its PASS would
    rest on nothing, and so does an s that fails its certificate.
    """
    one = N.alg.field.one
    contracted, checked = True, []
    for n in range(2, 4):
        for d in range(0, max_degree + 1):
            cycles = contracted_cycles([ModTensorElement(N, n, {key: one}) for key in modtensor_basis(N, n, d)],
                                       bar_dN_any, dN_homotopy)
            contracted = contracted and cycles is not None
            checked += [(n, y) for y in cycles or ()]
    ok = contracted and all(bar_dN_any(lambda_n(N, rho, n, y)) == y for n, y in checked)
    rep = ValidationReport()
    rep.add("lambda-splitting-identities", ok and bool(checked),
            NOT_CONTRACTED if not contracted else "" if checked else NO_NULLSPACE_VECTOR)
    return rep
