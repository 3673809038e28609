"""Finitely generated semifree DG B-modules, their bar complexes, the β_N
splitting of the diagonal tensor resolution, and exact naive lifting.

Elements of N ⊗_A B^{⊗_A m} are stored as (basis index, word) pairs where the
word has length m+1: slot 0 carries the B-coefficient of the basis element
and slots 1..m the tensor factors (ext-only, as in `tensor`).  Under this
convention the bar differential is again an alternating sum of slot merges,
with the i = 0 merge realizing x ⊗ b_1 ↦ x·b_1.

Elements of N ⊗_A T are stored per word-length component exactly like 𝔹,
tagged by the basis index; the component-n word has length n+2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgElement, DGAlgebra, ValidationReport
from .errors import DgresError, LengthMismatch, NotValidated, ShapeMismatch
from .linalg import InfeasibilityCertificate, SliceMatrix, solve_linear
from .tensor import TensorElement, delta, concat_B, normalize_word, tensor_basis, word_degree


class SemifreeModule:
    """Semifree right DG B-module with ordered finite basis.

    `basis` is a list of (name, degree); `diff_entries` maps (mu_name,
    lam_name) to the coefficient b_{μλ} ∈ B of e_μ in ∂(e_λ), raw-term data
    or AlgElement.  Only mu < lam entries are allowed (strict triangularity).
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
        self._validated = None

    def entry(self, i: int, j: int) -> AlgElement:
        return self.diff.get((i, j), self.alg.zero())

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
    bad = []
    for j in range(len(N.names)):
        for i in range(j):
            # coefficient of e_i in ∂²(e_j)
            acc = alg.zero()
            for k in range(i + 1, j):
                acc = acc + N.entry(i, k) * N.entry(k, j)
            d_entry = alg.d(N.entry(i, j))
            sign = -1 if N.degrees[i] % 2 else 1
            acc = acc + d_entry.scale_int(sign)
            if not acc.is_zero():
                bad.append(f"({N.names[i]},{N.names[j]})")
    rep.add("d-squared-zero", not bad, "" if not bad else "∂² != 0 at " + ", ".join(bad[:4]))
    N._validated = rep.passed
    return rep


class ModTensorElement:
    """Element of N ⊗_A B^{⊗_A (length-1)}; terms map (idx, word) -> scalar."""

    __slots__ = ("module", "length", "terms")

    def __init__(self, module: SemifreeModule, length: int, terms: dict | None = None):
        self.module = module
        self.length = length
        self.terms = terms or {}

    def _add_raw(self, idx: int, word, coeff):
        f = self.module.alg.field
        if coeff == f.zero:
            return
        nw = normalize_word(self.module.alg, word)
        if nw is None:
            return
        sign, w = nw
        if sign < 0:
            coeff = f.neg(coeff)
        key = (idx, w)
        s = f.add(self.terms.get(key, f.zero), coeff)
        if s == f.zero:
            self.terms.pop(key, None)
        else:
            self.terms[key] = s

    def _check(self, other):
        if self.module is not other.module or self.length != other.length:
            raise ShapeMismatch("module tensor elements of different shapes")

    def __add__(self, other):
        self._check(other)
        out = ModTensorElement(self.module, self.length, dict(self.terms))
        f = self.module.alg.field
        for key, c in other.terms.items():
            s = f.add(out.terms.get(key, f.zero), c)
            if s == f.zero:
                out.terms.pop(key, None)
            else:
                out.terms[key] = s
        return out

    def __sub__(self, other):
        return self + other.scale_int(-1)

    def scale(self, c):
        f = self.module.alg.field
        if c == f.zero:
            return ModTensorElement(self.module, self.length)
        return ModTensorElement(self.module, self.length,
                                {k: f.mul(v, c) for k, v in self.terms.items()})

    def scale_int(self, n: int):
        return self.scale(self.module.alg.field.of_int(n))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ModTensorElement):
            return NotImplemented
        return self.module is other.module and self.length == other.length and self.terms == other.terms

    def degrees(self):
        return {self.module.degrees[i] + word_degree(w) for (i, w) in self.terms}

    def homogeneous_degree(self):
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise DgresError("not homogeneous")
        return degs.pop()

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0], word_degree(kv[0][1]), tuple(m.sort_key() for m in kv[0][1])),
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.module.alg
        parts = []
        for (i, w), c in self.sorted_terms():
            body = self.module.names[i] + "." + "(x)".join(alg.mono_repr(m) for m in w)
            parts.append(f"{c}*{body}" if c != alg.field.one else body)
        return " + ".join(parts)


def mod_element(module: SemifreeModule, name: str, coeff=None) -> ModTensorElement:
    """The basis element e_name as an element of N (word length 1)."""
    alg = module.alg
    c = alg.field.one if coeff is None else coeff
    return ModTensorElement(module, 1, {(module.index[name], (alg.one_mono,)): c})


def mod_right_mult(t: ModTensorElement, u: AlgElement) -> ModTensorElement:
    """Right B-action on the last slot."""
    alg = t.module.alg
    f = alg.field
    out = ModTensorElement(t.module, t.length)
    for (i, w), c in t.terms.items():
        for mu, cu in u.terms.items():
            sm = alg.mono_mul(w[-1], mu)
            if sm is None:
                continue
            s, ml = sm
            cc = f.mul(c, cu)
            if s < 0:
                cc = f.neg(cc)
            out._add_raw(i, w[:-1] + (ml,), cc)
    return out


def mod_merge_at(t: ModTensorElement, i: int) -> ModTensorElement:
    alg = t.module.alg
    f = alg.field
    out = ModTensorElement(t.module, t.length - 1)
    for (idx, w), c in t.terms.items():
        sm = alg.mono_mul(w[i], w[i + 1])
        if sm is None:
            continue
        s, m = sm
        out._add_raw(idx, w[:i] + (m,) + w[i + 2:], f.neg(c) if s < 0 else c)
    return out


def dN(t: ModTensorElement, n: int) -> ModTensorElement:
    """Bar differential 𝐝^N_{n-1} on N ⊗_A B^{⊗_A n} ⊗_A B (word length n+2)."""
    if t.length != n + 2:
        raise ShapeMismatch(f"expected word length {n + 2}, got {t.length}")
    out = mod_merge_at(t, 0)
    for i in range(1, n + 1):
        piece = mod_merge_at(t, i)
        out = out + (piece if i % 2 == 0 else piece.scale_int(-1))
    return out


def bar_dN_any(t: ModTensorElement) -> ModTensorElement:
    """𝐝^N on any word length (zero on N itself where the index drops below -1)."""
    if t.length < 2:
        return ModTensorElement(t.module, t.length)
    return dN(t, t.length - 2)


def module_differential(t: ModTensorElement) -> ModTensorElement:
    """Internal DG differential of N ⊗_A B^{⊗_A m} (not the bar differential)."""
    mod = t.module
    alg = mod.alg
    f = alg.field
    out = ModTensorElement(mod, t.length)
    for (j, w), c in t.terms.items():
        for i in range(j):
            b = mod.diff.get((i, j))
            if b is None:
                continue
            for mb, cb in b.terms.items():
                sm = alg.mono_mul(mb, w[0])
                if sm is None:
                    continue
                s, m0 = sm
                cc = f.mul(c, cb)
                if s < 0:
                    cc = f.neg(cc)
                out._add_raw(i, (m0,) + w[1:], cc)
        esign = mod.degrees[j] % 2
        prefix = 0
        for k, m in enumerate(w):
            dm = alg.diff_mono(m)
            if not dm.is_zero():
                cc = f.neg(c) if (prefix + esign) % 2 else c
                for mm, cm in dm.terms.items():
                    out._add_raw(j, w[:k] + (mm,) + w[k + 1:], f.mul(cc, cm))
            prefix += m.degree
    return out


# -- N (x) T and the beta splitting ----------------------------------------------


class NTElement:
    """Element of N ⊗_A T by word-length component (stored like 𝔹 with a tag)."""

    __slots__ = ("module", "components")

    def __init__(self, module: SemifreeModule, components: dict | None = None):
        self.module = module
        self.components = {}
        for n, t in (components or {}).items():
            if not t.is_zero():
                if t.length != n + 2:
                    raise LengthMismatch(f"component {n} must have word length {n + 2}")
                self.components[n] = t

    def component(self, n: int) -> ModTensorElement:
        return self.components.get(n, ModTensorElement(self.module, n + 2))

    def __add__(self, other):
        comps = dict(self.components)
        for n, t in other.components.items():
            comps[n] = comps[n] + t if n in comps else t
        return NTElement(self.module, comps)

    def __sub__(self, other):
        return self + other.scale_int(-1)

    def scale_int(self, k: int):
        return NTElement(self.module, {n: t.scale_int(k) for n, t in self.components.items()})

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, NTElement):
            return NotImplemented
        return self.module is other.module and self.components == other.components

    def __repr__(self):
        if not self.components:
            return "0"
        return " ++ ".join(f"[{n}] {t!r}" for n, t in sorted(self.components.items()))


def nt_right_mult(t: NTElement, u: AlgElement) -> NTElement:
    return NTElement(t.module, {n: mod_right_mult(c, u) for n, c in t.components.items()})


def DN(t: NTElement) -> NTElement:
    """The differential of N ⊗_A T transported from N ⊗_B (𝔹, 𝔻).

    On the component of word length n:  Σ_μ (-1)^{n|b_{μλ}|} e_μ b_{μλ}·(-)
    plus (-1)^{|e_λ|} ((-1)^n ∂_flat + merge01).
    """
    mod = t.module
    alg = mod.alg
    f = alg.field
    out: dict[int, ModTensorElement] = {}

    def acc(n, el):
        if el.is_zero():
            return
        out[n] = out[n] + el if n in out else el

    for n, te in t.components.items():
        for (j, w), c in te.terms.items():
            # ∂^N part: left multiplication by b_{μλ}, with the shuffle sign
            for i in range(j):
                b = mod.diff.get((i, j))
                if b is None:
                    continue
                piece = ModTensorElement(mod, te.length)
                for mb, cb in b.terms.items():
                    sgn = -1 if (n * mb.degree) % 2 else 1
                    sm = alg.mono_mul(mb, w[0])
                    if sm is None:
                        continue
                    s, m0 = sm
                    cc = f.mul(c, cb)
                    if sgn * s < 0:
                        cc = f.neg(cc)
                    piece._add_raw(i, (m0,) + w[1:], cc)
                acc(n, piece)
            # internal part
            ksign = -1 if (mod.degrees[j] + n) % 2 else 1
            piece = ModTensorElement(mod, te.length)
            prefix = 0
            for k, m in enumerate(w):
                dm = alg.diff_mono(m)
                if not dm.is_zero():
                    cc = f.neg(c) if prefix % 2 else c
                    if ksign < 0:
                        cc = f.neg(cc)
                    for mm, cm in dm.terms.items():
                        piece._add_raw(j, w[:k] + (mm,) + w[k + 1:], f.mul(cc, cm))
                prefix += m.degree
            acc(n, piece)
            # merge part, with the Koszul sign (-1)^{|e_λ|} of id_N ⊗ 𝔇
            if n >= 1:
                piece = ModTensorElement(mod, te.length - 1)
                sm = alg.mono_mul(w[0], w[1])
                if sm is not None:
                    s, m = sm
                    sign = (-1 if mod.degrees[j] % 2 else 1) * s
                    piece._add_raw(j, (m,) + w[2:], f.neg(c) if sign < 0 else c)
                acc(n - 1, piece)
    return NTElement(mod, out)


def alpha_N(t: NTElement) -> ModTensorElement:
    """id_N ⊗ α: multiply out the component of word length 0."""
    mod = t.module
    c0 = t.components.get(0)
    if c0 is None:
        return ModTensorElement(mod, 1)
    return mod_merge_at(c0, 0)


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


def beta_N(N: SemifreeModule, lam: str) -> NTElement:
    """The splitting series β_N(e_λ) = e_λ⊗1 + Σ e_μ ⊗ δ(b)-chains.

    Depth-first over strictly decreasing chains below λ; δ-words are built
    by extending memoized suffixes on the left.
    """
    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    alg = N.alg
    j = N.index[lam]
    out = NTElement(N, {0: ModTensorElement(N, 2, {
        (j, (alg.one_mono, alg.one_mono)): alg.field.one})})
    # suffix_words[(i, depth)] collects (chain_mu_degrees, delta-word TensorElement)
    # for chains i < mu_{depth-1} < ... < mu_1 < lam starting the word at i.
    memo: dict[tuple, TensorElement] = {}

    def chain_word(chain: tuple[int, ...]) -> TensorElement:
        # chain = (mu_m, ..., mu_1) indices descending towards lam at the right
        got = memo.get(chain)
        if got is not None:
            return got
        if len(chain) == 1:
            w = delta(N.entry(chain[0], j))
        else:
            w = concat_B(delta(N.entry(chain[0], chain[1])), chain_word(chain[1:]))
        memo[chain] = w
        return w

    def rec(chain: tuple[int, ...]):
        nonlocal out
        head = chain[0]
        word = chain_word(chain)
        if not word.is_zero():
            m = len(chain)
            full = chain + (j,)
            entry_degs = [N.entry(a, b).homogeneous_degree() for a, b in zip(full, full[1:])]
            sign = _beta_stored_sign(m, sum(N.degrees[i] for i in chain), entry_degs)
            comp = ModTensorElement(N, m + 2)
            for w, c in word.terms.items():
                comp._add_raw(head, (alg.one_mono,) + w,
                              alg.field.neg(c) if sign < 0 else c)
            out = out + NTElement(N, {m: comp})
        for i in range(head):
            if (i, head) in N.diff:
                rec((i,) + chain)

    for i in range(j):
        if (i, j) in N.diff:
            rec((i,))
    return out


def module_N_differential(t: ModTensorElement) -> ModTensorElement:
    """∂^N on elements of N (word length 1)."""
    if t.length != 1:
        raise ShapeMismatch("expected an element of N")
    return module_differential(t)


# -- naive lifting ----------------------------------------------------------------


@dataclass
class LiftResult:
    liftable: bool
    rho: dict | None                 # basis name -> ModTensorElement (length 2)
    certificate: InfeasibilityCertificate | None
    system_rows: int
    system_cols: int
    system: SliceMatrix | None = None  # A of the solved system A x = b
    rhs: list | None = None            # b

    def __repr__(self):
        tag = "Liftable" if self.liftable else "NotLiftable"
        return f"{tag}(system {self.system_rows}x{self.system_cols})"


def modtensor_basis(N: SemifreeModule, length: int, degree: int):
    """Canonical (idx, word) basis of the degree slice of N ⊗_A B^{⊗(length-1)}."""
    out = []
    for i, d in enumerate(N.degrees):
        rem = degree - d
        if rem < 0:
            continue
        for w in tensor_basis(N.alg, length, rem):
            out.append((i, w))
    return out


def apply_rho(rho: dict, t: ModTensorElement) -> ModTensorElement:
    """Extend ρ (given on basis elements) right-B-linearly to N."""
    if t.length != 1:
        raise ShapeMismatch("ρ applies to elements of N")
    N = t.module
    out = ModTensorElement(N, 2)
    for (i, w), c in t.terms.items():
        img = rho[N.names[i]]
        out = out + mod_right_mult(img, N.alg.from_monomial(w[0], c))
    return out


def naive_lift_solve(N: SemifreeModule) -> LiftResult:
    """Exact decision: does π_N : N ⊗_A B → N split as DG B-modules?

    ρ is sought via its images ρ(e_λ) in the finite slices (N ⊗_A B)_{|e_λ|},
    subject to π_N ρ(e_λ) = e_λ and ρ(∂ e_λ) = ∂(ρ(e_λ)).  No truncation:
    N is finitely generated and every graded piece of B is finite.
    """
    if N._validated is None:
        validate_module(N)
    if not N._validated:
        raise NotValidated("module failed validation")
    alg = N.alg
    f = alg.field

    var_basis = {}   # lam index -> list of (idx, word)
    var_offset = {}
    total = 0
    for j, name in enumerate(N.names):
        vb = modtensor_basis(N, 2, N.degrees[j])
        var_basis[j] = vb
        var_offset[j] = total
        total += len(vb)

    rows = []  # (dict col->coeff, rhs scalar)

    # π ρ(e_j) = e_j  (coordinates over N-slice basis)
    for j, name in enumerate(N.names):
        n_basis = modtensor_basis(N, 1, N.degrees[j])
        n_index = {lab: k for k, lab in enumerate(n_basis)}
        row_acc = [dict() for _ in n_basis]
        for k, lab in enumerate(var_basis[j]):
            el = ModTensorElement(N, 2, {lab: f.one})
            img = mod_merge_at(el, 0)
            for key, c in img.terms.items():
                row_acc[n_index[key]][var_offset[j] + k] = c
        target = mod_element(N, name)
        for r, lab in enumerate(n_basis):
            rhs = target.terms.get(lab, f.zero)
            rows.append((row_acc[r], rhs))

    # chain condition: Σ_μ ρ(e_μ)·b_{μj} - ∂(ρ(e_j)) = 0 in degree |e_j| - 1
    for j, name in enumerate(N.names):
        tgt_basis = modtensor_basis(N, 2, N.degrees[j] - 1)
        tgt_index = {lab: k for k, lab in enumerate(tgt_basis)}
        row_acc = [dict() for _ in tgt_basis]

        def add_image(img: ModTensorElement, col: int, sign: int):
            for key, c in img.terms.items():
                cur = row_acc[tgt_index[key]]
                val = f.add(cur.get(col, f.zero), f.neg(c) if sign < 0 else c)
                if val == f.zero:
                    cur.pop(col, None)
                else:
                    cur[col] = val

        for k, lab in enumerate(var_basis[j]):
            el = ModTensorElement(N, 2, {lab: f.one})
            add_image(module_differential(el), var_offset[j] + k, -1)
        for i in range(j):
            b = N.diff.get((i, j))
            if b is None:
                continue
            for k, lab in enumerate(var_basis[i]):
                el = ModTensorElement(N, 2, {lab: f.one})
                add_image(mod_right_mult(el, b), var_offset[i] + k, +1)
        for r in range(len(tgt_basis)):
            rows.append((row_acc[r], f.zero))

    A = SliceMatrix(f, len(rows), total)
    b_vec = []
    for r, (row, rhs) in enumerate(rows):
        for col, c in row.items():
            A.set(r, col, c)
        b_vec.append(rhs)
    x, cert = solve_linear(A, b_vec)
    if x is None:
        return LiftResult(False, None, cert, len(rows), total, A, b_vec)
    rho = {}
    for j, name in enumerate(N.names):
        el = ModTensorElement(N, 2)
        for k, lab in enumerate(var_basis[j]):
            c = x[var_offset[j] + k]
            if c != f.zero:
                el = el + ModTensorElement(N, 2, {lab: c})
        rho[name] = el
    return LiftResult(True, rho, None, len(rows), total, A, b_vec)


def mod_concat_B(t: ModTensorElement, s: TensorElement) -> ModTensorElement:
    """γ ⊗_B β': merge the last slot of γ into the first slot of β'."""
    alg = t.module.alg
    f = alg.field
    out = ModTensorElement(t.module, t.length + s.length - 1)
    for (i, w), c in t.terms.items():
        for v, cv in s.terms.items():
            sm = alg.mono_mul(w[-1], v[0])
            if sm is None:
                continue
            sg, mm = sm
            cc = f.mul(c, cv)
            if sg < 0:
                cc = f.neg(cc)
            out._add_raw(i, w[:-1] + (mm,) + v[1:], cc)
    return out


def lemma_sign_check(N: SemifreeModule, samples: int, seed: int,
                     max_degree: int = 6, max_words: int = 4) -> ValidationReport:
    """Bar-differential concatenation identities on random homogeneous elements.

    For β ∈ B^{⊗_A n}, β' ∈ B^{⊗_A m}, γ ∈ N ⊗_A B^{⊗_A n} (n, m >= 1):

        𝐝(β ⊗_B β')  = 𝐝(β) ⊗_B β' + (-1)^{n+1} β ⊗_B 𝐝(β')
        𝐝^N(γ ⊗_B β') = 𝐝^N(γ) ⊗_B β' + (-1)^n  γ ⊗_B 𝐝(β')

    with 𝐝 the bar differential of the matching word length and zero below
    the augmentation.  Counterexamples are reported verbatim.
    """
    import random as _random

    from .bar import bar_differential
    from .sampling import random_homogeneous_modtensor, random_homogeneous_tensor
    from .tensor import concat_B as _concat

    alg = N.alg
    rng = _random.Random(seed)
    rep = ValidationReport()

    def bar_d(t: TensorElement) -> TensorElement:
        if t.length < 2:
            return TensorElement(alg, max(t.length - 1, 1))
        return bar_differential(t, t.length - 2)

    bad1 = bad2 = None
    for _ in range(samples):
        n = rng.randrange(1, max_words + 1)
        m = rng.randrange(1, max_words + 1)
        beta = random_homogeneous_tensor(alg, rng, n, rng.randrange(0, max_degree + 1))
        betap = random_homogeneous_tensor(alg, rng, m, rng.randrange(0, max_degree + 1))
        if n + m >= 3 and not beta.is_zero() and not betap.is_zero():
            lhs = bar_d(_concat(beta, betap))
            rhs = TensorElement(alg, n + m - 2)
            if n >= 2:
                rhs = rhs + _concat(bar_d(beta), betap)
            if m >= 2:
                piece = _concat(beta, bar_d(betap))
                rhs = rhs + (piece if (n + 1) % 2 == 0 else -piece)
            if lhs != rhs and bad1 is None:
                bad1 = (beta, betap, lhs, rhs)
        gamma = random_homogeneous_modtensor(N, rng, n + 1, rng.randrange(0, max_degree + 1))
        if gamma.is_zero() or betap.is_zero():
            continue
        lhs2 = bar_dN_any(mod_concat_B(gamma, betap))
        rhs2 = mod_concat_B(bar_dN_any(gamma), betap)
        if m >= 2:
            piece = mod_concat_B(gamma, bar_d(betap))
            rhs2 = rhs2 + (piece if n % 2 == 0 else piece.scale_int(-1))
        if lhs2 != rhs2 and bad2 is None:
            bad2 = (gamma, betap, lhs2, rhs2)
    rep.add("concat-identity-bar", bad1 is None,
            "" if bad1 is None else f"beta={bad1[0]!r} beta'={bad1[1]!r} lhs={bad1[2]!r} rhs={bad1[3]!r}")
    rep.add("concat-identity-module", bad2 is None,
            "" if bad2 is None else f"gamma={bad2[0]!r} beta'={bad2[1]!r} lhs={bad2[2]!r} rhs={bad2[3]!r}")
    return rep


def nsex_split_check(N: SemifreeModule, D: int) -> bool:
    """Second decision path for naive liftability: slicewise splitting solve.

    Seeks a degreewise linear s : N_d → (N ⊗_A B)_d for d <= D with
    π_N s = id, the chain condition, and right-linearity under each algebra
    generator inside the window.  With D at least the top basis degree this
    is equivalent to `naive_lift_solve` returning Liftable, but the system
    is parameterized by slice matrices rather than basis images, so it
    exercises an independent code path for the consistency check between
    the two decision procedures.
    """
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

    A = SliceMatrix(f, len(rows), count)
    b = []
    for r, (cols, rhs) in enumerate(rows):
        for c, v in cols.items():
            A.set(r, c, v)
        b.append(rhs)
    x, cert = solve_linear(A, b)
    return x is not None


def lambda_n(N: SemifreeModule, rho: dict, n: int, t: ModTensorElement) -> ModTensorElement:
    """λ_n : N ⊗_B B^{⊗_A n} → N ⊗_B B^{⊗_A (n+1)}, x⊗β ↦ ρ(x)⊗_B β."""
    if n < 2:
        raise DgresError("λ_n is defined for n >= 2")
    if t.length != n:
        raise ShapeMismatch(f"expected word length {n}, got {t.length}")
    alg = N.alg
    f = alg.field
    out = ModTensorElement(N, n + 1)
    for (i, w), c in t.terms.items():
        img = rho[N.names[i]]  # length-2 element
        for (i2, v), c2 in img.terms.items():
            sm = alg.mono_mul(v[1], w[0])
            if sm is None:
                continue
            s, mm = sm
            cc = f.mul(c, c2)
            if s < 0:
                cc = f.neg(cc)
            out._add_raw(i2, (v[0], mm) + w[1:], cc)
    return out
