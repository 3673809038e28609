"""Elements of B^{⊗_A m} in flat coordinates, and the diagonal-ideal calculus.

Words are tuples of monomials.  The ⊗_A-balanced relations are resolved by a
normal form: in every stored word, slots 1..m-1 hold ext-only monomials (the
semifree basis W of B over A), while slot 0 carries the full B-coefficient.
Moving a base-generator part from slot i to slot 0 crosses the ext parts in
between, which is where the Koszul signs of the normal form come from.

The subspaces J^{⊗_B n} ⊆ B^{⊗_A (n+1)} are handled through their left-B
bases {δ(w_1) ⊗_B ... ⊗_B δ(w_n)} with w_i ranging over the nontrivial part
of W; `delta_coords` extracts those coordinates exactly and certifies
membership.

A `TensorElement` is the package's scalar sum (`algebra.ScalarSum`) keyed by
canonical words of one fixed length; it adds only its normal-form steps
and its products.  `concat_B` is the one junction product, and the only
one that knows which slot of a product leaves normal form: `left_mult` and
`right_mult` are it with a one-slot factor on the left or right, δ is
(1 ⊗ 1)·b − b·(1 ⊗ 1), and `bar.bar_homotopy`, `bar.nu`, `bar.bar_action`
and `semifree.bb_word` are compositions of it with the unit 1 ⊗ 1 of B^e.
`pi_B` is `merge_at`(t, 0).  `delta_chain` is the one builder of δ-chains
δ(u_1) ⊗_B ... ⊗_B δ(u_n), and `delta_coords` reads their coordinates off
the words by a closed form.  Direct sums of tensor elements, graded by word
length or indexed by module generators, are `semifree.GradedElement`s.
The canonical order of a degree slice's words is defined once, by
`TensorSlice`, which counts and unranks them and lists them by unranking;
`tensor_basis` is its cached tuple.  Per-algebra tables of bases, δ-words,
columns and slice matrices are kept by `_memo`.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import AlgElement, DGAlgebra, ScalarSum, add_term
from .errors import DgresError, LengthMismatch, NotInJn

Word = tuple  # tuple[Monomial, ...]


def _memo(alg: DGAlgebra, table: str, key, build, *args):
    """The value under key in alg's memo table `table`, stored as build(*args) on first use.

    The tables are `alg._memo_tables` (name -> dict), each made when first
    asked for.  A built value is never None.
    """
    t = alg._memo_tables[table]
    got = t.get(key)
    if got is None:
        got = t[key] = build(*args)
    return got


def word_degree(w: Word) -> int:
    return sum(m.degree for m in w)


def _word_key(w: Word):
    return (word_degree(w), tuple(m.sort_key for m in w))


def normalize_word(alg: DGAlgebra, word: Word):
    """Canonical form of a raw word: (sign, word) or None if it vanishes.

    Every slot from 1 on is split and its base part moved into slot 0.  A
    product of canonical words is out of normal form in one slot at most,
    and `TensorElement._add_at_slot` normalises that slot alone (the
    junction of `concat_B`, or the differentiated slot of
    `tensor_differential`); this function serves the words in which any
    slot may need it (`from_word`, `tensor_multiply`).
    """
    if all(alg.mono_is_ext_only(m) for m in word[1:]):
        return 1, word
    slot0 = word[0]
    sign = 1
    ext_parity = 0  # parity of w_1 ... w_{i-1} accumulated so far
    out = [None] * len(word)
    for i, u in enumerate(word[1:], start=1):
        a, w = alg.mono_split(u)
        if any(a.exps):
            if (a.degree % 2) and (ext_parity % 2):
                sign = -sign
            sm = alg.mono_mul(slot0, a)
            if sm is None:
                return None
            s, slot0 = sm
            sign *= s
        out[i] = w
        ext_parity += w.degree
    out[0] = slot0
    return sign, tuple(out)


class TensorElement(ScalarSum):
    """Finite sum of scalar multiples of canonical words of one fixed length."""

    __slots__ = ("length",)
    key_degree = staticmethod(word_degree)
    key_order = staticmethod(_word_key)
    shape = property(lambda self: self.length)

    def __init__(self, alg: DGAlgebra, length: int, terms: dict | None = None):
        if length < 1:
            raise DgresError("tensor length must be >= 1")
        self.alg = alg
        self.length = length
        self.terms = terms or {}

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement(self.alg, self.length, terms)

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def unit(alg: DGAlgebra, length: int) -> "TensorElement":
        word = (alg.one_mono,) * length
        return TensorElement(alg, length, {word: alg.field.one})

    @staticmethod
    def from_word(alg: DGAlgebra, word: Word, coeff=None) -> "TensorElement":
        c = alg.field.one if coeff is None else coeff
        t = TensorElement(alg, len(word))
        t._add_raw(word, c)
        return t

    def _add_raw(self, word: Word, coeff):
        """Accumulate coeff * word after normalization."""
        if not coeff:
            return
        nw = normalize_word(self.alg, word)
        if nw is not None:
            add_term(self.alg.field, self.terms, nw[1], coeff, nw[0] < 0)

    def _add_at_slot(self, word: Word, i: int, coeff, negate=False):
        """Accumulate coeff * word, negated when `negate`, where word is canonical except perhaps at slot i.

        Split slot i as a·e, with a in A and e ext-only (a·e is the slot with
        sign +1).  Slots 1..i-1 are ext-only, so a reaches slot 0 by crossing
        w_{i-1}, ..., w_1 one at a time; it passes each ⊗_A because a ∈ A,
        and each crossing costs (-1)^{|a||w_k|}, so (-1)^{|a|·(|w_1|+...+|w_{i-1}|)}
        in all.  There it multiplies slot 0 from the right with the `mono_mul`
        sign, and the word vanishes with that product.  Slots after i are
        ext-only already, so the result is canonical.  This is the step that
        `normalize_word` takes at each slot, taken at the one slot that can
        need it; slot 0 holds any B-monomial, so i = 0 needs none.
        """
        alg = self.alg
        s = 1
        if i:
            a, e = alg.mono_split(word[i])
            if a.degree:
                sm = alg.mono_mul(word[0], a)
                if sm is None:
                    return
                s, m0 = sm
                if a.degree % 2 and sum(m.degree for m in word[1:i]) % 2:
                    s = -s
                word = (m0,) + word[1:i] + (e,) + word[i + 1:]
        add_term(alg.field, self.terms, word, coeff, (s < 0) != negate)

    def __hash__(self):
        return hash((id(self.alg), self.length, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.alg
        parts = []
        for w, c in self.sorted_terms():
            body = "(x)".join(alg.mono_repr(m) for m in w)
            parts.append(f"{c}*{body}" if c != alg.field.one else body)
        return " + ".join(parts)


# -- multiplicative structure -------------------------------------------------


def tensor_multiply(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """Componentwise product with the Koszul sign Σ_{i<j} |v_i||u_j|."""
    t1._check(t2)
    alg = t1.alg
    f = alg.field
    out = TensorElement(alg, t1.length)
    for u, cu in t1.terms.items():
        u_par = [m.degree % 2 for m in u]
        # suffix_par[i] = parity of |u_i| + ... + |u_{m-1}|
        suffix_par = [0] * (len(u) + 1)
        for i in range(len(u) - 1, -1, -1):
            suffix_par[i] = (suffix_par[i + 1] + u_par[i]) % 2
        for v, cv in t2.terms.items():
            sign = 1
            raw = []
            ok = True
            exp = 0
            for i, mv in enumerate(v):
                if mv.degree % 2:
                    exp ^= suffix_par[i + 1]
            if exp:
                sign = -sign
            for mu, mv in zip(u, v):
                sm = alg.mono_mul(mu, mv)
                if sm is None:
                    ok = False
                    break
                s, m = sm
                sign *= s
                raw.append(m)
            if not ok:
                continue
            c = f.mul(cu, cv)
            if sign < 0:
                c = f.neg(c)
            out._add_raw(tuple(raw), c)
    return out


def merge_at(t: TensorElement, i: int) -> TensorElement:
    """Multiply slots i and i+1 together (degree-0 chain map)."""
    alg = t.alg
    f = alg.field
    if not (0 <= i < t.length - 1):
        raise LengthMismatch(f"cannot merge slot {i} of a length-{t.length} word")
    out = TensorElement(alg, t.length - 1)
    for w, c in t.terms.items():
        sm = alg.mono_mul(w[i], w[i + 1])
        if sm is not None:
            add_term(f, out.terms, w[:i] + (sm[1],) + w[i + 2:], c, sm[0] < 0)
    return out


def concat_B(t1: TensorElement, t2: TensorElement) -> TensorElement:
    """⊗_B-concatenation: the last slot of t1 multiplies the first slot of t2.

    Of the product word only the junction slot t1.length - 1 can be out of
    normal form (it holds t2's slot 0, a full B-monomial), so it alone is
    normalised.
    """
    if t1.alg is not t2.alg:
        raise DgresError("tensor elements over different algebras")
    alg = t1.alg
    f, mono_mul = alg.field, alg.mono_mul
    out = TensorElement(alg, t1.length + t2.length - 1)
    junction = t1.length - 1
    for w1, c1 in t1.terms.items():
        head, last = w1[:-1], w1[-1]
        for w2, c2 in t2.terms.items():
            sm = mono_mul(last, w2[0])
            if sm is not None:
                out._add_at_slot(head + (sm[1],) + w2[1:], junction, f.mul(c1, c2), sm[0] < 0)
    return out


def left_mult(u: AlgElement, t: TensorElement) -> TensorElement:
    """b·t: `concat_B` with u as a one-slot left factor, so u multiplies slot 0."""
    return concat_B(from_algebra_element(u), t)


def right_mult(t: TensorElement, u: AlgElement) -> TensorElement:
    """t·b: `concat_B` with u as a one-slot right factor, so u multiplies the last slot."""
    return concat_B(t, from_algebra_element(u))


def tensor_differential(t: TensorElement) -> TensorElement:
    """Slotwise differential with sign (-1)^{|u_1|+...+|u_{i-1}|}.

    A canonical word w stays canonical except in the slot i it differentiates,
    so each image is normalised there alone (`TensorElement._add_at_slot`).
    When d is zero on every generator the image is zero, without a walk.
    """
    alg = t.alg
    f = alg.field
    out = TensorElement(alg, t.length)
    if alg.d_is_zero:
        return out
    for w, c in t.terms.items():
        prefix = 0
        for i, m in enumerate(w):
            dm = alg.diff_mono(m)
            if not dm.is_zero():
                cc = f.neg(c) if prefix % 2 else c
                for mm, cm in dm.terms.items():
                    out._add_at_slot(w[:i] + (mm,) + w[i + 1:], i, f.mul(cc, cm))
            prefix += m.degree
    return out


def pi_B(t: TensorElement) -> AlgElement:
    """Multiplication map B ⊗_A B → B: `merge_at`(t, 0) read as an algebra element."""
    if t.length != 2:
        raise LengthMismatch("pi_B expects length-2 tensors")
    return as_algebra_element(merge_at(t, 0))


def as_algebra_element(t: TensorElement) -> AlgElement:
    """Identify a length-1 tensor with the underlying algebra element."""
    if t.length != 1:
        raise LengthMismatch("length-1 tensor expected")
    return AlgElement(t.alg, {w[0]: c for w, c in t.terms.items()})


def from_algebra_element(u: AlgElement) -> TensorElement:
    return TensorElement(u.alg, 1, {(m,): c for m, c in u.terms.items()})


def delta(b: AlgElement) -> TensorElement:
    """Universal derivation δ(b) = 1 ⊗_A b - b ⊗_A 1, an element of J.

    Both terms are `concat_B`s with the unit 1 ⊗ 1 of B^e: (1 ⊗ 1)·b, whose
    junction slot 1 holds b and is normalised, minus b·(1 ⊗ 1), whose
    junction is slot 0.  δ vanishes on A by the normal form alone, as
    1 ⊗_A a = a ⊗_A 1.
    """
    one = TensorElement.unit(b.alg, 2)
    return right_mult(one, b) - left_mult(b, one)


# -- δ-basis machinery --------------------------------------------------------


def delta_chain(alg: DGAlgebra, us) -> TensorElement:
    """δ(u_1) ⊗_B ... ⊗_B δ(u_n) for u_i ∈ B, of length n+1; the unit of length 1 for n = 0.

    The package's one builder of δ-chains: `delta_word`, `semifree.t_word`
    and `semifree.bb_word` all read it.
    """
    out = TensorElement.unit(alg, 1)
    for u in us:
        out = concat_B(out, delta(u))
    return out


def delta_word(alg: DGAlgebra, ws: Word) -> TensorElement:
    """δ(w_1) ⊗_B ... ⊗_B δ(w_n) of monomials, in flat coordinates (length n+1); cached per algebra."""
    return _memo(alg, "delta_word", ws, lambda: delta_chain(alg, map(alg.from_monomial, ws)))


def delta_coords(t: TensorElement, n: int) -> dict:
    """Left coordinates of t over the δ-words of length n; NotInJn when t is outside their span.

    Returns {ws: x_ws}, each x_ws of length k = t.length − n, with
    t = Σ concat_B(x_ws, δ(w_1) ⊗_B ... ⊗_B δ(w_n)) and w_i nontrivial
    W-monomials.

    Lemma: of the words of concat_B(x, δ(w_1) ⊗_B ... ⊗_B δ(w_n)), only
    u + ws, for the words u of x, has no 1 among its last n slots.

    Proof, by induction down from the last slot.  δ(w_i) is 1⊗w_i − w_i⊗1,
    so a word of the δ-chain picks one of the two for each i, and its slot
    i is the second half of pick i times the first half of pick i + 1.  The
    last slot is 1 unless pick n is 1⊗w_n; then slot n − 1 is the second
    half of pick n − 1 times 1, which is 1 unless pick n − 1 is 1⊗w_{n−1},
    and so on down: the one word without a 1 in slots 1..n is
    (1, w_1, ..., w_n).  Concatenating x multiplies its slot 0 into the last
    slot of each word u of x, which leaves the last n slots as they are
    (only the junction slot k − 1 is normalised), and gives u + ws there.

    So distinct (u, ws) give distinct words, no other word can cancel them,
    and the coefficient of u in x_ws is that of the word u + ws in t, read
    off the words of t whose last n slots hold no 1.  t lies in the span
    exactly when it equals Σ concat_B(x_ws, δ(ws)) for the x_ws so read.
    """
    alg = t.alg
    k = t.length - n
    if k < 1:
        raise LengthMismatch("word length too small for the requested δ-power")
    one = alg.one_mono
    coords: dict = {}
    for w, c in t.terms.items():
        if one not in w[k:]:
            coords.setdefault(w[k:], TensorElement(alg, k)).terms[w[:k]] = c
    spanned = sum((concat_B(x, delta_word(alg, ws)) for ws, x in coords.items()), TensorElement(alg, t.length))
    residual = t - spanned
    if not residual.is_zero():
        raise NotInJn(f"residual outside span: {residual!r}")
    return coords


# -- slice bases --------------------------------------------------------------


class TensorSlice(Sequence):
    """The degree slice of B^{⊗_A length}: its words in `_word_key` order, counted and unranked.

    Slot 0 holds a B-monomial and slots 1.. hold W-monomials, and words sort
    by the `sort_key`s of their slots, degree first: they are the choices of
    one candidate per slot, in that product order, whose degrees add up to
    `degree`.  `s[k]` unranks the k-th word by counting, and iterating a
    slice is `Sequence`'s s[0], s[1], ..., so listing and unranking are one
    algorithm.
    """

    def __init__(self, alg: DGAlgebra, length: int, degree: int):
        slots = [[alg.basis("B" if i == 0 else "W", d) for d in range(degree + 1)] for i in range(length)]
        counts = [[1] + [0] * degree]  # counts[i][r]: the ways slots i.. can fill degree r
        for by_degree in reversed(slots):
            rest = counts[0]
            counts.insert(0, [sum(len(by_degree[d]) * rest[r - d] for d in range(r + 1)) for r in range(degree + 1)])
        self.size = counts[0][degree] if degree >= 0 else 0
        # blocks[i][r]: per degree d that slot i can take with r left, (d, its candidates, the ways
        # slots i + 1.. fill r - d, the block of words they make), empty blocks left out
        self.blocks = [[[(d, by_degree[d], rest[r - d], len(by_degree[d]) * rest[r - d])
                         for d in range(r + 1) if by_degree[d] and rest[r - d]]
                        for r in range(degree + 1)] for by_degree, rest in zip(slots, counts[1:])]
        self.degree = degree

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> tuple:
        if not 0 <= k < self.size:
            raise IndexError(k)
        word = []
        r = self.degree
        for blocks in self.blocks:
            for d, candidates, rest, block in blocks[r]:
                if k < block:
                    q, k = divmod(k, rest)
                    word.append(candidates[q])
                    r -= d
                    break
                k -= block
        return tuple(word)


def tensor_basis(alg: DGAlgebra, length: int, degree: int) -> tuple[Word, ...]:
    """Canonical word basis of the degree slice of B^{⊗_A length}: the words of its `TensorSlice`, cached."""
    return _memo(alg, "tensor_basis", (length, degree), lambda: tuple(TensorSlice(alg, length, degree)))


def _delta_factors(alg: DGAlgebra, n: int, degree: int) -> list[Word]:
    """The words (w_1..w_n) of nontrivial W-monomials of total degree `degree`.

    They come out sorted by their `sort_key`s, w_1 first; cached per algebra.
    """
    if n == 0:
        return [()] if degree == 0 else []
    return _memo(alg, "delta_factors", (n, degree), lambda: [
        (w,) + rest for d in range(1, degree - n + 2) for w in alg.basis("W", d)
        for rest in _delta_factors(alg, n - 1, degree - d)])


def prefixed_basis_labels(alg: DGAlgebra, n: int, degree: int) -> tuple:
    """Labels (b, m, (w_1..w_n)) of the slice basis of B ⊗_A J^{⊗_B n}; not cached.

    b runs over all B-monomials (the ⊗_A prefix), m over ext-only monomials
    (the left-B coefficient inside J^{⊗_B n}), and w_i over the nontrivial
    semifree basis of B over A.  Sorted by b, then m, then w_1..w_n, each by
    its `sort_key`.
    """
    factors = [_delta_factors(alg, n, d) for d in range(degree + 1)]
    return tuple((b, m, ws) for db in range(degree + 1) for b in alg.basis("B", db)
                 for dm in range(degree - db + 1) for m in alg.basis("W", dm) for ws in factors[degree - db - dm])


def prefixed_basis_dim(alg: DGAlgebra, n: int, degree: int) -> int:
    """len(prefixed_basis_labels(alg, n, degree)), counted without listing a label or a δ-word.

    A label of n >= 1 is one of n − 1 followed by a last δ-factor w_n of
    degree e >= 1, so dim(n, d) = Σ_e |W_e|·dim(n − 1, d − e), from the
    pairs (b, m) of n = 0, dim(0, d) = Σ_e |B_{d−e}|·|W_e|.  Cached per
    algebra: one table serves the reduced bar and (𝔹, 𝔻) tables.
    """
    if n == 0:
        return _memo(alg, "label_counts", (0, degree), lambda: sum(
            len(alg.basis("B", degree - e)) * len(alg.basis("W", e)) for e in range(degree + 1)))
    return _memo(alg, "label_counts", (n, degree), lambda: sum(
        len(alg.basis("W", e)) * prefixed_basis_dim(alg, n - 1, degree - e) for e in range(1, degree - n + 2)))


def prefixed_basis_element(alg: DGAlgebra, label) -> TensorElement:
    """b ⊗_A m·δ(w_1) ⊗_B ... ⊗_B δ(w_n): the canonical word (b, m) ⊗_B-concatenated with the δ-word."""
    b, m, ws = label
    return concat_B(TensorElement(alg, 2, {(b, m): alg.field.one}), delta_word(alg, ws))
