"""Free strictly graded-commutative DG algebras with exact coefficients.

An algebra is a tower A ⊆ B over a field: the "base" generators span the
subalgebra A, the "ext" generators are the B-only ones, and B is free over
A on the monomials in the ext generators.  Odd-degree generators square to
zero in every characteristic; even-degree generators are polynomial.

Monomials are exponent vectors over the fixed generator order (base
generators first, then ext generators, each group sorted by name).  The
canonical monomial order is (total degree, exponent vector), a monomial's
`sort_key`; it makes every basis, matrix, and report in the package
deterministic.

Every element in the package is one of two containers.  A `ScalarSum` is a
finite sum Σ c·k over basis keys: `terms` maps each key k to its nonzero
scalar c, and `add_term` is the one step that adds into such a dict and
drops a key whose sum vanishes.  Its subclasses are `AlgElement` (keys are
monomials) and `tensor.TensorElement` (keys are canonical words).  A
`semifree.GradedElement` is a direct sum: it maps each key to a nonzero
component (T and 𝔹 by word length, `modules.ModTensorElement` and
N ⊗_A T = N ⊗_B 𝔹 by module generator).  Each container
writes +, −, scaling, `is_zero`, `==`, `degrees` and `homogeneous_degree`
once for all its subclasses.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Iterable
from fractions import Fraction
from operator import add, attrgetter

from .errors import DgresError, LengthMismatch, MismatchedAlgebra
from .report import ValidationReport
from .scalars import Field

_MISS = object()  # cache sentinel: a vanishing product is memoized as None


def add_term(f: Field, terms: dict, key, c, negate=False):
    """terms[key] += -c if negate else c in the field f, dropping key when the sum vanishes."""
    s = f.add(terms.get(key, 0), f.neg(c) if negate else c)
    if not s:
        terms.pop(key, None)
    else:
        terms[key] = s


class Generator(namedtuple("Generator", "name degree")):
    __slots__ = ()

    @property
    def parity(self) -> int:
        return self.degree % 2


_MONOMIALS: dict[tuple[tuple[int, ...], int], Monomial] = {}


class Monomial(int):
    """An exponent vector `exps` with its total `degree`, hash-consed.

    `Monomial(exps, degree)` returns the one object of the process with
    that value, so equal monomials, from any algebra, are the same object.
    That object is an `int` whose value is a creation-order code 1, 2, ...:
    hashing and `==` run in CPython's int slots, and every dict keyed by
    monomials or by tuples of them hashes each monomial in O(1).  The code
    is not an order: sort monomials by `sort_key` = (degree, exps), the
    canonical order, and never by the codes.  Every monomial is truthy.
    The table `_MONOMIALS` keeps each monomial for the life of the process;
    the bases of one run hold only a few thousand.
    """

    def __new__(cls, exps: tuple[int, ...], degree: int):
        m = _MONOMIALS.get((exps, degree))
        if m is None:
            m = int.__new__(cls, len(_MONOMIALS) + 1)
            m.exps = exps
            m.degree = degree
            m.sort_key = (degree, exps)
            _MONOMIALS[exps, degree] = m
        return m

    def __reduce__(self):
        return Monomial, (self.exps, self.degree)

    def __repr__(self):
        return f"Monomial(exps={self.exps!r}, degree={self.degree!r})"


class DGAlgebra:
    """The tower A ⊆ B with its Leibniz differential.

    `base_gens` generate A, `ext_gens` generate B over A.  `diff_terms`
    maps generator names to raw term data `[(coeff, {name: exp, ...}), ...]`
    (coeff an int or Fraction); omitted names get differential zero.
    """

    def __init__(
        self,
        field: Field,
        base_gens: Iterable[tuple[str, int]] = (),
        ext_gens: Iterable[tuple[str, int]] = (),
        diff_terms: dict[str, list] | None = None,
    ):
        base = sorted(base_gens)
        ext = sorted(ext_gens)
        names = [n for n, _ in base] + [n for n, _ in ext]
        if len(set(names)) != len(names):
            raise DgresError("generator names must be unique")
        for n, d in base + ext:
            if d < 1:
                raise DgresError(f"generator {n} has degree {d}; all degrees must be >= 1")
        self.field = field
        self.gens: tuple[Generator, ...] = tuple(Generator(n, d) for n, d in base + ext)
        self.n_base = len(base)
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        self.degvec = tuple(g.degree for g in self.gens)
        self.parvec = tuple(g.degree % 2 for g in self.gens)
        self._odd = tuple(i for i, p in enumerate(self.parvec) if p)
        self.one_mono = Monomial((0,) * len(self.gens), 0)
        self._diff_cache: dict[Monomial, AlgElement] = {}
        self._mul_cache: dict[tuple[Monomial, Monomial], tuple[int, Monomial] | None] = {}
        self._split_cache: dict[Monomial, tuple[Monomial, Monomial]] = {}
        self._basis_cache: dict[tuple[str, int], tuple[Monomial, ...]] = {}
        self._repr_cache: dict[Monomial, str] = {}
        self._memo_tables: defaultdict[str, dict] = defaultdict(dict)  # name -> table, for `tensor._memo`
        self.diff_images: dict[int, AlgElement] = {}
        diff_terms = diff_terms or {}
        for name in diff_terms:
            if name not in self.index:
                raise DgresError(f"differential given for unknown generator {name}")
        for i, g in enumerate(self.gens):
            self.diff_images[i] = self.element(diff_terms.get(g.name, []))
        self.d_is_zero = not any(img.terms for img in self.diff_images.values())

    # -- monomials ---------------------------------------------------------

    def mono(self, exps_by_name: dict[str, int]) -> Monomial:
        exps = [0] * len(self.gens)
        for name, e in exps_by_name.items():
            if name not in self.index:
                raise DgresError(f"unknown generator {name}")
            if e < 0:
                raise DgresError("negative exponent")
            exps[self.index[name]] = e
        return self._mono_from_exps(tuple(exps))

    def _mono_from_exps(self, exps: tuple[int, ...]) -> Monomial:
        for i, e in enumerate(exps):
            if e > 1 and self.parvec[i]:
                raise DgresError(f"odd generator {self.gens[i].name} cannot have exponent {e}")
        return Monomial(exps, sum(e * d for e, d in zip(exps, self.degvec)))

    def mono_mul(self, m1: Monomial, m2: Monomial):
        """Product of monomials with the Koszul sign, or None when it vanishes.

        The sign counts transpositions of odd generators needed to sort the
        concatenated word back into canonical order: each odd letter of m2
        crosses the odd letters of m1 of larger index, so only the odd
        positions are read.  An odd generator shared by both factors kills
        the product (strong commutativity).  Results, including the
        vanishing ones, are memoized per algebra.
        """
        key = (m1, m2)
        got = self._mul_cache.get(key, _MISS)
        if got is not _MISS:
            return got
        e1, e2 = m1.exps, m2.exps
        if len(e1) != len(self.gens) or len(e2) != len(self.gens):
            raise MismatchedAlgebra("monomials over a different generator set")
        result = None
        inv = seen = 0  # seen: odd letters of m2 at the positions passed
        for i in self._odd:
            if e1[i]:
                if e2[i]:
                    break
                inv += seen
            elif e2[i]:
                seen += 1
        else:
            result = -1 if inv & 1 else 1, Monomial(tuple(map(add, e1, e2)), m1.degree + m2.degree)
        self._mul_cache[key] = result
        return result

    def mono_split(self, m: Monomial) -> tuple[Monomial, Monomial]:
        """Split into (base part, ext part); the product base*ext is m with sign +1."""
        got = self._split_cache.get(m)
        if got is not None:
            return got
        if len(m.exps) != len(self.gens):
            raise MismatchedAlgebra("monomial over a different generator set")
        nb = self.n_base
        base = m.exps[:nb] + (0,) * (len(self.gens) - nb)
        ext = (0,) * nb + m.exps[nb:]
        db = sum(e * d for e, d in zip(base, self.degvec))
        result = Monomial(base, db), Monomial(ext, m.degree - db)
        self._split_cache[m] = result
        return result

    def mono_in_A(self, m: Monomial) -> bool:
        return not any(m.exps[self.n_base:])

    def mono_repr(self, m: Monomial) -> str:
        """m written in this algebra's generator names; memoized per algebra, as the names are."""
        got = self._repr_cache.get(m)
        if got is None:
            if m == self.one_mono:
                got = "1"
            else:
                got = "*".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in zip(self.gens, m.exps) if e)
            self._repr_cache[m] = got
        return got

    # -- elements ----------------------------------------------------------

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def one(self) -> AlgElement:
        return AlgElement(self, {self.one_mono: self.field.one})

    def gen(self, name: str) -> AlgElement:
        return AlgElement(self, {self.mono({name: 1}): self.field.one})

    def element(self, raw_terms) -> AlgElement:
        """Build from raw [(coeff, {name: exp})] data (coeff int or Fraction)."""
        terms: dict[Monomial, object] = {}
        f = self.field
        for coeff, exps in raw_terms:
            add_term(f, terms, self.mono(exps), f.of_fraction(Fraction(coeff)))
        return AlgElement(self, terms)

    def from_monomial(self, m: Monomial, coeff=None) -> AlgElement:
        c = self.field.one if coeff is None else coeff
        if c == self.field.zero:
            return self.zero()
        return AlgElement(self, {m: c})

    # -- differential ------------------------------------------------------

    def diff_mono(self, m: Monomial) -> AlgElement:
        """d m by the Leibniz rule, in one pass over the generators present.

        With m = P·g_i^{e_i}·S, P the generators before i and S those after,
        d m = Σ_i (-1)^{|P|}·e_i·(P·g_i^{e_i-1})·d(g_i)·S: an even g_i
        commutes with everything, and an odd one has e_i = 1.  e_i is taken
        in the field, so the term vanishes when p divides it.  A term t of
        d(g_i) moves past S with the sign (-1)^{|t||S|}, so each term is one
        product (m/g_i)·t.
        """
        cached = self._diff_cache.get(m)
        if cached is not None:
            return cached
        exps = m.exps
        if len(exps) != len(self.gens):
            raise MismatchedAlgebra("monomial over a different generator set")
        f = self.field
        out: dict[Monomial, object] = {}
        pre = 0  # |P|
        for i, e in enumerate(exps):
            dgi, dg = self.degvec[i], self.diff_images[i].terms
            k = f.of_int(e) if e and dg else f.zero
            if k != f.zero:
                x = Monomial(exps[:i] + (e - 1,) + exps[i + 1:], m.degree - dgi)
                post = m.degree - pre - e * dgi  # |S|
                for t, c in dg.items():
                    sm = self.mono_mul(x, t)
                    if sm is not None:
                        v = f.mul(c, k)
                        flip = (sm[0] < 0) ^ (pre + t.degree * post) % 2
                        add_term(f, out, sm[1], v, flip)
            pre += e * dgi
        result = self._diff_cache[m] = AlgElement(self, out)
        return result

    def d(self, u: AlgElement) -> AlgElement:
        if u.alg is not self:
            raise MismatchedAlgebra("element of a different algebra")
        f = self.field
        out: dict[Monomial, object] = {}
        for m, c in u.terms.items():
            for mm, v in self.diff_mono(m).terms.items():
                add_term(f, out, mm, f.mul(v, c))
        return AlgElement(self, out)

    # -- basis enumeration ---------------------------------------------------

    def basis(self, which: str, degree: int) -> tuple[Monomial, ...]:
        """Monomial basis of the degree slice of A, B, Bbar (= B/A), or the
        ext-only monomials W (the semifree basis of B over A, including 1).

        The exponent vectors are walked generator by generator, exponents
        ascending, so they come out in `sort_key` order; a branch is entered
        only when the generators after it can still make up the degree.
        """
        if degree < 0:
            return ()
        key = (which, degree)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        if which not in ("A", "B", "Bbar", "W"):
            raise DgresError(f"unknown basis selector {which!r}")
        n, nb = len(self.gens), self.n_base
        lo, hi = (nb if which == "W" else 0), (nb if which == "A" else n)
        tops = [1 if self.parvec[i] else degree // self.degvec[i] for i in range(n)]
        # reach[i - lo]: bit r is set when generators i..hi-1 make up degree r
        reach = [1]
        for i in range(hi - 1, lo - 1, -1):
            r = reach[-1]
            for _ in range(tops[i]):
                r |= r << self.degvec[i]
            reach.append(r & ((2 << degree) - 1))
        reach.reverse()
        rows = [((0,) * lo, degree)] if reach[0] >> degree & 1 else []
        for i in range(lo, hi):
            dgi, nxt = self.degvec[i], reach[i - lo + 1]
            rows = [(p + (e,), r - e * dgi) for p, r in rows
                    for e in range(min(tops[i], r // dgi) + 1) if nxt >> (r - e * dgi) & 1]
        pad = (0,) * (n - hi)
        result = self._basis_cache[key] = tuple(
            Monomial(p + pad, degree) for p, _ in rows if which != "Bbar" or any(p[nb:]))
        return result

    def __repr__(self):
        base = ",".join(f"{g.name}:{g.degree}" for g in self.gens[: self.n_base]) or "-"
        ext = ",".join(f"{g.name}:{g.degree}" for g in self.gens[self.n_base:]) or "-"
        return f"DGAlgebra({self.field!r}; A=[{base}]; ext=[{ext}])"


class ScalarSum:
    """Finite sum Σ c·k of basis keys k with scalars c in `alg.field`; immutable by convention.

    `terms` maps each key to its nonzero scalar.  A subclass gives only its
    `shape` (None, or the word length), the degree `key_degree` and sort
    key `key_order` of a key, `_like` when its constructor takes more than
    (alg, terms), `__hash__`, `__repr__` and its products.  Sums of
    different types, algebras or shapes raise instead of mixing.
    """

    __slots__ = ("alg", "terms")
    shape = None

    def __init__(self, alg: DGAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def _like(self, terms: dict):
        """A sum of the same type, algebra and shape with the given terms."""
        return type(self)(self.alg, terms)

    def _check(self, other):
        if self.alg is not other.alg:
            raise MismatchedAlgebra("elements of different algebras")
        if type(other) is not type(self) or self.shape != other.shape:
            raise LengthMismatch(f"elements of different shapes: lengths {self.shape} and {other.shape}")

    def __add__(self, other):
        self._check(other)
        f = self.alg.field
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(f, terms, k, c)
        return self._like(terms)

    def __sub__(self, other):
        return self + other.scale_int(-1)

    def __neg__(self):
        return self.scale_int(-1)

    def scale(self, c):
        f = self.alg.field
        return self._like({} if c == f.zero else {k: f.mul(v, c) for k, v in self.terms.items()})

    def scale_int(self, n: int):
        return self.scale(self.alg.field.of_int(n))

    def twisted(self, k: int):
        """The Koszul twist: each term c·x signed (-1)^{k·|x|}; the sum itself for even k."""
        if not k % 2:
            return self
        f, degree = self.alg.field, self.key_degree
        return self._like({x: f.neg(c) if degree(x) % 2 else c for x, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.alg is other.alg and self.shape == other.shape and self.terms == other.terms

    def degrees(self) -> set[int]:
        return set(map(self.key_degree, self.terms))

    def homogeneous_degree(self):
        degs = self.degrees()
        if len(degs) > 1:
            raise DgresError("element is not homogeneous")
        return degs.pop() if degs else None

    def sorted_terms(self):
        order = self.key_order
        return sorted(self.terms.items(), key=lambda kc: order(kc[0]))


class AlgElement(ScalarSum):
    """Finite sum of scalar multiples of monomials."""

    __slots__ = ()
    key_degree = staticmethod(attrgetter("degree"))
    key_order = staticmethod(attrgetter("sort_key"))

    def __mul__(self, other: AlgElement) -> AlgElement:
        self._check(other)
        f = self.alg.field
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sm = self.alg.mono_mul(m1, m2)
                if sm is not None:
                    add_term(f, out, sm[1], f.mul(c1, c2), sm[0] < 0)
        return AlgElement(self.alg, out)

    def __hash__(self):
        # equal elements share their algebra, so the hash may leave it out
        return hash(tuple((m.sort_key, c) for m, c in self.sorted_terms()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = self.alg.mono_repr(m)
            if mono == "1":
                parts.append(f"{c}")
            elif c == self.alg.field.one:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def validate_dg(alg: DGAlgebra, max_degree: int) -> ValidationReport:
    """Check the DG axioms on every basis monomial of degree <= max_degree."""
    rep = ValidationReport()
    ok = all(g.degree >= 1 for g in alg.gens)
    rep.add("generator-degrees-positive", ok)

    for i, g in enumerate(alg.gens):
        img = alg.diff_images[i]
        if img.is_zero():
            continue
        degs = img.degrees()
        ok = degs == {g.degree - 1}
        rep.add(
            f"diff-degree[{g.name}]",
            ok,
            "" if ok else f"d({g.name}) has degrees {sorted(degs)}, expected {g.degree - 1}",
        )

    for i in range(alg.n_base):
        img = alg.diff_images[i]
        ok = all(alg.mono_in_A(m) for m in img.terms)
        rep.add(
            f"base-closure[{alg.gens[i].name}]",
            ok,
            "" if ok else f"d({alg.gens[i].name}) leaves the base subalgebra",
        )

    bad = []
    for deg in range(max_degree + 1):
        for m in alg.basis("B", deg):
            dd = alg.d(alg.diff_mono(m))
            if not dd.is_zero():
                bad.append(alg.mono_repr(m))
    rep.add(
        "d-squared-zero",
        not bad,
        "" if not bad else "d(d(m)) != 0 for m in: " + ", ".join(bad[:5]),
    )

    for i, g in enumerate(alg.gens):
        if g.parity == 0:
            continue
        ge = alg.gen(g.name)
        lhs = alg.diff_images[i] * ge - ge * alg.diff_images[i]
        rep.add(f"odd-square-consistency[{g.name}]", lhs.is_zero())
    return rep
