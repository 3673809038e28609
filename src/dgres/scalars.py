"""Exact coefficient fields: the rationals and prime fields F_p.

A rational scalar is held in one canonical form: an `int` when it is
integral, and a `fractions.Fraction` only when its denominator is not 1.
The ±1 structure constants of the bar and diagonal resolutions so stay
machine ints, and a Fraction appears only where a division makes one.  An
int and a Fraction of equal value compare and hash equal and print the same
digits, so the form never shows in a report.  Prime-field scalars are ints
in [0, p).  Nothing in the package ever touches a float.

Every ℚ operation of `Field`, and the inner loop of `linalg.echelon`, runs
on one kernel: `q_add` and `q_mul`, with `q_neg`, `q_inv` and `q_ratio` on
top.  It works on integer numerator/denominator pairs (an int n is n/1) and
reduces each result with the gcd steps of Knuth, TAOCP vol. 2 §4.5.1, so
the parts are coprime and the denominator positive.  It returns the
canonical form directly: the int when the denominator is 1, else a Fraction
whose two slots, `_numerator` and `_denominator` (CPython 3.10–3.13 all
have them), it fills in itself instead of calling the normalising
constructor.  That skips the pure-Python operator dispatch and `__new__` of
`fractions.Fraction`.  The values stay Fractions because a Fraction and an
int of equal value hash, compare and print alike, so every dict key, sort
and report stays as it was.  Two ints cost a type test each and the int
operation.  Any int or Fraction is a valid operand, one with denominator 1
included, and the result is canonical all the same: a sum that cancels is
always the int 0, never a Fraction 0/1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DgresError

_new = object.__new__


def _reduced(n: int, d: int):
    """The canonical value of n/d, for coprime n and d > 0: a Fraction filled in slot by slot."""
    if d == 1:
        return n
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def q_ratio(n: int, d: int):
    """The canonical value of n/d, for any ints n and d != 0."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _reduced(n, d)


def q_add(a, b):
    """a + b, canonical, for ints and Fractions a and b."""
    if type(a) is int:
        if type(b) is int:
            return a + b
        na, da = a, 1
    else:
        na, da = a._numerator, a._denominator
    if type(b) is int:
        nb, db = b, 1
    else:
        nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        # coprime denominators: the sum is in lowest terms
        return _reduced(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    if not t:
        return 0
    g2 = gcd(t, g)
    return _reduced(t // g2, s * (db // g2))


def q_mul(a, b):
    """a · b, canonical, for ints and Fractions a and b."""
    if type(a) is int:
        if type(b) is int:
            return a * b
        na, da = a, 1
    else:
        na, da = a._numerator, a._denominator
    if type(b) is int:
        nb, db = b, 1
    else:
        nb, db = b._numerator, b._denominator
    if not na or not nb:
        return 0
    # cancel across: gcd(na, db) and gcd(nb, da), so the product is in lowest terms
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return _reduced((na // g1) * (nb // g2), (da // g2) * (db // g1))


def q_neg(a):
    """-a, canonical, for an int or Fraction a."""
    return -a if type(a) is int else _reduced(-a._numerator, a._denominator)


def q_inv(a):
    """1/a, canonical, for a nonzero int or Fraction a."""
    if type(a) is int:
        n, d = a, 1
    else:
        n, d = a._numerator, a._denominator
    if not n:
        raise ZeroDivisionError("inverse of 0")
    return _reduced(d, n) if n > 0 else _reduced(-d, -n)


def canonical(q):
    """The canonical form of a rational q: its int value when q is integral, else q itself."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """ℚ (`Field.rationals()`) or F_p (`Field.prime(p)`)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None):
        if p is not None:
            if not (2 <= p < 2**31 and _is_prime(p)):
                raise DgresError(f"modulus {p} is not a prime below 2^31")
        self.p = p
        self.zero = 0
        self.one = 1

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def of_int(self, n: int):
        return n % self.p if self.p is not None else n

    def of_fraction(self, q: Fraction):
        if self.p is None:
            return q_ratio(q.numerator, q.denominator)
        den = q.denominator % self.p
        if den == 0:
            raise DgresError(f"denominator {q.denominator} not invertible mod {self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else q_add(a, b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else q_add(a, q_neg(b))

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else q_mul(a, b)

    def neg(self, a):
        return (-a) % self.p if self.p is not None else q_neg(a)

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        return q_inv(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"
