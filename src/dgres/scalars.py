"""Exact coefficient fields: the rationals and prime fields F_p.

A rational scalar is held in one canonical form: an `int` when it is
integral, and a `fractions.Fraction` only when its denominator is not 1.
The ±1 structure constants of the bar and diagonal resolutions so stay
machine ints, and a Fraction appears only where a division makes one.  An
int and a Fraction of equal value compare and hash equal and print the same
digits, so the form never shows in a report.  Prime-field scalars are ints
in [0, p).  Nothing in the package ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DgresError


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
            return canonical(q)
        den = q.denominator % self.p
        if den == 0:
            raise DgresError(f"denominator {q.denominator} not invertible mod {self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else canonical(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else canonical(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else canonical(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return canonical(Fraction(a.denominator, a.numerator))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"
