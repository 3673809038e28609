"""Seeded random homogeneous elements for property suites and report sampling.

The tensor samplers draw from a degree slice without enumerating it: the
slice is a `Sequence` that counts its words and unranks the i-th one, in the
order of `tensor_basis` and `modtensor_basis`, so `rng.sample` makes the
same draws as it would from the enumerated basis.  Each slice is built once
per algebra, length and degree, and kept in the algebra's memo tables (`tensor._memo`).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .algebra import AlgElement, DGAlgebra, add_term
from .scalars import q_ratio
from .tensor import TensorElement, _memo


# the numerators of random ℚ scalars, in the order `rng.choice` indexes them
_NUMERATORS = tuple(n for n in range(-6, 7) if n)


def random_scalar(field, rng: random.Random):
    """A nonzero scalar: uniform on F_p*, or num/den with num in ±1..6 and den in 1..4 over ℚ."""
    if field.is_prime_field:
        return rng.randrange(1, field.p)
    num = rng.choice(_NUMERATORS)
    return q_ratio(num, rng.randrange(1, 5))


class TensorSlice(Sequence):
    """The words of `tensor_basis(alg, length, degree)`, unranked on demand.

    Slot 0 holds a B-monomial and slots 1.. hold W-monomials.  `tensor_basis`
    sorts words lexicographically by the `sort_key`s of their slots, which
    put degree first, so the words are the choices of one candidate per
    slot, taken in that product order, whose degrees add up to `degree`.
    `counts[i][r]` is the number of ways slots i.. can fill degree r.
    """

    def __init__(self, alg: DGAlgebra, length: int, degree: int):
        self.degree = degree
        self.slots = [[alg.basis("B" if i == 0 else "W", d) for d in range(degree + 1)]
                      for i in range(length)]
        self.counts = [[1] + [0] * degree]
        for by_degree in reversed(self.slots):
            rest = self.counts[0]
            self.counts.insert(0, [sum(len(by_degree[d]) * rest[r - d] for d in range(r + 1))
                                   for r in range(degree + 1)])
        self.size = self.counts[0][degree] if degree >= 0 else 0

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> tuple:
        if not 0 <= k < self.size:
            raise IndexError(k)
        word = []
        r = self.degree
        for by_degree, rest in zip(self.slots, self.counts[1:]):
            for d in range(r + 1):
                block = len(by_degree[d]) * rest[r - d]
                if k < block:
                    q, k = divmod(k, rest[r - d])
                    word.append(by_degree[d][q])
                    r -= d
                    break
                k -= block
        return tuple(word)


def _tensor_slice(alg: DGAlgebra, length: int, degree: int) -> TensorSlice:
    """The cached `TensorSlice`; `rng.sample` only reads it, so sharing it changes no draw."""
    return _memo(alg, "tensor_slice", (length, degree), TensorSlice, alg, length, degree)


class ModTensorSlice(Sequence):
    """The keys (idx, word) of `modtensor_basis(N, length, degree)`, unranked on demand."""

    def __init__(self, N: SemifreeModule, length: int, degree: int):
        self.parts = [(i, _tensor_slice(N.alg, length, degree - d))
                      for i, d in enumerate(N.degrees) if d <= degree]
        self.size = sum(len(words) for _, words in self.parts)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> tuple:
        if k >= 0:
            for i, words in self.parts:
                if k < len(words):
                    return i, words[k]
                k -= len(words)
        raise IndexError(k)


def random_homogeneous_element(alg: DGAlgebra, rng: random.Random, degree: int,
                               which: str = "B", max_terms: int = 3) -> AlgElement:
    basis = alg.basis(which, degree)
    out = alg.zero()
    if not basis:
        return out
    for m in rng.sample(list(basis), min(len(basis), rng.randrange(1, max_terms + 1))):
        out = out + alg.from_monomial(m, random_scalar(alg.field, rng))
    return out


def random_homogeneous_tensor(alg: DGAlgebra, rng: random.Random, length: int,
                              degree: int, max_terms: int = 3) -> TensorElement:
    words = _tensor_slice(alg, length, degree)
    out = TensorElement(alg, length)
    if not words:
        return out
    for w in rng.sample(words, min(len(words), rng.randrange(1, max_terms + 1))):
        add_term(alg.field, out.terms, w, random_scalar(alg.field, rng))
    return out


def random_homogeneous_modtensor(N: SemifreeModule, rng: random.Random, length: int,
                                 degree: int, max_terms: int = 3) -> ModTensorElement:
    from .modules import ModTensorElement  # deferred: modules imports this module

    keys = ModTensorSlice(N, length, degree)
    if not keys:
        return ModTensorElement(N, length)
    picked = rng.sample(keys, min(len(keys), rng.randrange(1, max_terms + 1)))
    return ModTensorElement(N, length, {key: random_scalar(N.alg.field, rng) for key in picked})
