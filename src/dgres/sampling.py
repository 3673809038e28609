"""Seeded random homogeneous elements for property suites and report sampling.

The tensor samplers draw from a degree slice without enumerating it: a
`tensor.TensorSlice` counts its words and unranks the k-th word of
`tensor_basis` (which lists the slice by that unranking), and a
`ModTensorSlice` does the same for the index-first keys of
`modtensor_basis`, so `rng.sample` makes the draws it would make from the
enumerated basis.  Each tensor slice is built once
per algebra, length and degree, and kept in the algebra's memo tables
(`tensor._memo`).  All three samplers make one draw, `_draw`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .algebra import AlgElement, DGAlgebra
from .scalars import q_ratio
from .tensor import TensorElement, TensorSlice, _memo


# the numerators of random ℚ scalars, in the order `rng.choice` indexes them
_NUMERATORS = tuple(n for n in range(-6, 7) if n)


def random_scalar(field, rng: random.Random):
    """A nonzero scalar: uniform on F_p*, or num/den with num in ±1..6 and den in 1..4 over ℚ."""
    if field.is_prime_field:
        return rng.randrange(1, field.p)
    num = rng.choice(_NUMERATORS)
    return q_ratio(num, rng.randrange(1, 5))


def _draw(field, rng: random.Random, population: Sequence, max_terms: int) -> dict:
    """{key: scalar} for min(len, rng.randrange(1, max_terms + 1)) keys sampled from
    the population, then one `random_scalar` per key in sample order; {}
    without a draw when the population is empty."""
    if not population:
        return {}
    keys = rng.sample(population, min(len(population), rng.randrange(1, max_terms + 1)))
    return {key: random_scalar(field, rng) for key in keys}


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
    return AlgElement(alg, _draw(alg.field, rng, alg.basis(which, degree), max_terms))


def random_homogeneous_tensor(alg: DGAlgebra, rng: random.Random, length: int,
                              degree: int, max_terms: int = 3) -> TensorElement:
    return TensorElement(alg, length, _draw(alg.field, rng, _tensor_slice(alg, length, degree), max_terms))


def random_homogeneous_modtensor(N: SemifreeModule, rng: random.Random, length: int,
                                 degree: int, max_terms: int = 3) -> ModTensorElement:
    from .modules import ModTensorElement  # deferred: modules imports this module

    return ModTensorElement(N, length, _draw(N.alg.field, rng, ModTensorSlice(N, length, degree), max_terms))
