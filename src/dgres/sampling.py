"""Seeded random homogeneous elements for property suites and report sampling."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgElement, DGAlgebra
from .modules import ModTensorElement, SemifreeModule, modtensor_basis
from .tensor import TensorElement, tensor_basis


def random_scalar(field, rng: random.Random):
    if field.is_prime_field:
        return rng.randrange(1, field.p)
    num = rng.choice([n for n in range(-6, 7) if n])
    den = rng.randrange(1, 5)
    return Fraction(num, den)


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
    basis = tensor_basis(alg, length, degree)
    out = TensorElement(alg, length)
    if not basis:
        return out
    for w in rng.sample(list(basis), min(len(basis), rng.randrange(1, max_terms + 1))):
        out._add_canonical(w, random_scalar(alg.field, rng))
    return out


def random_homogeneous_modtensor(N: SemifreeModule, rng: random.Random, length: int,
                                 degree: int, max_terms: int = 3) -> ModTensorElement:
    basis = modtensor_basis(N, length, degree)
    if not basis:
        return ModTensorElement(N, length)
    keys = rng.sample(list(basis), min(len(basis), rng.randrange(1, max_terms + 1)))
    return ModTensorElement(N, length, {key: random_scalar(N.alg.field, rng) for key in keys})
