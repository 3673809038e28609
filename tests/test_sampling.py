"""The samplers unrank slices in basis order, so they draw what enumeration drew."""

import random

import pytest

from dgres.fixtures import all_fixtures, chain_N3, extended_module, module_B
from dgres.modules import LEMMA_MAX_DEGREE, LEMMA_MAX_WORDS, modtensor_basis
from dgres.probfile import parse_problem
from dgres.sampling import (ModTensorSlice, TensorSlice, random_homogeneous_modtensor,
                            random_homogeneous_tensor, random_scalar)
from dgres.scalars import Field
from dgres.tensor import tensor_basis
from oracles import enumerating_random_modtensor, enumerating_random_tensor, fraction_random_scalar

# lemma_sign_check's bounds: tensors of 1..4 words and module tensors of
# 2..5 words, in degrees 0..6
MAX_DEGREE, MAX_WORDS = LEMMA_MAX_DEGREE, LEMMA_MAX_WORDS

C9 = "\n".join(
    ["field rationals", "[algebra]", "ext a 1", "ext b 1", "ext c 1", "[module C9]"]
    + [f"generator f{i} {2 * i}" for i in range(10)]
    + [f"entry f{i} f{i - 1} = {(-1) ** i * i}/{i + 1}*a" for i in range(1, 10)]) + "\n"


def _modules():
    out = {}
    for name, alg in all_fixtures().items():
        out[f"{name}:B"] = module_B(alg)
        out[f"{name}:ext"] = extended_module(alg)
        if name.startswith("E1"):
            out[f"{name}:N3"] = chain_N3(alg)
    out["C9"] = parse_problem(C9).modules["C9"]
    return out


MODULES = _modules()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_slices_unrank_in_basis_order(name):
    N = MODULES[name]
    for degree in range(-1, MAX_DEGREE + 1):
        for length in range(1, MAX_WORDS + 1):
            words = TensorSlice(N.alg, length, degree)
            assert list(words) == list(tensor_basis(N.alg, length, degree)), (length, degree)
        for length in range(2, MAX_WORDS + 2):
            keys = ModTensorSlice(N, length, degree)
            assert list(keys) == modtensor_basis(N, length, degree), (length, degree)
            with pytest.raises(IndexError):
                keys[len(keys)]
            with pytest.raises(IndexError):
                keys[-1]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_samplers_draw_as_enumeration_did(name):
    N = MODULES[name]
    new, old = random.Random(name), random.Random(name)
    for _ in range(60):
        length, degree = new.randrange(1, MAX_WORDS + 1), new.randrange(0, MAX_DEGREE + 1)
        assert (length, degree) == (old.randrange(1, MAX_WORDS + 1), old.randrange(0, MAX_DEGREE + 1))
        t = random_homogeneous_tensor(N.alg, new, length, degree)
        assert t.terms == enumerating_random_tensor(N.alg, old, length, degree).terms
        g = random_homogeneous_modtensor(N, new, length + 1, degree)
        assert g.terms == enumerating_random_modtensor(N, old, length + 1, degree).terms
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(101)], ids=repr)
def test_random_scalar_draws_as_before(field):
    new, old = random.Random(31), random.Random(31)
    for _ in range(1000):
        got, want = random_scalar(field, new), fraction_random_scalar(field, old)
        assert got == want and type(got) is type(want) and str(got) == str(want)
    assert new.getstate() == old.getstate()
